from __future__ import annotations

from bibinpack.archive import ParetoArchive
from bibinpack.instances import generate_instance
from bibinpack.oracle import exact_pareto

from test_oracle import count_search


def test_search_counts_on_the_benchmark_instances(monkeypatch):
    # the oracle-n10 workload's instances at its default seed 7; a prune
    # change that moves these counts must say why
    accepted = 0
    update = ParetoArchive.update

    def accepting(self, vector, witness):
        nonlocal accepted
        kept = update(self, vector, witness)
        accepted += kept
        return kept

    monkeypatch.setattr(ParetoArchive, "update", accepting)
    nodes = offers = 0
    for seed in range(7, 19):
        instance = generate_instance(10, seed)
        _, seed_nodes, seed_offers = count_search(monkeypatch, exact_pareto, instance)
        nodes += seed_nodes
        offers += seed_offers
    # the table settles every leaf, so each offer is accepted; heaviest-first
    # order reaches fewer nodes but finds more intermediate fronts on the way
    assert (nodes, offers, accepted) == (3678, 228, 228)
