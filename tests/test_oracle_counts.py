from __future__ import annotations

from bibinpack.archive import ParetoArchive
from bibinpack.instances import generate_instance
from bibinpack.oracle import exact_pareto

from test_oracle import count_offers


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
    offers = sum(
        count_offers(monkeypatch, exact_pareto, generate_instance(10, seed))[1]
        for seed in range(7, 19)
    )
    assert (offers, accepted) == (915, 199)
