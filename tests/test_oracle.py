from __future__ import annotations

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bibinpack.archive import ParetoArchive
from bibinpack.instances import generate_instance
from bibinpack.model import Instance, Item, ObjectiveVector
from bibinpack.oracle import exact_pareto

from helpers import check_front, random_instance, reference_exact_pareto


def front_key(front) -> list:
    """Vectors with their witnesses' member ids, bin for bin, in front order."""
    return [(vector, [sorted(b.member_ids) for b in witness.bins]) for vector, witness in front]


@st.composite
def pruning_instances(draw) -> Instance:
    capacity = draw(st.sampled_from([60, 100, 150]))
    pool = draw(st.sampled_from(["A", "AB", "ABC", "ABCDE", "ABCDEFGH"]))
    specs = draw(st.lists(st.tuples(st.integers(1, capacity), st.sampled_from(pool)),
                          min_size=1, max_size=8))
    return Instance(capacity=capacity, items=tuple(Item(w, a) for w, a in specs))


@settings(deadline=None, max_examples=150)
@example(random_instance(random.Random(2718), n=7))
# an unseen-attribute count one too high, or one that counts held attributes,
# prunes a partition that is efficient here
@example(Instance(capacity=100, items=tuple(
    Item(w, a) for w, a in ((1, "A"), (1, "B"), (84, "A"), (15, "B"), (16, "A")))))
@given(pruning_instances())
def test_pruned_oracle_matches_plain_enumeration(inst):
    assert front_key(exact_pareto(inst)) == front_key(reference_exact_pareto(inst))


def count_search(monkeypatch, oracle, inst) -> tuple[list, int, int, int]:
    """The front, the search nodes (`extend` frames entered), and the archive's
    offers and accepted offers."""
    nodes = offers = accepted = 0
    update = ParetoArchive.update

    def counting(self, vector, witness):
        nonlocal offers, accepted
        offers += 1
        kept = update(self, vector, witness)
        accepted += kept
        return kept

    def profile(frame, event, arg):
        nonlocal nodes
        if event == "call" and frame.f_code.co_name == "extend":
            nodes += 1

    previous = sys.getprofile()
    with monkeypatch.context() as patched:
        patched.setattr(ParetoArchive, "update", counting)
        sys.setprofile(profile)
        try:
            front = oracle(inst)
        finally:
            sys.setprofile(previous)
    return front, nodes, offers, accepted


def test_search_counts_on_the_benchmark_instances(monkeypatch):
    # the oracle-n10 workload's instances at its default seed 7; a prune
    # change that moves these counts must say why
    counts = [count_search(monkeypatch, exact_pareto, generate_instance(10, seed))[1:]
              for seed in range(7, 19)]
    # the table settles every leaf, so each offer is accepted; heaviest-first
    # order reaches fewer nodes but finds more intermediate fronts on the way
    assert tuple(map(sum, zip(*counts))) == (3678, 228, 228)


def test_attribute_bound_prunes_when_every_attribute_is_distinct(monkeypatch):
    inst = Instance(capacity=100, items=tuple(Item(1, label) for label in "ABCDEFGH"))
    front, nodes, offers, _ = count_search(monkeypatch, exact_pareto, inst)
    reference, _, reference_offers, _ = count_search(monkeypatch, reference_exact_pareto, inst)
    assert [v for v, _ in front] == [ObjectiveVector(k, Fraction(8, k)) for k in range(1, 9)]
    assert front_key(front) == front_key(reference)
    # every (k, 8 / k) is efficient, so only the unseen-attribute term prunes
    # nodes, and only the eight efficient partitions are offered; the
    # reference offers all Bell(8) partitions
    assert (nodes, offers, reference_offers) == (114, 8, 4140)


def test_attribute_bound_keeps_ten_distinct_attributes_small(monkeypatch):
    inst = Instance(capacity=100, items=tuple(Item(1, label) for label in "ABCDEFGHIJ"))
    front, nodes, offers, _ = count_search(monkeypatch, exact_pareto, inst)
    assert [v for v, _ in front] == [ObjectiveVector(k, Fraction(10, k)) for k in range(1, 11)]
    check_front(front)
    assert (nodes, offers) == (212, 10)
    assert offers < 100  # against Bell(10) = 115,975 partitions


def test_prune_fires_at_once_on_one_attribute(monkeypatch):
    inst = Instance(capacity=100, items=tuple(Item(w, "A") for w in (5, 9, 12, 7, 20, 3, 11, 8)))
    front, nodes, offers, _ = count_search(monkeypatch, exact_pareto, inst)
    reference, _, reference_offers, _ = count_search(monkeypatch, reference_exact_pareto, inst)
    assert [v for v, _ in front] == [ObjectiveVector(1, Fraction(1))]
    assert front_key(front) == front_key(reference)
    # the first partition is the single bin, which weakly dominates every
    # completion: the search only reaches its sibling leaf (the last item on
    # its own), and the table settles that leaf without an offer
    assert (nodes, offers, reference_offers) == (16, 1, 4140)


def test_cap_is_enforced():
    rng = random.Random(1)
    with pytest.raises(ValueError, match="21 items.*capped at 20"):
        exact_pareto(random_instance(rng, n=21))
    assert exact_pareto(random_instance(rng, n=20))
