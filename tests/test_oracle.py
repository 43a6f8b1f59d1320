from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bibinpack.archive import ParetoArchive
from bibinpack.model import Instance, Item, ObjectiveVector, evaluate, validate_solution
from bibinpack.oracle import exact_pareto

from helpers import brute_force_front, random_instance, reference_exact_pareto


def test_items_that_cannot_share_a_bin():
    inst = Instance(capacity=1000, items=(Item(600, "A"), Item(500, "A")))
    assert [v for v, _ in exact_pareto(inst)] == [ObjectiveVector(2, Fraction(1))]


def test_two_items_two_attributes():
    inst = Instance(capacity=1000, items=(Item(400, "A"), Item(500, "B")))
    assert [v for v, _ in exact_pareto(inst)] == [
        ObjectiveVector(1, Fraction(2)),
        ObjectiveVector(2, Fraction(1)),
    ]


def test_identical_attributes_collapse_to_one_vector():
    rng = random.Random(8)
    for _ in range(10):
        inst = random_instance(rng, n=rng.randint(2, 7), attribute_pool="A")
        front = exact_pareto(inst)
        assert len(front) == 1
        vector, witness = front[0]
        assert vector.z2 == Fraction(1)
        validate_solution(witness)


def test_front_is_antichain_with_valid_witnesses():
    rng = random.Random(77)
    for _ in range(10):
        inst = random_instance(rng, n=rng.randint(3, 8))
        front = exact_pareto(inst)
        vectors = [v for v, _ in front]
        assert brute_force_front(vectors) == set(vectors)
        for vector, witness in front:
            validate_solution(witness)
            assert evaluate(witness) == vector


def labeled_enumeration_front(inst: Instance) -> set[ObjectiveVector]:
    """Second implementation: enumerate labeled bin assignments, keep one
    canonical representative per partition, then filter to the efficient set."""
    n = inst.n
    feasible_vectors: list[ObjectiveVector] = []
    for assignment in product(range(n), repeat=n):
        highest = -1
        canonical = True
        for label in assignment:
            if label > highest + 1:
                canonical = False
                break
            highest = max(highest, label)
        if not canonical:
            continue
        loads = [0] * (highest + 1)
        mixes = [set() for _ in range(highest + 1)]
        for item_id, label in enumerate(assignment):
            loads[label] += inst.items[item_id].weight
            mixes[label].add(inst.items[item_id].attribute)
        if any(load > inst.capacity for load in loads):
            continue
        used = highest + 1
        feasible_vectors.append(
            ObjectiveVector(used, Fraction(sum(len(m) for m in mixes), used))
        )
    return brute_force_front(feasible_vectors)


@st.composite
def small_instances(draw) -> Instance:
    specs = draw(st.lists(st.tuples(st.integers(10, 60), st.sampled_from("ABC")),
                          min_size=1, max_size=6))
    items = tuple(Item(weight, attribute) for weight, attribute in specs)
    return Instance(capacity=100, items=items)


@settings(deadline=None, max_examples=60)
@example(random_instance(random.Random(2718), n=7))
@given(small_instances())
def test_matches_labeled_assignment_enumeration(inst):
    front = exact_pareto(inst)
    assert {v for v, _ in front} == labeled_enumeration_front(inst)
    for vector, witness in front:
        validate_solution(witness)
        assert evaluate(witness) == vector


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
# an unseen-attribute count one too high, or one that counts held attributes,
# prunes a partition that is efficient here
@example(Instance(capacity=100, items=tuple(
    Item(w, a) for w, a in ((1, "A"), (1, "B"), (84, "A"), (15, "B"), (16, "A")))))
@given(pruning_instances())
def test_pruned_oracle_matches_plain_enumeration(inst):
    assert front_key(exact_pareto(inst)) == front_key(reference_exact_pareto(inst))


def count_offers(monkeypatch, oracle, inst) -> tuple[list, int]:
    offers = 0
    update = ParetoArchive.update

    def counting(self, vector, witness):
        nonlocal offers
        offers += 1
        return update(self, vector, witness)

    with monkeypatch.context() as patched:
        patched.setattr(ParetoArchive, "update", counting)
        front = oracle(inst)
    return front, offers


def test_attribute_bound_prunes_when_every_attribute_is_distinct(monkeypatch):
    inst = Instance(capacity=100, items=tuple(Item(1, label) for label in "ABCDEFGH"))
    front, offers = count_offers(monkeypatch, exact_pareto, inst)
    reference, reference_offers = count_offers(monkeypatch, reference_exact_pareto, inst)
    assert [v for v, _ in front] == [ObjectiveVector(k, Fraction(8, k)) for k in range(1, 9)]
    assert front_key(front) == front_key(reference)
    # every (k, 8 / k) is efficient, so only the unseen-attribute term prunes;
    # the reference offers all Bell(8) partitions
    assert (offers, reference_offers) == (35, 4140)


def test_attribute_bound_keeps_ten_distinct_attributes_small(monkeypatch):
    inst = Instance(capacity=100, items=tuple(Item(1, label) for label in "ABCDEFGHIJ"))
    front, offers = count_offers(monkeypatch, exact_pareto, inst)
    assert [v for v, _ in front] == [ObjectiveVector(k, Fraction(10, k)) for k in range(1, 11)]
    for vector, witness in front:
        validate_solution(witness)
        assert evaluate(witness) == vector
    assert offers < 100  # against Bell(10) = 115,975 partitions


def test_prune_fires_at_once_on_one_attribute(monkeypatch):
    inst = Instance(capacity=100, items=tuple(Item(w, "A") for w in (5, 9, 12, 7, 20, 3, 11, 8)))
    front, offers = count_offers(monkeypatch, exact_pareto, inst)
    reference, reference_offers = count_offers(monkeypatch, reference_exact_pareto, inst)
    assert [v for v, _ in front] == [ObjectiveVector(1, Fraction(1))]
    assert front_key(front) == front_key(reference)
    # the first partition is the single bin, which weakly dominates every completion:
    # only its sibling leaf (the last item on its own) is still offered
    assert (offers, reference_offers) == (2, 4140)


def test_every_random_packing_is_weakly_dominated():
    rng = random.Random(55)
    inst = random_instance(rng, n=6, capacity=120)
    front = {v for v, _ in exact_pareto(inst)}
    for _ in range(300):
        # random feasible packing: first fit over a shuffled id list
        order = list(range(inst.n))
        rng.shuffle(order)
        loads: list[int] = []
        mixes: list[set[str]] = []
        for item_id in order:
            item = inst.items[item_id]
            spots = [g for g in range(len(loads)) if loads[g] + item.weight <= inst.capacity]
            if spots and rng.random() < 0.8:
                g = rng.choice(spots)
                loads[g] += item.weight
                mixes[g].add(item.attribute)
            else:
                loads.append(item.weight)
                mixes.append({item.attribute})
        used = len(loads)
        vector = ObjectiveVector(used, Fraction(sum(len(m) for m in mixes), used))
        assert any(v == vector or (v.z1 <= vector.z1 and v.z2 <= vector.z2) for v in front)


def test_cap_is_enforced():
    rng = random.Random(1)
    with pytest.raises(ValueError, match="11 items.*capped at 10"):
        exact_pareto(random_instance(rng, n=11))
    assert exact_pareto(random_instance(rng, n=10))
