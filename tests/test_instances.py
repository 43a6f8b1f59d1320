from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bibinpack.instances import (
    ATTRIBUTE_LABELS,
    BENCHMARK_CAPACITY,
    InstanceFormatError,
    generate_instance,
    read_instance,
    write_instance,
)
from bibinpack.model import Instance, Item


def test_generate_hundred_items():
    inst = generate_instance(100, rng_seed=7)
    assert inst.n == 100
    assert inst.capacity == BENCHMARK_CAPACITY
    assert inst.total_weight == 20_000
    assert inst.lower_bound == 20


def test_generate_single_group():
    inst = generate_instance(5, rng_seed=3)
    assert inst.n == 5
    assert sum(item.weight for item in inst.items) == BENCHMARK_CAPACITY


def test_generate_groups_fill_a_bin_exactly():
    inst = generate_instance(50, rng_seed=11)
    for start in range(0, 50, 5):
        group = inst.items[start : start + 5]
        assert sum(item.weight for item in group) == BENCHMARK_CAPACITY


def test_generate_weight_bounds():
    # four distinct interior cuts leave each of the five parts in [1, 996]
    for seed in range(20):
        inst = generate_instance(25, rng_seed=seed)
        assert all(1 <= item.weight <= BENCHMARK_CAPACITY - 4 for item in inst.items)
        assert all(item.attribute in ATTRIBUTE_LABELS for item in inst.items)


def test_generate_is_deterministic_per_seed():
    assert generate_instance(30, rng_seed=5) == generate_instance(30, rng_seed=5)
    assert generate_instance(30, rng_seed=5) != generate_instance(30, rng_seed=6)


@pytest.mark.parametrize("bad_n", [0, 3, 7, 101, -5])
def test_generate_rejects_bad_sizes(bad_n):
    with pytest.raises(ValueError, match="multiple of 5"):
        generate_instance(bad_n, rng_seed=0)


def test_attribute_frequencies_are_balanced():
    # chi-square over 10_000 items, df=4; 9.488 is the 5% critical value
    inst = generate_instance(10_000, rng_seed=1)
    expected = inst.n / len(ATTRIBUTE_LABELS)
    counts = {label: 0 for label in ATTRIBUTE_LABELS}
    for item in inst.items:
        counts[item.attribute] += 1
    chi_square = sum((count - expected) ** 2 / expected for count in counts.values())
    assert chi_square < 9.488


def test_roundtrip_identity(tmp_path):
    inst = generate_instance(100, rng_seed=42)
    path = tmp_path / "instance.txt"
    write_instance(inst, path)
    assert read_instance(path) == inst


# attributes are whitespace-free tokens; surrogates cannot be encoded as UTF-8
TOKENS = st.text(
    st.characters(exclude_categories=("Cs",)).filter(lambda ch: not ch.isspace()), min_size=1
)


@st.composite
def instances(draw) -> Instance:
    capacity = draw(st.integers(1, 10**6))
    attributes = draw(st.lists(TOKENS, min_size=1, max_size=30))
    weights = draw(st.lists(st.integers(1, capacity), min_size=len(attributes),
                            max_size=len(attributes)))
    items = (Item(w, a) for w, a in zip(weights, attributes))
    return Instance(capacity=capacity, items=tuple(items))


# tmp_path is shared by all examples; each one overwrites the same file
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(inst=instances())
def test_roundtrip_is_identity_for_any_writable_instance(tmp_path, inst):
    path = tmp_path / "instance.txt"
    write_instance(inst, path)
    assert read_instance(path) == inst


# near-miss files from the format's own characters, plus arbitrary text
FILE_TEXT = st.one_of(
    st.text(st.sampled_from("0123456789 -+\t\n\rAB"), max_size=60),
    st.text(st.characters(exclude_categories=("Cs",)), max_size=60),
)


@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=FILE_TEXT)
def test_read_raises_only_format_errors_on_any_text(tmp_path, text):
    path = tmp_path / "any.txt"
    path.write_text(text, encoding="utf-8")
    try:
        inst = read_instance(path)
    except InstanceFormatError:
        return
    assert 1 <= inst.n and all(item.weight <= inst.capacity for item in inst.items)


def test_file_format_is_exact(tmp_path):
    inst = Instance(capacity=10, items=(Item(3, "A"), Item(7, "B")))
    path = tmp_path / "tiny.txt"
    write_instance(inst, path)
    assert path.read_text(encoding="utf-8") == "2 10\n3 A\n7 B\n"


def test_write_rejects_unwritable_attribute(tmp_path):
    inst = Instance(capacity=10, items=(Item(3, "two words"),))
    with pytest.raises(ValueError, match="whitespace"):
        write_instance(inst, tmp_path / "bad.txt")


def parse_error(tmp_path, text: str) -> str:
    path = tmp_path / "broken.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(InstanceFormatError) as excinfo:
        read_instance(path)
    return str(excinfo.value)


def test_read_reports_missing_item_lines(tmp_path):
    message = parse_error(tmp_path, "3 100\n10 A\n20 B\n")
    assert "declares 3 items" in message and "2 item lines" in message


def test_read_reports_overweight_item(tmp_path):
    message = parse_error(tmp_path, "1 1000\n1001 A\n")
    assert message.startswith("line 2") and "exceeds capacity" in message


def test_read_reports_non_integer_weight(tmp_path):
    message = parse_error(tmp_path, "1 100\nten A\n")
    assert message.startswith("line 2") and "non-integer weight" in message


def test_read_reports_bad_header(tmp_path):
    assert "line 1" in parse_error(tmp_path, "just-one-token\n")
    assert "line 1" in parse_error(tmp_path, "x 100\n")
    assert "line 1" in parse_error(tmp_path, "")


def test_read_reports_trailing_garbage(tmp_path):
    message = parse_error(tmp_path, "1 100\n10 A\nleftover\n")
    assert message.startswith("line 3") and "trailing" in message


def test_read_reports_malformed_item_line(tmp_path):
    message = parse_error(tmp_path, "1 100\n10\n")
    assert message.startswith("line 2") and "weight attribute" in message


def test_read_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        read_instance(tmp_path / "nope.txt")
