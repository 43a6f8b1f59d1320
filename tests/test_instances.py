from __future__ import annotations

import sys

import pytest
from hypothesis import HealthCheck, example, given, settings
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


@pytest.mark.parametrize("bad", [True, 1.5, "x", None])
def test_generate_rejects_non_integer_arguments(bad):
    # True would reproduce seed 1's instance and None an unseeded one
    with pytest.raises(ValueError, match=f"rng_seed must be an int >= 0, got {bad!r}"):
        generate_instance(10, rng_seed=bad)
    with pytest.raises(ValueError, match=f"n must be an int, got {bad!r}"):
        generate_instance(bad, rng_seed=0)


def test_generate_rejects_a_negative_seed():
    # random.Random seeds from abs(seed), so -7 would repeat seed 7's instance
    with pytest.raises(ValueError, match="rng_seed must be an int >= 0, got -7"):
        generate_instance(20, rng_seed=-7)


def test_attribute_frequencies_are_balanced():
    # chi-square over 10_000 items, df=4; 9.488 is the 5% critical value
    inst = generate_instance(10_000, rng_seed=1)
    expected = inst.n / len(ATTRIBUTE_LABELS)
    counts = {label: 0 for label in ATTRIBUTE_LABELS}
    for item in inst.items:
        counts[item.attribute] += 1
    chi_square = sum((count - expected) ** 2 / expected for count in counts.values())
    assert chi_square < 9.488


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
@example(inst=generate_instance(100, rng_seed=42))
def test_roundtrip_is_identity_for_any_writable_instance(tmp_path, inst):
    path = tmp_path / "instance.txt"
    write_instance(inst, path)
    assert read_instance(path) == inst


# near-miss files from the format's own characters, arbitrary text, and
# arbitrary bytes, which are mostly not UTF-8
FILE_BYTES = st.one_of(
    st.text(st.sampled_from("0123456789 -+\t\n\rAB"), max_size=60).map(str.encode),
    st.text(st.characters(exclude_categories=("Cs",)), max_size=60).map(str.encode),
    st.binary(max_size=60),
)


@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=FILE_BYTES)
def test_read_raises_only_format_errors_on_any_text(tmp_path, raw):
    path = tmp_path / "any.txt"
    path.write_bytes(raw)
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


def test_write_rejects_a_capacity_too_long_to_read(tmp_path):
    path = tmp_path / "wide.txt"
    widest = Instance(capacity=10**50 - 1, items=(Item(1, "A"),))
    write_instance(widest, path)
    assert read_instance(path) == widest
    with pytest.raises(ValueError, match="more than 50 digits"):
        write_instance(Instance(capacity=10**50, items=(Item(1, "A"),)), path)


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
    for weight in ("ten", "1_0", "٣"):  # int() alone reads 1_0 and Arabic-Indic 3
        message = parse_error(tmp_path, f"1 100\n{weight} A\n")
        assert message == f"line 2: non-integer weight {weight!r}"


def test_read_reports_bad_header(tmp_path):
    assert "line 1" in parse_error(tmp_path, "just-one-token\n")
    # both fields are read before either is range-checked
    for header in ("x 100", "2 1_000", "٣ 100", "0 x", "x 0"):
        message = parse_error(tmp_path, f"{header}\n10 A\n20 B\n")
        assert message == f"line 1: non-integer header field in {header!r}"
    assert "line 1" in parse_error(tmp_path, "")


@pytest.mark.parametrize(
    ("text", "expected"),
    [
        ("0 100\n", "line 1: item count must be >= 1, got 0"),
        ("1 0\n1 A\n", "line 1: capacity must be >= 1, got 0"),
        ("1 100\n0 A\n", "line 2: weight must be >= 1, got 0"),
    ],
)
def test_read_reports_nonpositive_header_and_weight(tmp_path, text, expected):
    assert parse_error(tmp_path, text) == expected


@pytest.mark.parametrize(
    ("raw", "line_number"),
    [(b"2 100\n10 \xff\n20 B\n", 2), (b"\xff", 1), (b"2 100\r10 A\r\n20 \xff\r", 3),
     (b"\xef\xbb\xbf2 100\n10 \xff\n20 B\n", 2)],
)
def test_read_reports_the_line_of_the_first_non_utf8_byte(tmp_path, raw, line_number):
    path = tmp_path / "latin1.txt"
    path.write_bytes(raw)
    with pytest.raises(InstanceFormatError, match=rf"^line {line_number}: not valid UTF-8$"):
        read_instance(path)


def test_read_ignores_a_leading_byte_order_mark(tmp_path):
    # as Windows Notepad saves UTF-8
    text = b"2 100\n10 A\n20 B\n"
    (tmp_path / "plain.txt").write_bytes(text)
    (tmp_path / "bom.txt").write_bytes(b"\xef\xbb\xbf" + text)
    assert read_instance(tmp_path / "bom.txt") == read_instance(tmp_path / "plain.txt")


def test_read_reports_trailing_garbage(tmp_path):
    message = parse_error(tmp_path, "1 100\n10 A\nleftover\n")
    assert message.startswith("line 3") and "trailing" in message


def test_read_reports_malformed_item_line(tmp_path):
    message = parse_error(tmp_path, "1 100\n10\n")
    assert message.startswith("line 2") and "weight attribute" in message


# 0 lifts int()'s digit limit and 640 is its smallest setting
@pytest.fixture(params=["default", 0, 640])
def int_max_str_digits(request):
    if request.param == "default":
        yield
        return
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int() digit limit")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(request.param)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


@pytest.mark.usefixtures("int_max_str_digits")
def test_read_reports_over_long_integers_as_too_long(tmp_path):
    long = "9" * 5000
    assert (parse_error(tmp_path, f"1 {long}\n10 A\n")
            == "line 1: header field too long (5000 characters, at most 50)")
    assert (parse_error(tmp_path, f"1 100\n{long} A\n")
            == "line 2: weight too long (5000 characters, at most 50)")
    # the cap counts the sign
    assert (parse_error(tmp_path, f"1 +{'9' * 50}\n10 A\n")
            == "line 1: header field too long (51 characters, at most 50)")


def test_read_quotes_a_bounded_excerpt_of_long_lines(tmp_path):
    long = "x" * 5000
    excerpt = f"{'x' * 40!r}... (5000 characters)"
    for text, expected in [
        (f"1 100\n10 A\n{long}\n", f"line 3: unexpected trailing content {excerpt}"),
        (f"1 100\n{long}\n", f"line 2: expected 'weight attribute', got {excerpt}"),
        (f"1 100\n{long} A\n", f"line 2: non-integer weight {excerpt}"),
        (f"1 100\n10 A\n{'x' * 40}\n", f"line 3: unexpected trailing content {'x' * 40!r}"),
    ]:
        message = parse_error(tmp_path, text)
        assert message == expected and len(message) < 200


def test_read_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        read_instance(tmp_path / "nope.txt")
