"""Benchmark instance generation and the plain-text instance file format."""

from __future__ import annotations

import random
from pathlib import Path

from .model import Instance, Item, require_int

BENCHMARK_CAPACITY = 1000
GROUP_SIZE = 5
ATTRIBUTE_LABELS = ("A", "B", "C", "D", "E")
# an integer token longer than this is refused before int() reads it, so the
# rule does not depend on int()'s own digit limit (at least 640), and a message
# that prints two integers stays short
MAX_INTEGER_CHARS = 50
# a message quotes at most this many characters of the file's text
EXCERPT_CHARS = 40


class InstanceFormatError(ValueError):
    """An instance file could not be parsed; the message names the line."""


def _integer(token: str, line_number: int, field: str, context: str | None = None) -> int:
    """Read an optional sign and ASCII digits, or raise InstanceFormatError
    naming the line. int() alone also reads "1_000" and non-ASCII digits such
    as "٣"; on ASCII text without "_" it reads nothing else, as split() has
    removed the whitespace it would skip. An integer longer than
    MAX_INTEGER_CHARS, its sign included, is called too long; anything else
    is quoted by context, or else by an excerpt of the token.
    """
    if token.isascii() and "_" not in token:
        if len(token) <= MAX_INTEGER_CHARS:
            try:
                return int(token)
            except ValueError:
                pass
        elif (token[1:] if token[0] in "+-" else token).isdigit():
            raise InstanceFormatError(f"line {line_number}: {field} too long "
                                      f"({len(token)} characters, at most {MAX_INTEGER_CHARS})")
    raise InstanceFormatError(
        f"line {line_number}: non-integer {field} {context or _excerpt(token)}")


def _excerpt(text: str) -> str:
    """repr() of the file's text, cut to EXCERPT_CHARS characters when longer."""
    if len(text) <= EXCERPT_CHARS:
        return repr(text)
    return f"{text[:EXCERPT_CHARS]!r}... ({len(text)} characters)"


def generate_instance(n: int, rng_seed: int) -> Instance:
    """Random benchmark instance: n items in groups of five whose weights sum
    to the bin capacity, attributes drawn uniformly from five labels.

    Each group is produced by cutting the capacity at four distinct points, so
    weights are positive integers and every group fills one bin exactly. A
    packing with n/5 bins therefore always exists, matching the trivial
    lower bound.
    """
    # None would seed from OS entropy, a bool or str would seed silently, and
    # random.Random seeds from abs(rng_seed), so -7 would repeat seed 7's instance
    require_int("n", n)
    require_int("rng_seed", rng_seed, 0)
    if n < GROUP_SIZE or n % GROUP_SIZE:
        raise ValueError(f"n must be a positive multiple of {GROUP_SIZE}, got {n}")
    rng = random.Random(rng_seed)
    items: list[Item] = []
    for _ in range(n // GROUP_SIZE):
        cuts = sorted(rng.sample(range(1, BENCHMARK_CAPACITY), GROUP_SIZE - 1))
        edges = [0, *cuts, BENCHMARK_CAPACITY]
        for lower, upper in zip(edges, edges[1:]):
            items.append(Item(weight=upper - lower, attribute=rng.choice(ATTRIBUTE_LABELS)))
    return Instance(capacity=BENCHMARK_CAPACITY, items=tuple(items))


def write_instance(instance: Instance, path: str | Path) -> None:
    """Write the plain-text format: "n capacity" header, then one
    "weight attribute" line per item."""
    # weights are at most the capacity, so the capacity is the longest integer
    if instance.capacity >= 10**MAX_INTEGER_CHARS:
        raise ValueError(f"capacity has more than {MAX_INTEGER_CHARS} digits, too long to write")
    lines = [f"{instance.n} {instance.capacity}"]
    for position, item in enumerate(instance.items):
        if not item.attribute or any(ch.isspace() for ch in item.attribute):
            raise ValueError(
                f"item {position}: attribute {item.attribute!r} cannot be written, "
                "tokens must be non-empty and whitespace-free"
            )
        lines.append(f"{item.weight} {item.attribute}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_instance(path: str | Path) -> Instance:
    """Parse an instance file; malformed input raises InstanceFormatError
    naming the offending line."""
    try:
        lines = Path(path).read_text(encoding="utf-8-sig").splitlines()
    except UnicodeDecodeError as exc:
        # exc.object omits any BOM; number lines as splitlines does, so "\r" counts too
        line_number = len((exc.object[: exc.start].decode("utf-8") + "x").splitlines())
        raise InstanceFormatError(f"line {line_number}: not valid UTF-8") from None
    if not lines:
        raise InstanceFormatError("line 1: empty file, expected 'n capacity' header")
    header = lines[0].split()
    if len(header) != 2:
        raise InstanceFormatError(f"line 1: expected 'n capacity', got {_excerpt(lines[0])}")
    n, capacity = (_integer(token, 1, "header field", f"in {_excerpt(lines[0])}")
                   for token in header)
    if n < 1:
        raise InstanceFormatError(f"line 1: item count must be >= 1, got {n}")
    if capacity < 1:
        raise InstanceFormatError(f"line 1: capacity must be >= 1, got {capacity}")
    body = lines[1:]
    if len(body) < n:
        raise InstanceFormatError(
            f"line {len(lines) + 1}: header declares {n} items "
            f"but only {len(body)} item lines are present"
        )
    items: list[Item] = []
    for offset in range(n):
        line_number = offset + 2
        parts = body[offset].split()
        if len(parts) != 2:
            raise InstanceFormatError(
                f"line {line_number}: expected 'weight attribute', got {_excerpt(body[offset])}"
            )
        weight = _integer(parts[0], line_number, "weight")
        if weight < 1:
            raise InstanceFormatError(f"line {line_number}: weight must be >= 1, got {weight}")
        if weight > capacity:
            raise InstanceFormatError(
                f"line {line_number}: weight {weight} exceeds capacity {capacity}"
            )
        items.append(Item(weight=weight, attribute=parts[1]))
    for line_number, line in enumerate(body[n:], start=n + 2):
        if line.strip():
            raise InstanceFormatError(
                f"line {line_number}: unexpected trailing content {_excerpt(line)}"
            )
    return Instance(capacity=capacity, items=tuple(items))
