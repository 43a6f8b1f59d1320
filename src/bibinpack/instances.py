"""Benchmark instance generation and the plain-text instance file format."""

from __future__ import annotations

import random
from pathlib import Path

from .model import Instance, Item

BENCHMARK_CAPACITY = 1000
GROUP_SIZE = 5
ATTRIBUTE_LABELS = ("A", "B", "C", "D", "E")


class InstanceFormatError(ValueError):
    """An instance file could not be parsed; the message names the line."""


def generate_instance(n: int, rng_seed: int) -> Instance:
    """Random benchmark instance: n items in groups of five whose weights sum
    to the bin capacity, attributes drawn uniformly from five labels.

    Each group is produced by cutting the capacity at four distinct points, so
    weights are positive integers and every group fills one bin exactly. A
    packing with n/5 bins therefore always exists, matching the trivial
    lower bound.
    """
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
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise InstanceFormatError("line 1: empty file, expected 'n capacity' header")
    header = lines[0].split()
    if len(header) != 2:
        raise InstanceFormatError(f"line 1: expected 'n capacity', got {lines[0]!r}")
    try:
        n, capacity = int(header[0]), int(header[1])
    except ValueError:
        raise InstanceFormatError(f"line 1: non-integer header field in {lines[0]!r}") from None
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
                f"line {line_number}: expected 'weight attribute', got {body[offset]!r}"
            )
        try:
            weight = int(parts[0])
        except ValueError:
            raise InstanceFormatError(
                f"line {line_number}: non-integer weight {parts[0]!r}"
            ) from None
        if weight < 1:
            raise InstanceFormatError(f"line {line_number}: weight must be >= 1, got {weight}")
        if weight > capacity:
            raise InstanceFormatError(
                f"line {line_number}: weight {weight} exceeds capacity {capacity}"
            )
        items.append(Item(weight=weight, attribute=parts[1]))
    for line_number, line in enumerate(body[n:], start=n + 2):
        if line.strip():
            raise InstanceFormatError(f"line {line_number}: unexpected trailing content {line!r}")
    return Instance(capacity=capacity, items=tuple(items))
