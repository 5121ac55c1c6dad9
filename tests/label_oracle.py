"""Recursive label enumerator kept as a test oracle for ``label_rows`` and
``enumerate_by_size``.

It builds one validated ``Weight`` per label, one size layer and one kind
at a time, and sorts by (size, doubled parts): the reference order
the array enumerator must reproduce row for row.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Sequence

from cutofflab.partitions import IndexingSetKind, Weight, WeightKind


def int_partitions(total: int, max_len: int,
                   max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """Non-increasing positive tuples summing to ``total``, <= max_len parts."""
    if total == 0:
        yield ()
        return
    if max_len == 0:
        return
    first_cap = total if max_part is None else min(total, max_part)
    for first in range(first_cap, 0, -1):
        for rest in int_partitions(total - first, max_len - 1, first):
            yield (first,) + rest


def _pad(p: Sequence[int], length: int) -> tuple[int, ...]:
    return tuple(p) + (0,) * (length - len(p))


def oracle_labels(indexing: IndexingSetKind,
                  max_size: Fraction | int) -> list[Weight]:
    """Every weight of the kind with |lambda| <= max_size, in reference order."""
    max_size = Fraction(max_size)
    if max_size < 0:
        raise ValueError("max_size must be >= 0")
    kind, length = indexing.kind, indexing.length
    cap = int(max_size)
    out: list[Weight] = []

    def add(parts2: Sequence[int]) -> None:
        out.append(Weight(tuple(parts2), kind))

    if kind is WeightKind.Y:
        for s in range(cap + 1):
            for p in int_partitions(s, length):
                add(2 * v for v in _pad(p, length))
    elif kind is WeightKind.evenY:
        for s in range(cap // 2 + 1):
            for p in int_partitions(s, length):
                add(4 * v for v in _pad(p, length))
    elif kind is WeightKind.doubledY:
        pairs = length // 2
        for s in range(cap // 2 + 1):
            for p in int_partitions(s, pairs):
                doubled = []
                for v in _pad(p, pairs):
                    doubled += [2 * v, 2 * v]
                add(_pad(doubled, length))
    elif kind is WeightKind.evenOrOddY:
        for s in range(cap // 2 + 1):
            for p in int_partitions(s, length):
                add(4 * v for v in _pad(p, length))
        if length <= cap:
            for s in range((cap - length) // 2 + 1):
                for p in int_partitions(s, length):
                    add(4 * v + 2 for v in _pad(p, length))
    elif kind is WeightKind.halfY:
        for s in range(cap + 1):
            for p in int_partitions(s, length):
                add(2 * v for v in _pad(p, length))
        half_budget = max_size - Fraction(length, 2)
        if half_budget >= 0:
            for s in range(int(half_budget) + 1):
                for p in int_partitions(s, length):
                    add(2 * v + 1 for v in _pad(p, length))
    else:
        raise NotImplementedError(kind)
    out.sort(key=lambda w: (w.size, w.parts2))
    return out
