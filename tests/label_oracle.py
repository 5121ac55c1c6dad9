"""Recursive label enumerator kept as a test oracle for ``label_table`` and
``enumerate_by_size``, and the label guard that bounded labels times the
block's width, kept as an oracle for ``label_table_fits``.

It builds the doubled parts of every label (``oracle_rows``), one size
layer and one kind at a time, and sorts them by (size, doubled parts): the
reference order the array enumerator must reproduce row for row.
``oracle_labels`` wraps each row in a validated ``Weight``.
``oracle_fits_by_width`` is the guard as it was while it also bounded the
parts of a block: at most min(MAX_LABELS, MAX_LABEL_ENTRIES // width)
labels.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from cutofflab.partitions import (MAX_LABEL_ENTRIES, MAX_LABELS, IndexingSetKind,
                                  Weight, WeightKind)


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


def oracle_rows(indexing: IndexingSetKind,
                max_size: Fraction | int) -> list[tuple[int, ...]]:
    """The doubled parts of every label of the kind with |lambda| <= max_size,
    zero-padded, in reference order."""
    max_size = Fraction(max_size)
    if max_size < 0:
        raise ValueError("max_size must be >= 0")
    kind, length = indexing.kind, indexing.length
    cap = int(max_size)
    out: list[tuple[int, ...]] = []

    def add(parts2: Iterable[int]) -> None:
        out.append(tuple(parts2))

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
    out.sort(key=lambda row: (sum(row), row))
    return out


def oracle_labels(indexing: IndexingSetKind,
                  max_size: Fraction | int) -> list[Weight]:
    """Every weight of the kind with |lambda| <= max_size, in reference
    order, each one validated."""
    return [Weight(row, indexing.kind) for row in oracle_rows(indexing, max_size)]


def oracle_block_width(indexing: IndexingSetKind, max_size: Fraction | int) -> int:
    """The coordinates the labels of |lambda| <= max_size fill: every one
    once there are half labels (|lambda| >= length / 2 on halfY) or odd ones
    (|lambda| >= length on evenOrOddY), else the most non-zero parts a label
    of the kind can have."""
    kind, length, cap = indexing.kind, indexing.length, int(max_size)
    if kind is WeightKind.halfY and max_size >= Fraction(length, 2):
        return length
    if kind is WeightKind.evenOrOddY and cap >= length:
        return length
    if kind in (WeightKind.Y, WeightKind.halfY):
        return min(length, cap)
    if kind is WeightKind.doubledY:
        return 2 * min(length // 2, cap // 2)
    return min(length, cap // 2)


def oracle_fits_by_width(indexing: IndexingSetKind, max_size: Fraction | int,
                         counts: list[int]) -> bool:
    """The label guard that bounded labels times the block's width: the
    partitions of size <= int(max_size) with at most ``indexing.length``
    parts (``counts`` by size, at least int(max_size) + 1 of them), with
    halfY's half block of size <= max_size - length / 2, at most
    min(MAX_LABELS, MAX_LABEL_ENTRIES // width)."""
    max_size = Fraction(max_size)
    total = sum(counts[:int(max_size) + 1])
    budget = max_size - Fraction(indexing.length, 2)
    if indexing.kind is WeightKind.halfY and budget >= 0:
        total += sum(counts[:int(budget) + 1])
    width = oracle_block_width(indexing, max_size)
    return total <= min(MAX_LABELS, MAX_LABEL_ENTRIES // max(width, 1))
