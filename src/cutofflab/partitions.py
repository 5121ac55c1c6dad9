"""Weight labels for the classical families: partitions, half-partitions and
their even, doubled and parity-constrained variants, enumerated by size as
int64 label arrays with a ``Weight`` view, and bounded-length partition
counts."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import TooLarge

# Largest label table built at once: the partitions of size <= c with at
# most L parts, for size cap c and length L, at most MAX_LABELS of them and
# MAX_LABEL_ENTRIES parts in all.  Every cap up to 40 passes at every length
# up to 139 (215,308 partitions).
MAX_LABELS = 300_000
MAX_LABEL_ENTRIES = 100 * MAX_LABELS


class WeightKind(enum.Enum):
    """Label families for dominant weights.

    Y            integer partitions
    halfY        integer partitions together with their half-shifts
    evenY        partitions with every part even
    doubledY     partitions whose non-zero parts come in equal consecutive pairs
    evenOrOddY   partitions with all parts of one parity
    """

    Y = "Y"
    halfY = "halfY"
    evenY = "evenY"
    doubledY = "doubledY"
    evenOrOddY = "evenOrOddY"


@dataclass(frozen=True)
class IndexingSetKind:
    """A weight-label family together with the number of coordinates."""

    kind: WeightKind
    length: int

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError("indexing set length must be positive")

    def label(self, head: Sequence[int | Fraction]) -> "Weight":
        """The label of this kind with the given leading parts, zero-padded."""
        return Weight.of(tuple(head) + (0,) * (self.length - len(head)),
                         self.kind)


def _fmt_part(doubled: int) -> str:
    if doubled % 2 == 0:
        return str(doubled // 2)
    return f"{doubled}/2"


@dataclass(frozen=True)
class Weight:
    """A dominant-weight label.

    Parts are stored doubled (value 2*lambda_i) so half-integers stay exact.
    """

    parts2: tuple[int, ...]
    kind: WeightKind = WeightKind.Y

    def __post_init__(self) -> None:
        p = self.parts2
        if not p:
            raise ValueError("weight needs at least one coordinate")
        for a, b in zip(p, p[1:]):
            if a < b:
                raise ValueError(f"parts must be non-increasing: {p}")
        if p[-1] < 0:
            raise ValueError(f"parts must be non-negative: {p}")
        self._check_kind()

    def _check_kind(self) -> None:
        p = self.parts2
        k = self.kind
        if k is not WeightKind.halfY and any(v % 2 for v in p):
            raise ValueError(f"kind {k.value} holds integer parts only: {p}")
        if k is WeightKind.evenY and any(v % 4 for v in p):
            raise ValueError(f"kind evenY needs every part even: {p}")
        if k is WeightKind.doubledY:
            nonzero = [v for v in p if v]
            if len(nonzero) % 2 or any(
                nonzero[2 * i] != nonzero[2 * i + 1] for i in range(len(nonzero) // 2)
            ):
                raise ValueError(f"kind doubledY needs paired non-zero parts: {p}")
        if k is WeightKind.evenOrOddY:
            if any(v % 4 for v in p) and not all(v % 4 == 2 for v in p):
                raise ValueError(f"kind evenOrOddY needs all parts of one parity: {p}")
        if k is WeightKind.halfY and len({v % 2 for v in p}) > 1:
            raise ValueError(f"kind halfY needs all parts of equal parity: {p}")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def of(values: Iterable[int | Fraction], kind: WeightKind = WeightKind.Y) -> "Weight":
        """Build a weight from true (possibly half-integer) part values."""
        doubled = []
        for v in values:
            d = Fraction(v) * 2
            if d.denominator != 1:
                raise ValueError(f"part {v} is not a half-integer")
            doubled.append(int(d))
        return Weight(tuple(doubled), kind)

    @staticmethod
    def zero(length: int, kind: WeightKind = WeightKind.Y) -> "Weight":
        return Weight((0,) * length, kind)

    # -- views -------------------------------------------------------------

    @property
    def length(self) -> int:
        return len(self.parts2)

    @property
    def parts(self) -> tuple[Fraction, ...]:
        """True part values."""
        return tuple(Fraction(v, 2) for v in self.parts2)

    @property
    def size(self) -> Fraction:
        """|lambda| = sum of the true parts."""
        return Fraction(sum(self.parts2), 2)

    @property
    def is_integer(self) -> bool:
        return all(v % 2 == 0 for v in self.parts2)

    @property
    def is_zero(self) -> bool:
        return all(v == 0 for v in self.parts2)

    def __str__(self) -> str:
        return ",".join(_fmt_part(v) for v in self.parts2)


# -- enumeration -----------------------------------------------------------


def partition_counts(max_size: int, max_len: int) -> list[int]:
    """counts[s] = number of partitions of s with at most ``max_len`` parts.

    By conjugation these are the partitions of s into parts <= max_len, and
    a partition of s <= max_size has at most max_size parts: each part value
    up to min(max_len, max_size) is added in turn, counts[s] gaining the
    partitions that use it at least once."""
    counts = [1] + [0] * max_size
    for part in range(1, min(max_len, max_size) + 1):
        for s in range(part, max_size + 1):
            counts[s] += counts[s - part]
    return counts


def _label_limit(length: int) -> int:
    """Most labels of ``length`` parts built at once."""
    return min(MAX_LABELS, MAX_LABEL_ENTRIES // length)


@lru_cache(maxsize=64)
def within_label_limit(max_size: int, length: int) -> bool:
    """Whether at most MAX_LABELS partitions have size <= max_size and at
    most ``length`` parts, and their rows at most MAX_LABEL_ENTRIES parts.

    Every size has a partition, so a cap of the limit or more fails.  With
    two parts allowed, size s has floor(s/2) + 1 partitions of at most two
    parts, and sizes 0..c have floor((c + 2)^2 / 4) >= (c + 1)^2 / 4 of them
    together, so (c + 1)^2 > 4 * limit fails too.  The count left costs
    c * min(c, length) additions: below MAX_LABELS on one part, and with
    c < 2 sqrt(limit) and limit <= MAX_LABEL_ENTRIES / length, below 2.5e5
    on more."""
    limit = _label_limit(length)
    if max_size >= limit:
        return False
    if length >= 2 and (max_size + 1) ** 2 > 4 * limit:
        return False
    return sum(partition_counts(max_size, length)) <= limit


def _half_cap(max_size: Fraction | int, length: int) -> int:
    """Size cap of the half labels: mu + 1/2 has size |mu| + length / 2.
    Halving after the floor keeps an int cap in integer arithmetic."""
    return math.floor(2 * max_size - length) // 2


def label_table_fits(indexing: IndexingSetKind, max_size: Fraction | int) -> bool:
    """Whether ``label_rows`` builds the labels of |lambda| <= max_size: the
    guard of the table and of the size-cap schedule.

    The labels of every kind but halfY are among the partitions of size
    <= int(max_size), which ``within_label_limit`` bounds; halfY adds a half
    block, the partitions of size <= its half cap, counted with them."""
    cap, length = int(max_size), indexing.length
    if not within_label_limit(cap, length):
        return False
    if indexing.kind is not WeightKind.halfY:
        return True
    counts = partition_counts(cap, length)
    half = counts[:max(_half_cap(max_size, length) + 1, 0)]
    return sum(counts) + sum(half) <= _label_limit(length)


def _partition_rows(max_total: int, length: int) -> np.ndarray:
    """Every partition with at most ``length`` parts and size <= max_total,
    one zero-padded int64 row each, in ascending lexicographic order.

    Built column by column: a row whose latest part is v and whose remaining
    budget is r gets one child for each next part 0..min(v, r).  Only the
    first min(length, max_total) columns can hold a non-zero part.
    """
    if max_total < 0:
        return np.zeros((0, length), dtype=np.int64)
    cols = min(length, max_total)
    if cols == 0:
        return np.zeros((1, length), dtype=np.int64)
    values = [np.arange(max_total + 1, dtype=np.int64)]
    parents = []
    budget = max_total - values[0]
    for _ in range(1, cols):
        width = np.minimum(values[-1], budget) + 1
        parent = np.repeat(np.arange(len(width)), width)
        first_child = np.cumsum(width) - width
        value = np.arange(len(parent), dtype=np.int64) - first_child[parent]
        budget = budget[parent] - value
        values.append(value)
        parents.append(parent)
    # one contiguous row per part index; the rows are its transpose
    columns = np.zeros((length, len(values[-1])), dtype=np.int64)
    pick = np.arange(len(values[-1]))
    for col in range(cols - 1, -1, -1):
        columns[col] = values[col][pick]
        if col:
            pick = parents[col - 1][pick]
    return columns.T


def label_rows(indexing: IndexingSetKind, max_size: Fraction | int) -> np.ndarray:
    """Doubled parts (2*lambda_i) of every label of the kind with
    |lambda| <= max_size, one int64 row per label, ordered by size and then
    ascending lexicographically."""
    max_size = Fraction(max_size)
    if max_size < 0:
        raise ValueError("max_size must be >= 0")
    kind, length = indexing.kind, indexing.length
    cap = int(max_size)  # integer component sizes
    if not label_table_fits(indexing, max_size):
        raise TooLarge(f"size cap {cap} gives more than {MAX_LABELS} labels "
                       f"of length {length}, or more than "
                       f"{MAX_LABEL_ENTRIES} parts")
    if kind is WeightKind.Y:
        blocks = [2 * _partition_rows(cap, length)]
    elif kind is WeightKind.halfY:
        # half labels: 1/2 added to every part of an integer label
        blocks = [2 * _partition_rows(cap, length),
                  2 * _partition_rows(_half_cap(max_size, length), length) + 1]
    elif kind is WeightKind.evenY:
        blocks = [4 * _partition_rows(cap // 2, length)]
    elif kind is WeightKind.doubledY:
        pairs = _partition_rows(cap // 2, length // 2)
        rows = np.zeros((len(pairs), length), dtype=np.int64)
        rows[:, :2 * pairs.shape[1]] = 2 * np.repeat(pairs, 2, axis=1)
        blocks = [rows]
    elif kind is WeightKind.evenOrOddY:
        # odd component: every coordinate odd, i.e. 1 added to an all-even label
        blocks = [4 * _partition_rows(cap // 2, length),
                  4 * _partition_rows((cap - length) // 2, length) + 2]
    else:  # pragma: no cover
        raise ValueError(f"unhandled kind {kind}")
    rows = np.concatenate(blocks)
    # Each block is in ascending lexicographic order, and rows of different
    # blocks differ in their first part (parity, or residue mod 4), so a stable
    # sort by (size, first part) leaves every row in (size, lexicographic) order.
    first = rows[:, 0]
    key = rows.sum(axis=1) * (int(first.max(initial=0)) + 1) + first
    return rows[np.argsort(key, kind="stable")]


def enumerate_by_size(indexing: IndexingSetKind, max_size: Fraction | int) -> Iterator[Weight]:
    """Every weight of the kind with |lambda| <= max_size, grouped by increasing
    size: a ``Weight`` view of ``label_rows``."""
    rows = label_rows(indexing, max_size).tolist()
    return (Weight(tuple(row), indexing.kind) for row in rows)
