"""Weight labels for the classical families: partitions, half-partitions and
their even, doubled and parity-constrained variants, and bounded-length
partition counts.

The labels of one kind up to a size cap are enumerated by size into a
read-only ``LabelBlock``: the leading coordinates they fill, in the
narrowest signed type holding 2 * cap + 1, built once per (kind, width,
cap) and shared by every length that asks while someone holds it.
``IndexingSetKind.pad`` turns a block row into a ``Weight`` of the full
length, and ``enumerate_by_size`` gives every label that way."""

from __future__ import annotations

import enum
import itertools
import math
import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import TooLarge

# Largest label table built at once: at most MAX_LABELS labels (every cap up
# to 40 passes at every length: 215,308 partitions of width at most 40), and
# at most MAX_LABEL_ENTRIES parts in the rows padded to the full length.
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
        return self.pad(_doubled(head))

    def pad(self, head2: Sequence[int]) -> "Weight":
        """The label of this kind with the given leading doubled parts (a
        block row, say), zero-padded."""
        return Weight(tuple(head2) + (0,) * (self.length - len(head2)),
                      self.kind)


def _doubled(values: Iterable[int | Fraction]) -> tuple[int, ...]:
    """2 * v for each true (possibly half-integer) part value v."""
    doubled = []
    for v in values:
        d = Fraction(v) * 2
        if d.denominator != 1:
            raise ValueError(f"part {v} is not a half-integer")
        doubled.append(int(d))
    return tuple(doubled)


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
        return Weight(_doubled(values), kind)

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


def _half_cap(max_size: Fraction | int, length: int) -> int:
    """Size cap of the half labels: mu + 1/2 has size |mu| + length / 2.
    Halving after the floor keeps an int cap in integer arithmetic."""
    return math.floor(2 * max_size - length) // 2


@lru_cache(maxsize=64)
def label_table_fits(indexing: IndexingSetKind, max_size: Fraction | int) -> bool:
    """Whether ``label_block`` builds the labels of |lambda| <= max_size, at
    most MAX_LABELS of them: the guard of the table and of the size-cap
    schedule.

    The labels of every kind but halfY are among the partitions of size
    <= c = int(max_size) with at most ``length`` parts; halfY adds a half
    block, the partitions of size <= its half cap, counted with them.
    Every size has a partition, so a cap of MAX_LABELS or more fails.  With
    two parts allowed, size s has floor(s/2) + 1 partitions of at most two
    parts, and sizes 0..c have floor((c + 2)^2 / 4) >= (c + 1)^2 / 4 of them
    together, so (c + 1)^2 > 4 * MAX_LABELS fails too.  The count left costs
    c * min(c, length) additions, with c < 2 sqrt(MAX_LABELS) < 1,100."""
    cap, length = int(max_size), indexing.length
    if cap >= MAX_LABELS or (length >= 2 and (cap + 1) ** 2 > 4 * MAX_LABELS):
        return False
    counts = partition_counts(cap, length)
    total = sum(counts)
    if indexing.kind is WeightKind.halfY:
        total += sum(counts[:max(_half_cap(max_size, length) + 1, 0)])
    return total <= MAX_LABELS


def _partition_rows(max_total: int, length: int,
                    dtype: np.dtype) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every partition with at most ``length`` parts and size <= max_total,
    one zero-padded row each, in ascending lexicographic order, with each
    row's size and number of non-zero parts.

    The partitions form a tree: the children of a partition of k parts, the
    last v and the size left r, are its extensions by a part 1..min(v, r).
    In lexicographic order a partition comes right before its descendants
    (its zero-padded row is below every extension of it), and sibling
    subtrees follow in increasing last part: the tree's preorder.  The tree
    is built level by level, one node per partition; subtree sizes summed
    bottom-up give every node its row, and part k, the value of the level-k
    node, fills column k over its subtree's rows.
    """
    if max_total < 0:
        empty = np.zeros(0, dtype=np.int64)
        return np.zeros((0, length), dtype=dtype), empty, empty
    cols = min(length, max_total)
    if cols == 0:
        zero = np.zeros(1, dtype=np.int64)
        return np.zeros((1, length), dtype=dtype), zero, zero
    # level 0: the first part, 0..max_total; fan is each node's child count
    values = [np.arange(max_total + 1)]
    budgets = [max_total - values[0]]
    fans, firsts, parents = [], [], []
    for _ in range(1, cols):
        fan = np.minimum(values[-1], budgets[-1])
        parent = np.repeat(np.arange(len(fan)), fan)
        first = np.cumsum(fan) - fan
        values.append(np.arange(1, len(parent) + 1) - first[parent])
        budgets.append(budgets[-1][parent] - values[-1])
        fans.append(fan)
        firsts.append(first)
        parents.append(parent)
    # subtree sizes, bottom-up, with each level's running sums of them
    subtree = [np.ones(len(values[-1]), dtype=np.int64)]
    sums = []
    for fan, first in zip(fans[::-1], firsts[::-1]):
        total = np.zeros(len(subtree[0]) + 1, dtype=np.int64)
        np.cumsum(subtree[0], out=total[1:])
        sums.insert(0, total)
        subtree.insert(0, 1 + total[first + fan] - total[first])
    count = int(subtree[0].sum())
    size = np.empty(count, dtype=np.int64)
    parts = np.empty(count, dtype=np.int64)
    # column k holds the level-k node's value over its subtree's rows
    # [row, row + subtree): a running sum of +value at row, -value after
    steps = np.zeros((length, count + 1), dtype=dtype)
    row = np.cumsum(subtree[0]) - subtree[0]
    for k in range(cols):
        if k:
            # a child's subtree starts after its parent's row and the
            # subtrees of its elder siblings
            total = sums[k - 1]
            row = (row + 1 - total[firsts[k - 1]])[parents[k - 1]] + total[:-1]
        steps[k, row] = values[k]
        steps[k, row + subtree[k]] -= values[k]
        size[row] = max_total - budgets[k]
        parts[row] = k + 1
    parts[0] = 0  # the zero partition
    columns = np.cumsum(steps[:, :count], axis=1, dtype=dtype)
    return np.ascontiguousarray(columns.T), size, parts


@dataclass(frozen=True, eq=False)
class LabelBlock:
    """The non-trivial labels of one kind up to one size cap, read-only.

    ``parts2`` holds the doubled parts (2*lambda_i) of every label but the
    zero label, one row each, ordered by size and then ascending
    lexicographically, over the leading coordinates the labels fill (the
    block's width): every later part of every label is zero, so one block
    serves every length of at least its width.  It is stored in the narrowest signed type
    holding 2 * cap + 1, as is ``size2``.  ``order`` lists the rows longest
    first (stably), and ``reach[k]`` counts the labels with a non-zero part
    k: the longest-first prefix a factor of coordinate k reaches."""

    kind: WeightKind
    parts2: np.ndarray    # (labels, width)
    size2: np.ndarray     # 2|lambda|
    is_half: np.ndarray   # half-integer parts, a bool mask
    order: np.ndarray     # row indices, longest first, narrow unsigned
    reach: tuple[int, ...]


# shape -> block, kept while a caller holds the block (a cached term table
# does), so the cache keeps alive no block that nothing else uses
_BLOCKS: "weakref.WeakValueDictionary[tuple, LabelBlock]" = (
    weakref.WeakValueDictionary())


def _block_shape(indexing: IndexingSetKind,
                 max_size: Fraction) -> tuple[WeightKind, int, int, int]:
    """(kind, width, cap, second cap): what a label set depends on.  The
    second cap sizes halfY's half block or evenOrOddY's odd block, -1 when
    it is empty; such a block fills all ``length`` coordinates.  Otherwise
    partitions of size <= c fill min(length, c) of them: c = cap on Y and
    halfY, cap // 2 on evenY and evenOrOddY, and doubledY's pairs fill two
    coordinates each."""
    kind, length = indexing.kind, indexing.length
    cap = int(max_size)
    second = -1
    if kind is WeightKind.halfY:
        second = max(_half_cap(max_size, length), -1)
    elif kind is WeightKind.evenOrOddY:
        second = max((cap - length) // 2, -1)
    if second >= 0:
        width = length
    elif kind in (WeightKind.Y, WeightKind.halfY):
        width = min(length, cap)
    elif kind is WeightKind.doubledY:
        width = 2 * min(length // 2, cap // 2)
    else:
        width = min(length, cap // 2)
    return kind, width, cap, second


def _build_block(kind: WeightKind, width: int, cap: int,
                 second: int) -> LabelBlock:
    """The block of one ``_block_shape``, enumerated straight into its
    type: parts and sizes are at most 2 * cap + 1 (a half label's, at a
    fractional size cap)."""
    dtype = np.min_scalar_type(-(2 * cap + 1))
    if kind is WeightKind.doubledY:
        rows, size, parts = _partition_rows(cap // 2, width // 2, dtype)
        rows = np.repeat(rows, 2, axis=1)
        rows *= 2
        size2, nonzero = 4 * size, 2 * parts
    elif kind in (WeightKind.evenY, WeightKind.evenOrOddY):
        rows, size, nonzero = _partition_rows(cap // 2, width, dtype)
        rows *= 4
        size2 = 4 * size
    else:
        rows, size, nonzero = _partition_rows(cap, width, dtype)
        rows *= 2
        size2 = 2 * size
    # drop the zero label, row 0
    rows, size2, nonzero = rows[1:], size2[1:], nonzero[1:]
    integral = len(rows)
    key = size2
    if second >= 0:
        # half labels add 1/2 to every part of an integer label, odd ones 1
        # to every part of an even label: all ``width`` parts are non-zero
        scale, shift = (2, 1) if kind is WeightKind.halfY else (4, 2)
        extra, size, _ = _partition_rows(second, width, dtype)
        extra *= scale
        extra += shift
        rows = np.concatenate([rows, extra])
        size2 = np.concatenate([size2, scale * size + shift * width])
        nonzero = np.concatenate([nonzero, np.full(len(extra), width)])
        # rows of the two blocks differ in their first part (parity, or
        # residue mod 4), so ordering by (size, first part) keeps the
        # lexicographic order within a size
        first = rows[:, 0].astype(np.int64)
        key = size2 * (int(first.max()) + 1) + first
    is_half = np.zeros(len(rows), dtype=bool)
    if kind is WeightKind.halfY:
        is_half[integral:] = True
    # each block is in ascending lexicographic order, so a stable sort by
    # the key leaves every row in (size, lexicographic) order; a stable
    # sort of a small unsigned key is a radix sort
    by_size = np.argsort(key.astype(np.min_scalar_type(int(key.max(initial=0)))),
                         kind="stable")
    parts2, size2 = rows[by_size], size2[by_size].astype(dtype)
    is_half, nonzero = is_half[by_size], nonzero[by_size]
    order = np.argsort((width - nonzero).astype(np.min_scalar_type(width)),
                       kind="stable").astype(np.min_scalar_type(len(rows)))
    # reach[k]: the labels with more than k non-zero parts
    longer = len(nonzero) - np.cumsum(np.bincount(nonzero, minlength=width + 1))
    for array in (parts2, size2, is_half, order):
        array.flags.writeable = False
    return LabelBlock(kind, parts2, size2, is_half, order,
                      tuple(int(c) for c in longer[:width]))


def _too_large(indexing: IndexingSetKind, max_size: Fraction | int) -> TooLarge:
    return TooLarge(f"size cap {int(max_size)} gives more than {MAX_LABELS} "
                    f"labels of length {indexing.length}, or more than "
                    f"{MAX_LABEL_ENTRIES} parts")


def require_label_table(indexing: IndexingSetKind,
                        max_size: Fraction | int) -> None:
    """Raise TooLarge unless ``label_table_fits``: the refusal of
    ``label_block``, for a caller to ask before it builds anything."""
    if not label_table_fits(indexing, max_size):
        raise _too_large(indexing, max_size)


def label_block(indexing: IndexingSetKind, max_size: Fraction | int) -> LabelBlock:
    """The non-trivial labels of the kind with |lambda| <= max_size, as a
    read-only block at the width they fill, shared by every caller asking
    for the same (kind, width, cap, second cap) while one holds it."""
    max_size = Fraction(max_size)
    if max_size < 0:
        raise ValueError("max_size must be >= 0")
    require_label_table(indexing, max_size)
    shape = _block_shape(indexing, max_size)
    block = _BLOCKS.get(shape)
    if block is None:
        block = _build_block(*shape)
        _BLOCKS[shape] = block
    return block


def enumerate_by_size(indexing: IndexingSetKind, max_size: Fraction | int) -> Iterator[Weight]:
    """Every weight of the kind with |lambda| <= max_size, ordered by size
    and then ascending lexicographically: the zero label, then
    ``label_block``'s rows padded to the length.  Refused, before any label
    is given, past MAX_LABEL_ENTRIES padded parts, as the block is past
    MAX_LABELS labels."""
    rows = label_block(indexing, max_size).parts2
    if (len(rows) + 1) * indexing.length > MAX_LABEL_ENTRIES:
        raise _too_large(indexing, max_size)
    return itertools.chain([Weight.zero(indexing.length, indexing.kind)],
                           map(indexing.pad, rows.tolist()))
