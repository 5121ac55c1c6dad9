"""Weight labels for the classical families: partitions, half-partitions and
their even, doubled and parity-constrained variants, and bounded-length
partition counts.

The labels of one kind up to a size cap come from one level-major
``LabelStore`` per partition shape and cap (2 lambda, 4 mu, or the pairs
(2 mu, 2 mu)), level k holding the labels of k parts (pairs) with their
parents; it grows a level at a time, as longer lengths ask, and is shared
by every table that holds it.  ``label_table`` reads the levels a length
allows as a ``LabelTable``, with halfY's half labels or evenOrOddY's odd
ones after them, ``IndexingSetKind.pad`` turns a table row into a
``Weight`` of the full length, and ``enumerate_by_size`` gives every label
that way, in size order."""

from __future__ import annotations

import enum
import itertools
import math
import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
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
        table row, say), zero-padded."""
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


def _count_stages(max_size: int) -> Iterator[list[int]]:
    """Stage L = 0, 1, .. max_size: counts[s], the partitions of s <=
    max_size with at most L parts, one list updated in place.  By
    conjugation these have parts <= L: stage L adds the partitions that use
    part value L.  Stage max_size holds every longer length's counts too."""
    counts = [1] + [0] * max_size
    yield counts
    for part in range(1, max_size + 1):
        for s in range(part, max_size + 1):
            counts[s] += counts[s - part]
        yield counts


def partition_counts(max_size: int, max_len: int) -> list[int]:
    """counts[s] = number of partitions of s with at most ``max_len`` parts,
    for s = 0 .. max_size."""
    return next(itertools.islice(_count_stages(max_size),
                                 min(max_len, max_size), None))


def _half_cap(max_size: Fraction | int, length: int) -> int:
    """Size cap of the half labels: mu + 1/2 has size |mu| + length / 2.
    Halving after the floor keeps an int cap in integer arithmetic."""
    return math.floor(2 * max_size - length) // 2


@lru_cache(maxsize=16)
def _label_sums(cap: int) -> tuple[np.ndarray, ...]:
    """sums[L][s]: the partitions of sizes 0 .. s with at most L parts, from
    one pass of the recurrence, up to the first L past MAX_LABELS."""
    sums = []
    for counts in _count_stages(cap):
        sums.append(np.cumsum(counts, dtype=np.int64))
        if sums[-1][-1] > MAX_LABELS:
            break
    return tuple(sums)


@lru_cache(maxsize=64)
def label_table_fits(indexing: IndexingSetKind, max_size: Fraction | int) -> bool:
    """Whether ``label_table`` builds the labels of |lambda| <= max_size, at
    most MAX_LABELS of them: the guard of the table and of the size-cap
    schedule.

    The labels of every kind but halfY are among the partitions of size
    <= c = int(max_size) with at most ``length`` parts; halfY adds a half
    block, the partitions of size <= its half cap, a prefix of the same
    stage.  Every size has a partition, so a cap of MAX_LABELS or more
    fails.  With two parts allowed, sizes 0..c have floor((c + 2)^2 / 4) >=
    (c + 1)^2 / 4 partitions, so (c + 1)^2 > 4 * MAX_LABELS fails too.
    Each stage left costs c < 2 sqrt(MAX_LABELS) additions, once a cap."""
    cap, length = int(max_size), indexing.length
    if cap >= MAX_LABELS or (length >= 2 and (cap + 1) ** 2 > 4 * MAX_LABELS):
        return False
    sums = _label_sums(cap)
    stage = sums[min(length, len(sums) - 1)]
    total = int(stage[-1])
    half = _half_cap(max_size, length)
    if indexing.kind is WeightKind.halfY and half >= 0:
        total += int(stage[half])
    return total <= MAX_LABELS


class LabelStore:
    """The partitions of size at most ``total`` as labels of one shape,
    level-major: level k holds those of exactly k parts, each a row of the
    doubled parts ``scale * mu_i``, each part ``repeat`` times (2 lambda:
    scale 2; 4 mu: scale 4; the pairs (2 mu_i, 2 mu_i): scale 2, repeat 2),
    in the narrowest signed type holding the largest size, and each label's
    parent, the label without its last part (pair), as an index into level
    k - 1.  Level 0 is the zero label alone.  Each part is held once, in its
    level's rows, so a reader carries each label's sums from its parent.

    A level extends each label of the level above by a part 1 .. min(its
    last part, the size left), in turn, so its rows are in lexicographic
    order.  ``grow`` appends levels and changes none that is built: a table
    of length L reads levels up to L as they stand.  The rank-free columns
    ``size2`` (2|lambda|) and ``quad`` (Q - 4M, see ``_quadratic``) run
    contiguously over every level built, so a table's labels are the slice
    ``[offsets[1]:offsets[L + 1]]`` of them, and a column's labels a prefix
    of it."""

    def __init__(self, scale: int, repeat: int, total: int) -> None:
        self.scale, self.repeat, self.total = scale, repeat, total
        self.dtype = np.min_scalar_type(-(scale * repeat * total + 1))
        self.rows = [_read_only(np.zeros((1, 0), self.dtype))]
        self.parents = [_read_only(np.zeros(1, np.uint8))]
        self.offsets = [0, 1]
        self.size2 = _read_only(np.zeros(1, self.dtype))
        self.quad = _read_only(np.zeros(1, np.int64))

    @property
    def depth(self) -> int:
        """The last level built: the most parts (pairs) of a label."""
        return len(self.rows) - 1

    def grow(self, depth: int) -> None:
        """Build the levels up to ``depth``; none past ``total`` has a
        label."""
        depth = min(depth, self.total)
        if depth <= self.depth:
            return
        start = self.offsets[-2]
        size2, quad = [self.size2[start:]], [self.quad[start:]]
        while self.depth < depth:
            level_size2, level_quad = self._append_level(size2[-1], quad[-1])
            size2.append(level_size2)
            quad.append(level_quad)
            self.offsets.append(self.offsets[-1] + len(level_size2))
        self.size2 = _read_only(np.concatenate([self.size2, *size2[1:]]))
        self.quad = _read_only(np.concatenate([self.quad, *quad[1:]]))

    def _append_level(self, size2: np.ndarray,
                      quad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Append the next level, from the last one's rows, ``size2`` and
        ``quad``; return the new level's two columns."""
        scale, repeat = self.scale, self.repeat
        last = self.rows[-1]
        if last.shape[1]:
            fan = np.minimum(last[:, -1].astype(np.int64) // scale,
                             self.total - size2.astype(np.int64) // (scale * repeat))
        else:
            fan = np.array([self.total])  # the zero label's parts
        parent = np.repeat(np.arange(len(fan)), fan)
        value = np.arange(1, len(parent) + 1) - (np.cumsum(fan) - fan)[parent]
        part = scale * value
        cols = last.shape[1] + repeat
        rows = np.empty((len(parent), cols), self.dtype)
        rows[:, :-repeat] = last[parent]
        rows[:, -repeat:] = part[:, None]
        self.rows.append(_read_only(rows))
        self.parents.append(_read_only(
            parent.astype(np.min_scalar_type(max(len(fan) - 1, 0)))))
        return ((size2[parent] + repeat * part).astype(self.dtype),
                _quadratic(quad[parent], part, cols - repeat, repeat))


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _quadratic(quad: np.ndarray, part: np.ndarray, column: int,
               repeat: int) -> np.ndarray:
    """Q - 4M = sum_i p_i (p_i - 4i) over the doubled parts p (i from 0) of
    the labels whose parents have ``quad``, extended by ``part`` in columns
    ``column`` .. ``column + repeat - 1``: exact int64, once per level."""
    quad = quad.copy()
    for i in range(column, column + repeat):
        quad += part * (part - 4 * i)
    return quad


# (scale, repeat, total) -> store, and (indexing set, cap) -> table, kept
# while a caller holds the table (a cached term table does), so the caches
# keep alive no table or store that nothing else uses
_STORES: "weakref.WeakValueDictionary[tuple, LabelStore]" = (
    weakref.WeakValueDictionary())
_TABLES: "weakref.WeakValueDictionary[tuple, LabelTable]" = (
    weakref.WeakValueDictionary())


@dataclass(frozen=True)
class LabelPart:
    """Levels ``first`` .. ``last`` of ``store``, with ``shift`` added to
    every part: a shifted part's labels fill every coordinate of the table,
    their parts past the row's own being ``shift``; a reader carries what
    it makes of a label's parts on from its parent, level by level."""

    store: LabelStore
    first: int
    last: int
    shift: int

    @property
    def bounds(self) -> tuple[int, int]:
        """The part's slice of the store's level-major order."""
        return self.store.offsets[self.first], self.store.offsets[self.last + 1]


@dataclass(frozen=True, eq=False)
class LabelTable:
    """The non-trivial labels of one kind and length up to one size cap,
    level-major: levels 1 .. of the store of the kind's partitions (the
    integer labels: 2 lambda, 4 mu or the pairs (2 mu, 2 mu)), then halfY's
    half labels or evenOrOddY's odd ones, levels 0 .. of the store of their
    second cap with 1/2 (or 1) added to each of the ``length`` parts.
    ``size2``, ``quad`` and ``is_half`` follow that order, all a sum or a
    sweep reads; the term table reads ``parts`` level by level; ``rows``
    gathers the doubled parts of the labels asked for over the ``width``,
    in the narrowest signed type holding 2 * cap + 1."""

    length: int
    dtype: np.dtype
    parts: tuple[LabelPart, ...]
    size2: np.ndarray
    quad: np.ndarray
    is_half: np.ndarray

    def __len__(self) -> int:
        return len(self.size2)

    @property
    def width(self) -> int:
        """The coordinates the labels fill."""
        if len(self.parts) > 1:
            return self.length
        part = self.parts[0]
        return part.last * part.store.repeat

    @property
    def top(self) -> int:
        """The largest doubled part, 0 on an empty table: a level-1 label
        holds the store's whole size."""
        return max((p.store.scale * p.store.total * (p.last > 0) + p.shift
                    for p in self.parts if p.last >= p.first), default=0)

    @cached_property
    def _levels(self) -> tuple[np.ndarray, list[tuple[np.ndarray, int]]]:
        """Where each store level the table reads starts in the table, and
        that level's rows with its part's shift."""
        starts, levels = [0], []
        for part in self.parts:
            for k in range(part.first, part.last + 1):
                levels.append((part.store.rows[k], part.shift))
                starts.append(starts[-1] + len(levels[-1][0]))
        return np.array(starts[:-1], dtype=np.intp), levels

    def rows(self, index: np.ndarray | Sequence[int]) -> np.ndarray:
        """The doubled parts of the labels at ``index``, one row each,
        gathered from the store levels that hold them and from no other."""
        index = np.asarray(index, dtype=np.intp)
        out = np.zeros((len(index), self.width), self.dtype)
        starts, levels = self._levels
        level = np.searchsorted(starts, index, side="right") - 1
        by_level = np.argsort(level, kind="stable")
        counts = np.bincount(level, minlength=len(levels))
        ends = np.cumsum(counts)
        for k in np.flatnonzero(counts):
            rows, shift = levels[k]
            held = by_level[ends[k] - counts[k]:ends[k]]
            out[held, :rows.shape[1]] = rows[index[held] - starts[k]]
            if shift:
                out[held] += shift
        return out

    @cached_property
    def by_size(self) -> np.ndarray:
        """Every row index by size and then lexicographically: the order of
        ``enumerate_by_size`` and ``series_terms``."""
        rows = self.rows(np.arange(len(self)))
        return _read_only(_size_lex_order(self.size2, rows))


def _size_lex_order(size2: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The order of labels by size (``size2``) and then lexicographically
    by their rows, zero-padded to one width: one lexsort, size first."""
    return np.lexsort(np.vstack([rows.T[::-1], size2]))


def _part(scale: int, repeat: int, total: int, first: int, depth: int,
          shift: int) -> LabelPart:
    """Levels ``first`` .. ``depth`` of the (scale, repeat, total) store,
    built as far as they go and shared while someone holds the store."""
    key = (scale, repeat, total)
    store = _STORES.get(key)
    if store is None:
        store = LabelStore(scale, repeat, total)
        _STORES[key] = store
    store.grow(depth)
    return LabelPart(store, first, min(depth, store.depth), shift)


def _too_large(indexing: IndexingSetKind, max_size: Fraction | int) -> TooLarge:
    return TooLarge(f"size cap {int(max_size)} gives more than {MAX_LABELS} "
                    f"labels of length {indexing.length}, or more than "
                    f"{MAX_LABEL_ENTRIES} parts")


def require_label_table(indexing: IndexingSetKind,
                        max_size: Fraction | int) -> None:
    """Raise TooLarge unless ``label_table_fits``: the refusal of
    ``label_table``, for a caller to ask before it builds anything."""
    if not label_table_fits(indexing, max_size):
        raise _too_large(indexing, max_size)


def label_table(indexing: IndexingSetKind, max_size: Fraction | int) -> LabelTable:
    """The non-trivial labels of the kind with |lambda| <= max_size: the
    integer labels are partitions of c = cap (Y, halfY), c = cap // 2 in 4 mu
    (evenY, evenOrOddY) or in pairs (doubledY, at most length // 2 of them);
    halfY's half labels add 1/2 to every part of a partition of at most
    ``_half_cap``, and evenOrOddY's odd ones 1 to every part of an even
    label of at most cap - length.  One table per (indexing set, cap),
    shared by every caller that asks while one holds it."""
    max_size = Fraction(max_size)
    if max_size < 0:
        raise ValueError("max_size must be >= 0")
    require_label_table(indexing, max_size)
    table = _TABLES.get((indexing, max_size))
    if table is None:
        table = _build_table(indexing, max_size)
        _TABLES[indexing, max_size] = table
    return table


def _build_table(indexing: IndexingSetKind, max_size: Fraction) -> LabelTable:
    kind, length, cap = indexing.kind, indexing.length, int(max_size)
    if kind in (WeightKind.Y, WeightKind.halfY):
        scale, repeat, total = 2, 1, cap
    elif kind is WeightKind.doubledY:
        scale, repeat, total = 2, 2, cap // 2
    else:
        scale, repeat, total = 4, 1, cap // 2
    parts = [_part(scale, repeat, total, 1, length // repeat, 0)]
    lo, hi = parts[0].bounds
    size2, quad = parts[0].store.size2[lo:hi], parts[0].store.quad[lo:hi]
    is_half = np.zeros(hi - lo, dtype=bool)
    second = -1
    if kind is WeightKind.halfY:
        second, shift = _half_cap(max_size, length), 1
    elif kind is WeightKind.evenOrOddY:
        second, shift = (cap - length) // 2, 2
    if second >= 0:
        half = _part(scale, 1, second, 0, length, shift)
        lo, hi = half.bounds
        # every coordinate gains the shift s: sum_i (p_i + s)(p_i + s - 4i)
        # = Q - 4M + 2 s S + L s^2 - 2 s L (L - 1)
        half_size2 = half.store.size2[lo:hi].astype(np.int64)
        size2 = np.concatenate([size2, half_size2 + shift * length])
        quad = np.concatenate([quad, half.store.quad[lo:hi] + 2 * shift * half_size2
                               + shift * length * (shift - 2 * (length - 1))])
        is_half = np.concatenate([is_half, np.full(hi - lo, kind is WeightKind.halfY)])
        parts.append(half)
    dtype = np.min_scalar_type(-(2 * cap + 1))
    return LabelTable(length, dtype, tuple(parts),
                      _read_only(size2.astype(dtype, copy=False)),
                      _read_only(quad), _read_only(is_half))


def enumerate_by_size(indexing: IndexingSetKind, max_size: Fraction | int) -> Iterator[Weight]:
    """Every weight of the kind with |lambda| <= max_size, ordered by size
    and then ascending lexicographically: the zero label, then
    ``label_table``'s rows in ``by_size`` order, padded to the length.
    Refused, before any label is given, past MAX_LABEL_ENTRIES padded parts,
    as the table is past MAX_LABELS labels."""
    labels = label_table(indexing, max_size)
    if (len(labels) + 1) * indexing.length > MAX_LABEL_ENTRIES:
        raise _too_large(indexing, max_size)
    rows = labels.rows(labels.by_size).tolist()
    return itertools.chain([Weight.zero(indexing.length, indexing.kind)],
                           map(indexing.pad, rows))
