"""Weight labels for the classical families: partitions, half-partitions,
even/doubled/parity-constrained variants, signed type-D labels and Z-sequences,
with size-ordered enumeration and the layer-by-layer growth decomposition."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np


class WeightKind(enum.Enum):
    """Label families for dominant weights.

    Y            integer partitions
    halfY        integer partitions together with their half-shifts
    Z            non-increasing integer sequences, negatives allowed
    evenY        partitions with every part even
    doubledY     partitions whose non-zero parts come in equal consecutive pairs
    evenOrOddY   partitions with all parts of one parity
    signedLastPart  halfY labels with an optional sign on the last part
    """

    Y = "Y"
    halfY = "halfY"
    Z = "Z"
    evenY = "evenY"
    doubledY = "doubledY"
    evenOrOddY = "evenOrOddY"
    signedLastPart = "signedLastPart"


@dataclass(frozen=True)
class IndexingSetKind:
    """A weight-label family together with the number of coordinates."""

    kind: WeightKind
    length: int

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError("indexing set length must be positive")


class LastSign(enum.Enum):
    plus = "plus"
    minus = "minus"
    zero = "zero"


def _fmt_part(doubled: int) -> str:
    if doubled % 2 == 0:
        return str(doubled // 2)
    return f"{doubled}/2"


@dataclass(frozen=True)
class Weight:
    """A dominant-weight label.

    Parts are stored doubled (value 2*lambda_i) so half-integers stay exact;
    ``last_sign`` carries the type-D sign on the last coordinate.
    """

    parts2: tuple[int, ...]
    kind: WeightKind = WeightKind.Y
    last_sign: LastSign = field(default=LastSign.zero)

    def __post_init__(self) -> None:
        p = self.parts2
        if not p:
            raise ValueError("weight needs at least one coordinate")
        for a, b in zip(p, p[1:]):
            if a < b:
                raise ValueError(f"parts must be non-increasing: {p}")
        if self.kind is not WeightKind.Z and p[-1] < 0:
            raise ValueError("negative parts are only allowed for kind Z")
        self._check_kind()
        self._check_sign()

    def _check_kind(self) -> None:
        p = self.parts2
        k = self.kind
        if k in (WeightKind.Y, WeightKind.Z, WeightKind.evenY,
                 WeightKind.doubledY, WeightKind.evenOrOddY):
            if any(v % 2 for v in p):
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
        if k in (WeightKind.halfY, WeightKind.signedLastPart):
            parities = {v % 2 for v in p}
            if len(parities) > 1:
                raise ValueError(f"kind {k.value} needs all parts of equal parity: {p}")

    def _check_sign(self) -> None:
        if self.last_sign is LastSign.minus:
            if self.kind is not WeightKind.signedLastPart:
                raise ValueError("minus sign is reserved for kind signedLastPart")
            if self.parts2[-1] == 0:
                raise ValueError("minus sign needs a non-zero last part")
        if self.parts2[-1] == 0 and self.last_sign is LastSign.plus:
            raise ValueError("zero last part must carry sign 'zero'")
        if self.parts2[-1] != 0 and self.last_sign is LastSign.zero and \
                self.kind is not WeightKind.Z:
            raise ValueError("non-zero last part must carry sign 'plus' or 'minus'")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def of(values: Iterable[int | Fraction], kind: WeightKind = WeightKind.Y,
           minus_last: bool = False) -> "Weight":
        """Build a weight from true (possibly half-integer) part values."""
        doubled = []
        for v in values:
            d = Fraction(v) * 2
            if d.denominator != 1:
                raise ValueError(f"part {v} is not a half-integer")
            doubled.append(int(d))
        parts2 = tuple(doubled)
        if kind is WeightKind.Z:
            sign = LastSign.zero
        elif parts2 and parts2[-1] != 0:
            sign = LastSign.minus if minus_last else LastSign.plus
        else:
            sign = LastSign.zero
        return Weight(parts2, kind, sign)

    @staticmethod
    def doubled(parts2: Sequence[int], kind: WeightKind = WeightKind.Y) -> "Weight":
        """Build a weight from doubled parts; a non-zero last part gets sign
        'plus'."""
        parts2 = tuple(parts2)
        sign = LastSign.plus if parts2[-1] != 0 else LastSign.zero
        return Weight(parts2, kind, sign)

    @staticmethod
    def zero(length: int, kind: WeightKind = WeightKind.Y) -> "Weight":
        return Weight((0,) * length, kind, LastSign.zero)

    # -- views -------------------------------------------------------------

    @property
    def length(self) -> int:
        return len(self.parts2)

    @property
    def parts(self) -> tuple[Fraction, ...]:
        """True part values (last one signed)."""
        vals = [Fraction(v, 2) for v in self.parts2]
        if self.last_sign is LastSign.minus:
            vals[-1] = -vals[-1]
        return tuple(vals)

    @property
    def size(self) -> Fraction:
        """|lambda| = sum of unsigned true parts."""
        return Fraction(sum(self.parts2), 2)

    @property
    def is_integer(self) -> bool:
        return all(v % 2 == 0 for v in self.parts2)

    @property
    def is_zero(self) -> bool:
        return all(v == 0 for v in self.parts2)

    def as_kind(self, kind: WeightKind) -> "Weight":
        """The same coordinates re-validated under another kind."""
        sign = self.last_sign
        if kind is not WeightKind.signedLastPart and sign is LastSign.minus:
            raise ValueError("cannot drop a minus sign by re-kinding")
        if kind is WeightKind.Z:
            sign = LastSign.zero
        elif self.parts2[-1] != 0 and sign is LastSign.zero:
            sign = LastSign.plus
        elif self.parts2[-1] == 0:
            sign = LastSign.zero
        return Weight(self.parts2, kind, sign)

    def flip_last(self) -> "Weight":
        """The signed partner (type D): same parts, opposite last sign."""
        if self.kind is not WeightKind.signedLastPart or self.parts2[-1] == 0:
            return self
        sign = LastSign.plus if self.last_sign is LastSign.minus else LastSign.minus
        return Weight(self.parts2, self.kind, sign)

    def half_shift(self) -> "Weight":
        """lambda boxplus 1/2: add one half to every part."""
        if not self.is_integer:
            raise ValueError("half_shift applies to integer weights")
        parts2 = tuple(v + 1 for v in self.parts2)
        kind = self.kind if self.kind in (
            WeightKind.halfY, WeightKind.signedLastPart) else WeightKind.halfY
        return Weight(parts2, kind, LastSign.plus)

    def __str__(self) -> str:
        body = ",".join(_fmt_part(v) for v in self.parts2)
        if self.last_sign is LastSign.minus:
            head, _, last = body.rpartition(",")
            body = f"{head},-{last}" if head else f"-{last}"
        return body

    def sort_key(self) -> tuple:
        return (self.size, self.parts2, self.last_sign.value)


@dataclass(frozen=True)
class GrowthStep:
    """One unit increment of the top-l block, the k-th such at this layer."""

    l: int
    k: int
    base: Weight

    def apply(self) -> Weight:
        """The weight after raising the equal top-l block by one."""
        p = self.base.parts2
        if self.l < 1 or self.l > len(p):
            raise ValueError("layer index out of range")
        top = p[0]
        if any(v != top for v in p[: self.l]):
            raise ValueError("top block must be constant to grow")
        return Weight.doubled((top + 2,) * self.l + p[self.l:], self.base.kind)


def size_of(weight: Weight) -> Fraction:
    """|lambda|, the sum of the true parts (unsigned)."""
    return weight.size


# -- enumeration -----------------------------------------------------------


def partition_counts(max_size: int, max_len: int) -> list[int]:
    """counts[s] = number of partitions of s with at most ``max_len`` parts."""
    counts = [0] * (max_size + 1)
    counts[0] = 1
    # standard bounded-length recurrence via parts of size i used any number of times,
    # length bound enforced by conjugation: at most max_len parts == largest part of
    # the conjugate <= max_len, so restrict part VALUES of the conjugate instead.
    table = [[0] * (max_size + 1) for _ in range(max_len + 1)]
    for j in range(max_len + 1):
        table[j][0] = 1
    for parts_allowed in range(1, max_len + 1):
        for s in range(1, max_size + 1):
            table[parts_allowed][s] = table[parts_allowed - 1][s]
            if s >= parts_allowed:
                table[parts_allowed][s] += table[parts_allowed][s - parts_allowed]
    # table[max_len][s] counts partitions of s into parts <= max_len; by conjugation
    # this equals partitions of s into at most max_len parts.
    return table[max_len][: max_size + 1]


def _partition_rows(max_total: int, length: int) -> np.ndarray:
    """Every partition with at most ``length`` parts and size <= max_total,
    one zero-padded int64 row each, in ascending lexicographic order.

    Built column by column: a row whose latest part is v and whose remaining
    budget is r gets one child for each next part 0..min(v, r).
    """
    if max_total < 0:
        return np.zeros((0, length), dtype=np.int64)
    if length == 0:
        return np.zeros((1, 0), dtype=np.int64)
    values = [np.arange(max_total + 1, dtype=np.int64)]
    parents = []
    budget = max_total - values[0]
    for _ in range(1, length):
        width = np.minimum(values[-1], budget) + 1
        parent = np.repeat(np.arange(len(width)), width)
        first_child = np.cumsum(width) - width
        value = np.arange(len(parent), dtype=np.int64) - first_child[parent]
        budget = budget[parent] - value
        values.append(value)
        parents.append(parent)
    rows = np.empty((len(values[-1]), length), dtype=np.int64)
    pick = np.arange(len(values[-1]))
    for col in range(length - 1, -1, -1):
        rows[:, col] = values[col][pick]
        if col:
            pick = parents[col - 1][pick]
    return rows


def label_rows(indexing: IndexingSetKind, max_size: Fraction | int) -> np.ndarray:
    """Doubled parts (2*lambda_i) of every label of the kind with
    |lambda| <= max_size, one int64 row per label, ordered by size and then
    ascending lexicographically.

    Signed labels (kind signedLastPart) share the rows of halfY; the sign is
    attached by ``enumerate_by_size``.
    """
    max_size = Fraction(max_size)
    if max_size < 0:
        raise ValueError("max_size must be >= 0")
    kind, length = indexing.kind, indexing.length
    cap = int(max_size)  # integer component sizes
    if kind is WeightKind.Y:
        blocks = [2 * _partition_rows(cap, length)]
    elif kind in (WeightKind.halfY, WeightKind.signedLastPart):
        # half labels: 1/2 added to every part of an integer label
        half_cap = math.floor(max_size - Fraction(length, 2))
        blocks = [2 * _partition_rows(cap, length),
                  2 * _partition_rows(half_cap, length) + 1]
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
    elif kind is WeightKind.Z:
        raise NotImplementedError(
            "Z-sequence enumeration is out of scope; use the dedicated constructors")
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
    size: a ``Weight`` view of ``label_rows``.  A signed label with a non-zero
    last part comes as its minus partner followed by the plus label."""
    rows = label_rows(indexing, max_size).tolist()
    return _weights(rows, indexing.kind)


def _weights(rows: list[list[int]], kind: WeightKind) -> Iterator[Weight]:
    signed = kind is WeightKind.signedLastPart
    for row in rows:
        if signed and row[-1]:
            yield Weight(tuple(row), kind, LastSign.minus)
        yield Weight.doubled(row, kind)


def growth_path(weight: Weight) -> list[GrowthStep]:
    """Unit steps building the weight from zero, widest layer first.

    Composing ``apply`` over the returned steps starting from the zero weight
    reproduces the input exactly.
    """
    from .errors import HalfPartitionUnsupported

    if not weight.is_integer:
        raise HalfPartitionUnsupported(f"growth path undefined for {weight}")
    if weight.last_sign is LastSign.minus:
        raise HalfPartitionUnsupported("growth path undefined for signed labels")
    vals = [v // 2 for v in weight.parts2]
    length = len(vals)
    # distinct positive values v_1 > v_2 > ... with multiplicities; layer j spans
    # all rows holding values >= v_j.
    runs: list[tuple[int, int]] = []  # (value, rows_up_to_here)
    seen = 0
    for v in sorted(set(vals), reverse=True):
        seen += vals.count(v)
        if v > 0:
            runs.append((v, seen))
    steps: list[GrowthStep] = []
    current = Weight.zero(length, WeightKind.Y)
    for j in range(len(runs) - 1, -1, -1):
        value, rows = runs[j]
        lower = runs[j + 1][0] if j + 1 < len(runs) else 0
        for k in range(1, value - lower + 1):
            step = GrowthStep(l=rows, k=k, base=current)
            current = step.apply()
            steps.append(step)
    return steps
