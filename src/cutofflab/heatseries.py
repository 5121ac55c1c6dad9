"""Heat-kernel densities, the dominating series with certified truncation
tails, per-term bound sweeps at cut-off time, and growth-step quotients."""

from __future__ import annotations

import cmath
import math
import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import (DegenerateAlphabet, HalfPartitionUnsupported,
                     InvalidRank, TooLarge, UnsupportedSpace, require_time)
from .partitions import (MAX_LABEL_ENTRIES, MAX_LABELS, IndexingSetKind,
                         LabelStore, LabelTable, Weight, WeightKind, _half_cap,
                         _size_lex_order, enumerate_by_size, label_table,
                         label_table_fits, require_label_table)
from .repchar import casimir_exponent, characters, dimension
from .spaces import (CharType, RootDatum, SpaceDescriptor, _chiralities,
                     indexing_set)

_SU_DP_HORIZON = 20000  # type A tails stop at the first doubling past this


def t_zero(descriptor: SpaceDescriptor) -> float:
    """Cut-off time alpha * log(param)."""
    return descriptor.alpha_cutoff * math.log(descriptor.param)


@dataclass(frozen=True)
class SeriesTerm:
    """One term A_n(lambda) * exp(-t * B_n(lambda)) of the dominating series."""

    weight: Weight
    a_coeff: Fraction
    b_exp: Fraction


@dataclass(frozen=True)
class TruncationReport:
    """Partial sum with a certified remainder: the true value lies within
    [partial_sum, partial_sum + tail_bound]."""

    t: float
    partial_sum: float
    tail_bound: float
    terms_used: int
    size_cap: int

    @property
    def total(self) -> float:
        return self.partial_sum + self.tail_bound


def _fold(descriptor: SpaceDescriptor) -> int:
    """2 on a type D group, whose series sums each pair of chirality pieces
    through the label with a non-negative last part; else 1."""
    return 2 if descriptor.is_group and descriptor.root.type is CharType.D else 1


def series_terms(descriptor: SpaceDescriptor, size_cap: int) -> list[SeriesTerm]:
    """All non-trivial series terms with |lambda| <= size_cap, size-ordered,
    with exact rational coefficients A = fold * (D^lambda)^power, power 2 on
    a group and 1 on a quotient: the labels of ``enumerate_by_size`` past
    the trivial one."""
    fold, power = _fold(descriptor), 2 if descriptor.is_group else 1
    labels = enumerate_by_size(indexing_set(descriptor), size_cap)
    next(labels)  # the trivial label
    return [SeriesTerm(weight=w,
                       a_coeff=fold * dimension(descriptor, w) ** power,
                       b_exp=casimir_exponent(descriptor, w)) for w in labels]


# -- vectorized term table -------------------------------------------------


@dataclass(frozen=True)
class _TermTable:
    """One space's series terms up to a size cap, one row per non-trivial
    label, in the level-major order of its ``LabelTable``: the labels are
    shared by every space of the same indexing set and cap, and their
    stores by every length; the columns below are the space's own."""

    labels: LabelTable
    log_dim: np.ndarray   # log D^lambda
    b: np.ndarray         # B_n(lambda)
    log_a: np.ndarray     # log A_n(lambda) with group squaring / factor 2

    @cached_property
    def levels(self) -> tuple[np.ndarray, np.ndarray]:
        """(b, log a): the distinct rates in ascending order, and for each
        the log of the sum of A over its labels, taken about the level's
        largest log A so that no exponential overflows.  Labels of one
        level share a bit-identical rate, so e^{-tb} factors out of their
        terms exactly; built on a table's first sum, never for a sweep.
        The labels are sorted by rate from the table's level-major order,
        never by size, so that each level sums its labels in one order
        fixed by the table."""
        if not len(self.b):
            return self.b, self.log_a
        order = np.argsort(self.b)
        rates, log_a = self.b[order], self.log_a[order]
        starts = np.flatnonzero(np.r_[True, rates[1:] != rates[:-1]])
        top = np.maximum.reduceat(log_a, starts)
        log_a -= np.repeat(top, np.diff(np.r_[starts, len(log_a)]))
        return rates[starts], top + np.log(np.add.reduceat(np.exp(log_a), starts))


# float64 entries in one transient block of pair factors: 512 KiB, so a
# block stays in a core's L2 cache (2^15 to 2^16 measured fastest)
_BLOCK = 1 << 16

# store -> the products of its deepest level's rank-free pair corrections
# (type A), which the next level carries on, and the logs of every level's
# from level 0: kept while the store lives
_RANK_FREE: "weakref.WeakKeyDictionary[LabelStore, tuple]" = (
    weakref.WeakKeyDictionary())


def _level_products(rows: np.ndarray, prod: np.ndarray, rho2: np.ndarray,
                    squared: bool, first: int, stop: int,
                    shift: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Weyl's pair corrections carried from parent to child, for the labels
    of one level: each label's parent's running product, in ``prod`` (one
    per row, updated in place), times, for each column j = first .. stop - 1
    in turn, the factors of j against every i < j, (l_i - l_j) /
    (l_i - 2rho_j), or (l_i^2 - l_j^2) / (l_i^2 - 4rho_j^2) when
    ``squared``, with l = p + 2rho over the doubled parts p = ``rows`` +
    ``shift`` and, past a row's own columns, p = ``shift``.

    Each factor turns the factor of (i, j) with part j taken as zero into
    the true one, and lies in (0, 1], as l_i > l_j >= 2rho_j >= 0, so no
    product overflows.  A column's factors go in one ``multiply.reduce``
    after the running product, so a label's product is the one its parent
    carried, times its own columns' factors, in the order of a product
    over every j < stop.  The rows go in chunks of at most _BLOCK floats per
    buffer.  Returns the products after the rows' own columns, which the
    next level's labels carry on, and after ``stop``."""
    count, cols = rows.shape
    own = prod if stop == cols else np.empty(count)
    step = max(1, _BLOCK // max(stop, 1))
    zero = rho2 * rho2 if squared else rho2  # l_j of a zero part
    base = rho2[:stop, None] + shift
    ell_buf, num_buf, den_buf = np.empty((3, stop, min(step, count)))
    for start in range(0, count, step):
        part = prod[start:start + step]
        ell = ell_buf[:, :len(part)]
        np.add(rows[start:start + step].T, base[:cols], out=ell[:cols])
        ell[cols:] = base[cols:]
        if squared:
            ell *= ell
        for j in range(max(first, 0), stop):  # column 0 has no factor
            if j == cols:
                own[start:start + step] = part
            num, den = num_buf[:j + 1, :len(part)], den_buf[:j, :len(part)]
            num[0] = part
            np.subtract(ell[:j], ell[j], out=num[1:])
            np.subtract(ell[:j], zero[j], out=den)
            num[1:] /= den
            np.multiply.reduce(num, axis=0, out=part)
    return own, prod


def _rank_free(store: LabelStore, last: int) -> list[np.ndarray]:
    """log of the type A pair corrections of the labels of levels 0 ..
    ``last``: (l_i - l_j) / (l_i - 2rho_j) = (p_i - p_j + 2(j - i)) /
    (p_i + 2(j - i)) at every rank, so once per level of the store."""
    carried, logs = _RANK_FREE.get(store, (np.ones(1), []))
    while len(logs) <= last:
        carried, log = _rank_free_level(store, len(logs), carried)
        logs.append(log)
    _RANK_FREE[store] = carried, logs
    return logs


def _rank_free_level(store: LabelStore, level: int,
                     carried: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The type A correction products of one level, from the products
    ``carried`` by the level above, and their logs."""
    rows = store.rows[level]
    cols = rows.shape[1]
    steps = -2.0 * np.arange(cols)  # any 2 rho of step -2
    prod, _ = _level_products(rows, carried[store.parents[level]], steps,
                              False, cols - store.repeat, cols)
    return prod, np.log(prod)


def _log_rising(ds: np.ndarray, top: int, odd: bool) -> np.ndarray:
    """h[k, p] = log prod_{j=1..d} (1 + p / 2j) at d = ds[k], for the
    parts p < top, odd ones only when ``odd`` (else those columns are 0).

    With p = 2b + e, e = p mod 2, the product telescopes to
    prod_{j<=d} (2j + e) / 2j times prod_{m<=b} (2d + 2m + e) / (2m + e):
    the first is 1 on even p, and on odd p a prefix sum over j <= d of
    logs below log(3/2); the second is a sum of b logs of exact ratios.
    The entries depend on (d, p) alone: a lookup table that does not
    depend on the rank, built here at the d that one rank needs."""
    d = ds[:, None].astype(float)
    h = np.zeros((len(ds), top))
    for e in (0, 1) if odd else (0,):
        m = 2.0 * np.arange(1, (top - e + 1) // 2) + e  # 2m + e, m = 1..b
        np.cumsum(np.log((2.0 * d + m) / m), axis=1, out=h[:, e + 2::2])
    if odd:
        j = 2.0 * np.arange(1, ds.max() + 1)
        first = np.concatenate([[0.0], np.cumsum(np.log((j + 1.0) / j))])
        h[:, 1::2] += first[ds][:, None]
    return h


def _zero_block_logs(root: RootDatum, width: int, top: int,
                     odd: bool) -> np.ndarray:
    """z[i, p]: the log of the factors of coordinate i, with doubled part p,
    against every later coordinate j taken as zero (l_j = 2rho_j), and on
    types B and C and on a symmetric root of the factor of i alone.

    These are the telescoped products of ``repchar.dimension`` against one
    zero run over j = i + 1 .. r - 1, as entries of ``_log_rising``:
    h(r-1-i), and h(rho2_0-2i-1) - h(rho2_0-i-r) on a sum root.  A
    symmetric root meets its zeros from both ends: 2 h(r-2-2i).  Part 0
    gives exactly 0.0.  Odd parts (half labels) are read only when
    ``odd``."""
    r = root.rank
    rho2 = np.array(root.rho2[:width], dtype=float)
    rho0 = root.rho2[0]
    i = np.arange(width)
    if root.symmetric:
        logs = 2.0 * _log_rising(r - 2 - 2 * i, top, odd)
    else:
        ends = [r - 1 - i]
        if root.type is not CharType.A:
            # type D's last coordinate has no later one: both ends clip to 0
            ends += [np.maximum(rho0 - 2 * i - 1, 0), np.maximum(rho0 - i - r, 0)]
        h = _log_rising(np.concatenate(ends), top, odd).reshape(len(ends), width, top)
        logs = h[0]
        if len(ends) > 1:
            logs += h[1] - h[2]
    if root.symmetric or root.type in (CharType.B, CharType.C):
        # e_i (B), 2e_i (C) or the pair (i, -i) (symmetric): l_i / 2rho_i
        logs += np.log((np.arange(top) + rho2[:, None]) / rho2[:, None])
    return logs


def _vector_log_dim(descriptor: SpaceDescriptor, labels: LabelTable) -> np.ndarray:
    """log D^lambda from Weyl's product over l = 2(lambda + rho), whose
    factors against a label's trailing zeros telescope.

    The factors and their products over a run of equal parts are derived
    once, in ``repchar.dimension``.  Here p = 2 lambda has parts p_i > 0
    for i < ell and zeros after, r is the rank, and on types B, C and D a
    pair's two factors are read as one, (l_i^2 - l_j^2) / (4rho_i^2 -
    4rho_j^2).

    Take every coordinate after i as zero: the factors of i then depend on
    (i, p_i, rank) alone and telescope (``_zero_block_logs``), one lookup
    per (label, i).  The label's own pairs i < j < ell each correct that
    guess by (l_i - l_j) / (l_i - 2rho_j) on type A, a ratio that does not
    depend on the rank (``_rank_free``, once per level of the store), or by
    (l_i^2 - l_j^2) / (l_i^2 - 4rho_j^2) on the others, per rank.  A label
    carries its parent's product of corrections and multiplies in those of
    its last column (pair of columns) alone (``_level_products``), so a
    label costs O(ell) per rank on every type, not O(ell r); it adds its
    last column's lookups (two on doubledY) to the sum its parent carries,
    O(1) lookups a label.  A half (odd) label has no zero part: its prefix
    tree runs through the store's partitions padded with zeros, each
    carrying on to the length, and its parts past the row's own, all the
    shift s, add one constant per row length c, sum_{i >= c} z[i, s].

    Rounding, to first order in u = 2^-53: a correction's terms are exact
    integers, so it rounds once, and the product of m <= ell(ell - 1)/2 of
    them is within 2m u relative.  An entry h of ``_log_rising`` sums
    b = floor(p/2) logs of exact ratios, within b u (1 + 2h) (and on odd p
    the d logs of its first factor, below log(3/2) each, within 2d u); a
    lookup adds at most three entries and one log.  The final sums make ell
    additions in all (ell the width on a half or odd label): the lookups in
    column order from 0.0, w log P, then a shifted label's constant, summed
    from the last coordinate down, each partial sum within S = |log P| +
    ell z_max, z_max the largest |lookup|.  The term an outward-rounded
    bound must cover is |error of log D| <= u (2wm + w |log P| + 3 |lambda|
    (1 + 2 h_max) + 2 d_half + (ell + 2) S), where w = 2 on a symmetric
    root and else 1, P is the corrections' product, h_max <= log C(2r +
    cap, cap), and d_half is 2r on a label with half-integer parts and else
    0.  Measured against the exact dimension at cap 40, on 350 labels a
    table, the 50 longest among them: at most 8.5e-14 up to rank 140, and
    1.1e-13 at rank 1000."""
    root = descriptor.root
    count, width = len(labels), labels.width
    val = np.empty(count)
    if not count:
        return val
    zero_logs = _zero_block_logs(root, width, labels.top + 1,
                                 bool(labels.is_half.any()))
    rank_free = root.type is CharType.A and not root.symmetric
    twice = 2.0 if root.symmetric else 1.0
    rho2 = np.array(root.rho2[:width], dtype=float)
    at = 0
    for part in labels.parts:
        store, shift = part.store, part.shift
        lo, hi = part.bounds
        logs = val[at:at + hi - lo]
        at += hi - lo
        corr = _rank_free(store, part.last) if rank_free else None
        # lookups[i, p]: part p + shift at coordinate i, and suffix[c]: the
        # lookups of the parts ``shift`` past a row's c columns
        lookups = zero_logs[:, shift:]
        if shift:
            suffix = np.r_[np.cumsum(zero_logs[::-1, shift])[::-1], 0.0]
        # the zero label's products and lookups, and its parent's
        carried, sums = np.ones(1), np.zeros(1)
        for level in range(part.first, part.last + 1):
            rows, parents = store.rows[level], store.parents[level]
            cols = rows.shape[1]
            here = logs[store.offsets[level] - lo:store.offsets[level + 1] - lo]
            sums = sums[parents]
            for j in range(max(cols - store.repeat, 0), cols):
                sums += lookups[j].take(rows[:, j])
            if rank_free:
                np.add(corr[level], sums, out=here)
            else:
                carried, prod = _level_products(
                    rows, carried[parents], rho2, True,
                    cols - store.repeat, width if shift else cols, shift)
                np.log(prod, out=here)
                here *= twice
                here += sums
            if shift:
                here += suffix[cols]
    return val


def _vector_b(descriptor: SpaceDescriptor, labels: LabelTable) -> np.ndarray:
    """B(lambda) = <lambda, lambda + 2 rho> / N, less |lambda|^2 / N^2 on
    type A.  With p = 2 lambda, Q = sum p_i^2, S = sum p_i (``size2``),
    M = sum i p_i (i from 0) and 2 rho_i = rho2_0 - 2i, the numerator
    4 <lambda, lambda + 2 rho> is Q + 2 rho2_0 S - 4M, and a symmetric root's
    -l end adds Q - 2(rho2_0 + 2 - 2r) S - 4M.  It is an exact int64 below
    2^53, so only the divisions by 4N and N^2 round.  Q - 4M is rank-free:
    the table's ``quad``, formed once per level of the store."""
    quad = labels.quad
    root, size2 = descriptor.root, labels.size2.astype(np.int64)
    num = quad + 2 * root.rho2[0] * size2
    if root.symmetric:
        num += quad - 2 * (root.rho2[0] + 2 - 2 * root.rank) * size2
    rate = num / (4 * root.rate_norm)
    if root.type is CharType.A and not root.symmetric:
        rate -= (size2 * 0.5) ** 2 / root.rate_norm ** 2
    return rate


@lru_cache(maxsize=32)
def _term_table(descriptor: SpaceDescriptor, size_cap: int) -> _TermTable:
    labels = label_table(indexing_set(descriptor), size_cap)
    log_dim = _vector_log_dim(descriptor, labels)
    b = _vector_b(descriptor, labels)
    log_a = 2.0 * log_dim if descriptor.is_group else log_dim
    if _fold(descriptor) == 2:
        log_a = log_a + math.log(2.0)
    return _TermTable(labels, log_dim, b, log_a)


# -- certified tails -------------------------------------------------------


def _partition_tails(log_x: float, beyonds: Sequence[int],
                     max_len: int) -> list[float]:
    """Upper bounds on the sum of x^{|mu|} over partitions mu of length
    <= max_len with |mu| > beyond, for one or two sizes ``beyonds``, from
    one pass over the stages: each the exact tail, rounded outward; +inf
    only when log_x >= 0 or when the product P below overflows.

    By conjugation these are the partitions into parts <= L = max_len, of
    sum P_L = prod_{k<=L} 1/(1 - w_k), w_k = x^k.  If T_k(b) sums x^{|mu|}
    over those into parts <= k with |mu| > b, removing a part k gives
        T_k(b) = T_{k-1}(b) + w_k (T_k(b - k) if b >= k else P_k),
    T_0(b) = 0 for b >= 0, and T_k(-1) = P_k (T_0 = 1).  The row T_k(0 ..
    top), top the larger size, holds the smaller one's tail too, and
    T_k(-1) only adds w_k P_k, so each tail is the value a pass of its own
    would give, bit for bit, from one set of stages.  The pass takes
    O(min(L, top) top + L) steps: a stage k > top only adds w_k P_k to the
    two tails, and the stages stop once w_k underflows.

    Rounding.  The inputs err outward by one ``math.nextafter`` step each,
    which covers libm's exp and expm1 (within 1 ulp on glibc): c_k = k|log x|
    down, w_k = e^{-c_k} up, 1 - w_k = -expm1(-c_k) down.  T is a sum of
    products of w_k and 1/(1 - w_k) with positive coefficients, so on these
    inputs it bounds the true tail.  Each sum, product and quotient by an
    input rounds once: on positive operands a computed value is y(1 + theta),
    |theta| <= gamma_n = nu/(1 - nu), u = 2^-53, n one more than the larger
    count of a sum's operands or the total of a product's (Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., Lemmas 3.1, 3.3).  P_k
    counts k and T_k(b), by induction, at most 2k + 2b + 1, so the true tail
    is at most the computed one over 1 - gamma_n, n = 2K + 2 max(beyond, 0)
    + 1 after K stages: times 1 + nu/(1 - 2nu), formed, then stepped up.

    Floor.  Below the normal range a product errs by up to 2^-1075 instead
    (sums of subnormals are exact), reaching the tail times less than 2 P_L,
    at most K (max(beyond, 0) + 2) times; stages cut by an underflow at k
    add P_L sum_{j>=k} x^j < P_L 2^-1074 (1 + 1/|log x|).  So the floor
    P_K 2^-1074 (K (max(beyond, 0) + 2) + 2 + 2/|log x|), stepped up, is
    added before the factor.  Each tail takes its own floor and factor."""
    if not log_x < 0.0:
        return [math.inf] * len(beyonds)
    nextafter, exp, expm1, inf = math.nextafter, math.exp, math.expm1, math.inf
    rate = -log_x
    top, low_end = max(beyonds), min(beyonds)  # a size below 0 acts as -1
    tail = [0.0] * (top + 1) or [1.0]  # T_k(b), b = 0..top; or P_k
    # T_k(top) and T_k(low_end) as scalars: the row holds them up to stage
    # top, and T_k(-1) adds every step
    high, low = tail[-1], 1.0 if low_end < 0 else 0.0
    prod, stages = 1.0, 0
    for k in range(1, max_len + 1):
        cost = nextafter(k * rate, 0.0)
        w = exp(-cost)
        if w == 0.0:
            break
        w, stages = nextafter(w, inf), k
        q = nextafter(-expm1(-cost), 0.0)
        prod = prod / q if q else inf  # an overflow runs on as +inf
        step = w * prod
        low += step
        if k > top:
            high += step
            continue
        row = [t + step for t in tail[:k]]
        append = row.append
        # the row grows while zip reads it, k entries behind the end
        for t, lagged in zip(tail[k:], row):
            append(t + w * lagged)
        tail = row
        high = tail[-1]
        if low_end >= 0:
            low = tail[low_end]
    ldexp, out = math.ldexp, []
    for end in beyonds:
        size = end if end > 0 else 0
        floor = ldexp(prod * (stages * (size + 2) + 2.0 + 2.0 / rate), -1074)
        n = (2 * stages + 2 * size + 1) * 2.0 ** -53
        factor = nextafter(1.0 + n / (1.0 - 2.0 * n), inf)
        total = nextafter((high if end == top else low)
                          + nextafter(floor, inf), inf)
        out.append(nextafter(total * factor, inf))
    return out


def _su_dp_tail(steps: Sequence[tuple[int, float]], beyond: int) -> float:
    """Upper bound on the sum of prod_i e^{-cost_i * delta_i} over delta >= 0
    with total size sum_i inc_i*delta_i > beyond; costs must be positive.

    f[s] sums the products over delta of total size s, one increment at a
    time: f_k[s] = f_{k-1}[s] + w_k f_k[s - inc_k].  f[0..H] does not depend
    on the horizon H, so each doubling runs only the new sizes through the
    stages, each stage carrying its last inc_k values, and f vanishes off
    the multiples of the increments' gcd, so only those sizes are computed.

    Stage k writes inc_k/gcd + H/gcd + 1 list entries, H the last horizon
    the doublings reach; past MAX_LABEL_ENTRIES in all (SU(n) past
    n = 1,147 at cap 40) the DP raises TooLarge before it starts.
    """
    g = math.gcd(*(inc for inc, _ in steps))
    horizon = max(400, 4 * max(beyond, 0))
    last = horizon
    while last < _SU_DP_HORIZON:
        last *= 2
    entries = sum(inc // g + last // g + 1 for inc, _ in steps)
    if entries > MAX_LABEL_ENTRIES:
        raise TooLarge(f"type A tail of {len(steps)} increment stages writes "
                       f"{entries} entries, more than {MAX_LABEL_ENTRIES}")
    if any(cost <= 0.0 for _, cost in steps):
        return math.inf
    u = 0.5 * min(cost / inc for inc, cost in steps)
    prod = 1.0
    for inc, cost in steps:
        tilted = math.exp(-(cost - u * inc))
        if tilted >= 1.0:
            return math.inf
        prod /= (1.0 - tilted)
    stages = [(inc // g, math.exp(-cost)) for inc, cost in steps]
    # f_k at the inc_k sizes below the next new one; negative sizes hold 0.0,
    # and adding w_k * 0.0 leaves a value unchanged
    lags = [[0.0] * inc for inc, _ in stages]
    f_row: list[float] = []
    while True:
        new = [0.0] * (horizon // g + 1 - len(f_row))
        if not f_row:
            new[0] = 1.0
        for k, (inc, w) in enumerate(stages):
            row = lags[k]
            append = row.append
            # the row grows while zip reads it, inc entries behind the end
            for below, lagged in zip(new, row):
                append(below + w * lagged)
            new, lags[k] = row[inc:], row[-inc:]
        f_row += new
        # the full-length array keeps numpy's pairwise summation order
        f = np.zeros(horizon + 1)
        f[::g] = f_row
        exact = float(f[max(beyond, -1) + 1:].sum())
        log_close = -u * horizon
        closing = math.exp(log_close) * prod if log_close > -745.0 else 0.0
        if closing <= max(1e-12 * exact, 1e-250) or horizon >= last:
            return exact + closing
        horizon *= 2


def _su_steps(descriptor: SpaceDescriptor, gap: float) -> list[tuple[int, float]]:
    """(size increment, cost) pairs for the delta-coordinate lower bound
    B >= sum_i i(m-i)/m * delta_i on type A labels of root rank m: doubled
    labels step only at even i, and even labels grow by 2i at step i."""
    m = descriptor.root.rank
    kind = indexing_set(descriptor).kind
    k = 2 if kind is WeightKind.evenY else 1
    return [(k * i, gap * (k * i) * (m - i) / m) for i in range(1, m)
            if not (kind is WeightKind.doubledY and i % 2)]


@lru_cache(maxsize=64)
def _tail_constants(descriptor: SpaceDescriptor) -> tuple[float, float, float]:
    """fold * C^power for the integer and the half labels (power 2 on a
    group, 1 on a quotient), and B(1/2, ..., 1/2) for the half block's
    shift (0.0 unless the labels are halfY)."""
    fold, power = _fold(descriptor), 2 if descriptor.is_group else 1
    const_int, const_half = descriptor.per_term
    c_int = fold * float(const_int) ** power
    if const_half is None:
        return c_int, 0.0, 0.0
    idx = indexing_set(descriptor)
    half = Weight((1,) * idx.length, idx.kind)  # doubled parts of (1/2, ...)
    return c_int, fold * float(const_half) ** power, float(
        casimir_exponent(descriptor, half))


def _has_tail(descriptor: SpaceDescriptor, t: float, t0: float) -> bool:
    """Whether the series has a tail certificate at t: only past the
    cut-off time t0, and only from the proven minimum rank on."""
    return descriptor.n >= descriptor.proven_min_n and t > t0


def _tail_bound(descriptor: SpaceDescriptor, t: float, cap: int,
                t0: float) -> float:
    """Certified bound on the series mass above the size cap, +inf without
    a certificate (``_has_tail``): every term is at most fold * C^power
    e^{-(t - t0) B}, and B >= |lambda|/2 (|lambda| on symmetric labels).
    Each label kind maps to partitions of a size and a length: even labels
    halve the size, doubled labels halve both, and a half label is 1/2
    added to each part of a partition; on type A the delta-coordinate steps
    replace the partitions."""
    if not _has_tail(descriptor, t, t0):
        return math.inf
    gap = t - t0
    c_int, c_half, half_shift = _tail_constants(descriptor)
    root = descriptor.root
    if root.type is CharType.A and not root.symmetric:
        return c_int * _su_dp_tail(_su_steps(descriptor, gap), cap)
    log_x = -gap / 2.0  # decay rate from B >= |lambda|/2
    if root.symmetric:
        log_x *= 2.0
    idx = indexing_set(descriptor)
    kind, length = idx.kind, idx.length
    beyond = cap
    if kind in (WeightKind.evenY, WeightKind.doubledY):
        log_x, beyond = 2.0 * log_x, cap // 2
        if kind is WeightKind.doubledY:
            length //= 2
    if kind is not WeightKind.halfY:
        return c_int * _partition_tails(log_x, (beyond,), length)[0]
    # the integer labels and the half labels from one pass
    ints, halves = _partition_tails(log_x, (beyond, _half_cap(cap, length)),
                                    length)
    return c_int * ints + c_half * math.exp(-gap * half_shift) * halves


def _escalating_caps(indexing: IndexingSetKind) -> Iterator[int]:
    """Escalating size caps, stopping before the label table passes
    MAX_LABELS: a cap's fit is checked only when the series reaches it."""
    yield 40
    for cap in (80, 160, 200):
        if not label_table_fits(indexing, cap):
            return
        yield cap


def _cap_schedule(descriptor: SpaceDescriptor) -> list[int]:
    """Every cap of ``_escalating_caps``."""
    return list(_escalating_caps(indexing_set(descriptor)))


def dominating_series(descriptor: SpaceDescriptor, t: float,
                      size_cap: Optional[int] = None) -> TruncationReport:
    """Sum of A_n(lambda) e^{-t B_n(lambda)} over non-trivial labels, with a
    certified tail; tail_bound is the +inf sentinel at or below cut-off time.

    The sum runs over the table's levels, one per distinct rate b, as
    sum_k e^{log a_k - t b_k} with a_k the sum of A over the level's labels
    (``_TermTable.levels``): within 1e-12 relative of the per-label sum,
    from which it differs only in the order of the additions and in the
    rounding of each level's log and exp.  A sum past the float range is
    +inf.  Without a ``size_cap`` the cap escalates from 40 while the tail
    exceeds 1e-6 of the sum and a larger label table fits."""
    require_time(t)
    idx = indexing_set(descriptor)
    caps = [size_cap] if size_cap is not None else _escalating_caps(idx)
    t0 = t_zero(descriptor)
    for cap in caps:
        if cap < 1:
            raise ValueError("size_cap must be >= 1")
        # the labels refuse a cap, and then the tail a type A rank, before
        # the table is built
        require_label_table(idx, cap)
        tail = _tail_bound(descriptor, t, cap, t0)
        table = _term_table(descriptor, cap)
        rates, log_a = table.levels
        # a huge t overflows t * rates to +inf, whose exp is 0
        with np.errstate(under="ignore", over="ignore"):
            row = rates * t  # one buffer for exp(log_a - t * rates)
            np.subtract(log_a, row, out=row)
            partial = float(np.exp(row, out=row).sum())
        # a larger cap cannot rescue a missing certificate
        if not math.isfinite(tail) or tail < 1e-6 * max(partial, 1e-30):
            break
    return TruncationReport(t=t, partial_sum=partial, tail_bound=tail,
                            terms_used=len(table.b), size_cap=cap)


def tv_upper_bound(descriptor: SpaceDescriptor, t: float) -> float:
    """min(1, sqrt(S_n(t) + tail)/2); 1 whenever no tail certificate exists,
    and then without reading the term table (a cap-40 label table fits at
    every rank, so the series would refuse nothing there)."""
    require_time(t)
    if not _has_tail(descriptor, t, t_zero(descriptor)):
        return 1.0
    report = dominating_series(descriptor, t)
    if not math.isfinite(report.tail_bound):
        return 1.0  # the tail overflowed
    return min(1.0, 0.5 * math.sqrt(report.total))


# -- per-term sweep --------------------------------------------------------


@dataclass(frozen=True)
class SweepResult:
    """Maximum of D^lambda * param^{-B_n(lambda)} over the swept labels."""

    max_value: float
    argmax: Weight
    certified: bool
    max_integer: float
    argmax_integer: Weight
    max_half: Optional[float]
    argmax_half: Optional[Weight]
    size_cap: int


# values of a sweep this close to its maximum, relative, tie: well above
# the rounding of log D^lambda (see _vector_log_dim)
_TIE_RTOL = 1e-12


def per_term_exceeds(descriptor: SpaceDescriptor, weight: Weight,
                     bound: Fraction) -> bool:
    """Exact test of D^lambda * param^{-B} > bound, by integer powers:
    (D / bound)^q > param^p for B = p / q."""
    dim = dimension(descriptor, weight)
    b = casimir_exponent(descriptor, weight)
    return ((dim / bound) ** b.denominator
            > Fraction(descriptor.param) ** b.numerator)


def _exceeds(descriptor: SpaceDescriptor, weight: Weight, bound: Fraction,
             val: float) -> bool:
    """per_term_exceeds with ``val``, a float of D^lambda * param^{-B} far
    closer than 1e-6 relative, as the pre-filter: the exact test runs only
    within the margin."""
    if abs(val - float(bound)) > 1e-6 * float(bound):
        return val > float(bound)
    return per_term_exceeds(descriptor, weight, bound)


def per_term_bound_sweep(descriptor: SpaceDescriptor,
                         size_cap: int = 40) -> SweepResult:
    """Maximum per-term value over |lambda| <= size_cap with certification
    against the family's proven global constants."""
    n, minimum = descriptor.n, descriptor.proven_min_n
    if descriptor.is_group and n < minimum:
        raise InvalidRank(
            f"per-term constants for {descriptor.family.name} need n >= {minimum}")
    if size_cap < 2:
        raise ValueError("size_cap must be >= 2")
    table = _term_table(descriptor, size_cap)
    log_param = math.log(descriptor.param)
    values = np.exp(table.log_dim - table.b * log_param)
    pad, labels = indexing_set(descriptor).pad, table.labels

    def pick(mask: np.ndarray) -> tuple[Optional[float], list]:
        """The maximum and the labels tied with it, in size order, each with
        its value: labels of equal value (a type A label and its dual, say)
        differ by rounding alone, and the first of them is the argmax."""
        idxs = np.nonzero(mask)[0]
        if len(idxs) == 0:
            return None, []
        top = values[idxs].max()
        ties = idxs[values[idxs] >= top * (1.0 - _TIE_RTOL)]
        rows = labels.rows(ties)
        order = _size_lex_order(labels.size2[ties], rows)
        return float(top), [(pad(row), float(values[i])) for i, row
                            in zip(ties[order], rows[order].tolist())]

    def exceeds(ties: list, bound: Fraction) -> bool:
        return any(_exceeds(descriptor, w, bound, val) for w, val in ties)

    max_all, ties_all = pick(np.ones(len(values), dtype=bool))
    max_int, ties_int = pick(~labels.is_half)
    max_half, ties_half = pick(labels.is_half)
    if max_all is None or max_int is None:
        raise ValueError("size_cap leaves no labels to sweep")
    boundary = values[labels.size2 > 2 * (size_cap - 2)]
    boundary_max = float(boundary.max()) if len(boundary) else 0.0
    const_int, const_half = descriptor.per_term
    certified = (n >= minimum and size_cap >= 40
                 and boundary_max < 0.5 * max_all
                 and not exceeds(ties_int, const_int))
    if const_half is not None:
        certified = certified and not exceeds(ties_half, const_half)
    return SweepResult(
        max_value=max_all, argmax=ties_all[0][0], certified=certified,
        max_integer=max_int, argmax_integer=ties_int[0][0], max_half=max_half,
        argmax_half=ties_half[0][0] if ties_half else None, size_cap=size_cap)


# -- growth-step quotients -------------------------------------------------


def eta_quotient(descriptor: SpaceDescriptor, base_weight: Weight, l: int,
                 k: int, t0: Optional[float] = None) -> float:
    """Dimension quotient times exp(-t0 * dB/2) for the k-th unit growth of
    the top-l block above the base weight."""
    if not base_weight.is_integer:
        raise HalfPartitionUnsupported("growth quotients need integer bases")
    if not 1 <= l <= base_weight.length:
        raise ValueError(f"layer index {l} out of range: need 1 <= l <= "
                         f"{base_weight.length}")
    if k < 1:
        raise ValueError("k must be >= 1")
    if t0 is None:
        t0 = t_zero(descriptor)
    require_time(t0, allow_zero=True)
    p = base_weight.parts2
    top = p[0]
    if any(v != top for v in p[:l]):
        raise ValueError("base must be flat across the grown block")

    def with_top(v2: int) -> Weight:
        return Weight((v2,) * l + p[l:], base_weight.kind)

    prev = with_top(top + 2 * (k - 1))
    grown = with_top(top + 2 * k)
    rho = dimension(descriptor, grown) / dimension(descriptor, prev)
    delta = casimir_exponent(descriptor, grown) - casimir_exponent(descriptor, prev)
    return float(rho) * math.exp(-t0 * float(delta) / 2.0)


# -- densities -------------------------------------------------------------


# eigenvalue angles within this of a multiple of 2 pi are the identity
# class's: a character there is within (|l| theta)^2 / 2 relative of its
# limit, far below rounding
_IDENTITY_ANGLE = 1e-12


def _rank_one_character(root: RootDatum, rows: np.ndarray,
                        theta: float) -> np.ndarray:
    """Weyl's character of a rank-one group at the class of rotation angle
    theta, for each label of ``rows`` (doubled parts), whose eigen-phases
    are theta v, v = (1, -1) on SU(2)'s two coordinates and (1) on SO(3)'s
    one: sin(D psi) / sin(psi) with psi = <2 rho, v> theta / 2 and
    D = <2(lambda + rho), v> / <2 rho, v>.  With psi = m pi + delta,
    |delta| <= pi/2, this is (-1)^(m (D-1)) sin(D delta) / sin(delta), whose
    limit at delta = 0 is D (-1)^(m (D-1)); the reduction keeps the digits
    near the poles.  It reduces r = psi mod 2 pi, whose multiple of pi has
    m's parity, read as atan2(sin psi, cos psi): libm reduces sin and cos
    exactly at every psi.  The reduction is one scalar for every row."""
    v = (1, -1)[:root.rank]
    b2 = sum(r * s for r, s in zip(root.rho2, v))
    dim = (b2 + rows.astype(np.int64) @ np.array(v[:rows.shape[1]])) // b2
    psi = theta * (b2 / 2)
    r = math.atan2(math.sin(psi), math.cos(psi))
    m = round(r / math.pi)
    delta = r - m * math.pi
    sign = np.where(m * (dim - 1) % 2, -1.0, 1.0)
    if delta == 0.0:
        return sign * dim
    return sign * np.sin(dim * delta) / math.sin(delta)


def _angle(point_spec: dict) -> float:
    theta = float(point_spec["theta"])
    if not math.isfinite(theta):
        raise ValueError(f"angle theta must be finite, got {theta}")
    return theta


def _own_rows(descriptor: SpaceDescriptor,
              size_cap: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(doubled parts, D, B) of the term table's non-trivial integer labels
    up to the cap, the space's own: a half label is a representation of
    Spin(n), not of SO(n)."""
    table = _term_table(descriptor, size_cap)
    own = np.flatnonzero(~table.labels.is_half)
    return (table.labels.rows(own), np.exp(table.log_dim[own]),
            table.b[own])


def density(descriptor: "SpaceDescriptor | str", point_spec: dict, t: float,
            size_cap: int = 40) -> float:
    """Heat-kernel density p_t = sum_lambda D^lambda f(lambda) e^{-t B / 2}
    on a group (f the character at an eigenvalue alphabet, over the
    group's own integer labels), on SU(2) and SO(3) at a rotation angle,
    and on the circle; a quotient has no density form.

    Every form sums the term table's integer rows up to the cap, with
    D = exp(log_dim) and B = b, and 1 for the trivial label; the alphabet's
    characters come from one ``repchar.characters`` call (chi * D at the
    identity class).  A value differs from the per-label exact sum only in
    the order of additions and the rounding of D: measured within 2e-14 of
    the sum of |terms| at the identity class, where a term is
    chi D^2 e^{-tB/2}, and 1e-15 elsewhere.  It is a partial sum with no
    certificate for the rest, and near the cut-off time it can be negative
    (at the angles (0.3, 0.9, 1.4, 2.0, 2.6) and t = 1, SO(10) reads
    -0.0022 at cap 40 and 2.1e-10 at cap 60, USp(5) -0.011 at cap 40).

    A non-finite point or a negative ``size_cap`` raises ValueError; a
    ``size_cap`` of MAX_LABELS or more raises TooLarge in every form."""
    require_time(t)
    if size_cap < 0:
        raise ValueError(f"size_cap must be >= 0, got {size_cap}")
    if size_cap >= MAX_LABELS:
        raise TooLarge(f"size cap {size_cap} gives more than {MAX_LABELS} "
                       "labels")
    if isinstance(descriptor, str):
        if descriptor != "circle":
            raise UnsupportedSpace(f"unknown special space {descriptor!r}")
        theta = _angle(point_spec)
        total = 1.0
        for k in range(1, size_cap + 1):
            total += 2.0 * math.exp(-k * k * t / 2.0) * math.cos(k * theta)
        return total

    root = descriptor.root
    if "alphabet" in point_spec:
        if not descriptor.is_group:
            raise UnsupportedSpace(
                f"{descriptor} has no eigenvalue-alphabet density")
        alphabet = [complex(z) for z in point_spec["alphabet"]]
        if not all(cmath.isfinite(z) for z in alphabet):
            raise ValueError("alphabet eigenvalues must be finite")
        if len(alphabet) != root.rank:
            raise ValueError(
                f"{descriptor} needs an alphabet of {root.rank} eigenvalues")
        angles = [cmath.phase(z) for z in alphabet]
        rows, dim, rate = _own_rows(descriptor, size_cap)
        if all(abs(a) <= _IDENTITY_ANGLE for a in angles):
            # Weyl's ratio is 0/0 at the identity; its limit is the
            # dimension of the chirality pieces the label stands for
            values = _chiralities(root, rows) * dim
        else:
            try:
                values = characters(root.type, rows, alphabet).real
            except DegenerateAlphabet as exc:
                raise DegenerateAlphabet(
                    "the class of eigenvalue angles "
                    f"({', '.join(f'{a:.17g}' for a in angles)}) is singular: "
                    f"{exc}") from None
    elif "theta" in point_spec:
        theta = _angle(point_spec)
        if not descriptor.is_group or indexing_set(descriptor).length != 1:
            # rank one: SU(2) and SO(3)
            raise UnsupportedSpace(f"no angle-form density for {descriptor}")
        rows, dim, rate = _own_rows(descriptor, size_cap)
        values = _rank_one_character(root, rows, theta)
    else:
        raise UnsupportedSpace("point_spec needs 'alphabet' or 'theta'")
    with np.errstate(under="ignore", over="ignore"):  # as in the series
        return 1.0 + float((dim * np.exp(-t / 2.0 * rate) * values).sum())

