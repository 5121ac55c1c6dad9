"""Reference tail certificates kept as test oracles for ``heatseries``.

``mpmath_partition_tail`` is the partition tail in 50 significant digits,
from its closed form: the generating function P_L = prod_{k<=L} 1/(1 - x^k)
less the sizes up to the cap, with the working precision raised by the
digits that subtraction cancels; past a few hundred such digits, the
tail's first terms summed directly, with a geometric closing bound.  The library's outward-rounded tail must
lie at or above it, and within 1e-12 relative in the normal range.
``oracle_su_dp_tail`` is the plain loop the type A tail was first written
as: every horizon doubling recomputes the whole recurrence from size 0, one
numpy scalar at a time, and the library's must equal it bit for bit
(``==``, not approximately).  ``oracle_tail_bound`` is the series tail as it
was first written, one branch per family, on top of the library's two tail
sums, with ``partition_tail``, the library's one-pass tails at one size.
"""

from __future__ import annotations

import math
from typing import Sequence

import mpmath
import numpy as np

from cutofflab.heatseries import _partition_tails, _su_dp_tail
from cutofflab.partitions import partition_counts
from cutofflab.spaces import Family, SpaceDescriptor


def partition_tail(log_x: float, beyond: int, max_len: int) -> float:
    """The library's partition tail beyond one size."""
    return _partition_tails(log_x, (beyond,), max_len)[0]


# past this many digits cancelled by the head, the tail is summed directly
_DIRECT_DIGITS = 300


def mpmath_partition_tail(log_x: float, beyond: int, max_len: int) -> mpmath.mpf:
    """Sum of x^{|mu|} over partitions with at most max_len parts and
    |mu| > beyond, to 50 digits: P_L less sum_{s<=beyond} p_L(s) x^s, or,
    when that subtraction would cancel more than _DIRECT_DIGITS digits, the
    tail's first terms summed directly (``_direct_tail``)."""
    def product(log_w) -> mpmath.mpf:
        prod = mpmath.mpf(1)
        for k in range(1, max_len + 1):
            prod /= -mpmath.expm1(k * mpmath.mpf(log_w))
        return prod

    if beyond < 0:
        with mpmath.workdps(50):
            return product(log_x)
    if (beyond + 1) * -log_x / math.log(10) > _DIRECT_DIGITS:
        return _direct_tail(log_x, beyond, max_len, product)
    # the tail is at least x^(beyond + 1), so the subtraction cancels at
    # most log10(P_L) + (beyond + 1) |log x| / log(10) digits
    with mpmath.workdps(20):
        cancel = mpmath.log10(product(log_x)) - (beyond + 1) * log_x / math.log(10)
    with mpmath.workdps(50 + int(cancel) + 10):
        x = mpmath.exp(mpmath.mpf(log_x))
        head = mpmath.fsum(count * x ** size for size, count
                           in enumerate(partition_counts(beyond, max_len)))
        return product(log_x) - head


def _direct_tail(log_x: float, beyond: int, max_len: int,
                 product) -> mpmath.mpf:
    """sum_{beyond < s <= S} p_L(s) x^s plus a geometric closing bound on
    the sizes past S, an upper bound within 1e-60 relative of the tail.

    With y = sqrt(x), p_L(s) x^s = p_L(s) y^s y^s <= P_L(y) y^s, so the
    sizes past S add at most P_L(y) y^(S+1) / (1 - y); S is the least size
    that puts this below 1e-60 x^(beyond + 1), itself below the tail."""
    with mpmath.workdps(60):
        log_y = mpmath.mpf(log_x) / 2
        factor = product(log_y) / -mpmath.expm1(log_y)
        # P_L(y) y^(S+1) / (1 - y) <= 1e-60 x^(beyond + 1)
        need = (mpmath.log(mpmath.mpf(10) ** -60) + (beyond + 1) * log_x
                - mpmath.log(factor)) / log_y
        last = max(beyond + 1, int(mpmath.ceil(need)) - 1)
        x = mpmath.exp(mpmath.mpf(log_x))
        counts = partition_counts(last, max_len)
        head = mpmath.fsum(counts[size] * x ** size
                           for size in range(beyond + 1, last + 1))
        return head + factor * mpmath.exp(log_y * (last + 1))


def oracle_su_dp_tail(steps: Sequence[tuple[int, float]], beyond: int) -> float:
    """Sum of prod_i e^{-cost_i * delta_i} over delta >= 0 with
    sum_i inc_i * delta_i > beyond, plus a tilted closing bound."""
    if any(cost <= 0.0 for _, cost in steps):
        return math.inf
    u = 0.5 * min(cost / inc for inc, cost in steps)
    horizon = max(400, 4 * max(beyond, 0))
    while True:
        f = np.zeros(horizon + 1)
        f[0] = 1.0
        for inc, cost in steps:
            w = math.exp(-cost)
            for s in range(inc, horizon + 1):
                f[s] += w * f[s - inc]
        exact = float(f[max(beyond, -1) + 1:].sum())
        prod = 1.0
        for inc, cost in steps:
            tilted = math.exp(-(cost - u * inc))
            if tilted >= 1.0:
                return math.inf
            prod /= (1.0 - tilted)
        log_close = -u * horizon
        closing = math.exp(log_close) * prod if log_close > -745.0 else 0.0
        if closing <= max(1e-12 * exact, 1e-250) or horizon >= 20000:
            return exact + closing
        horizon *= 2


def oracle_su_steps(descriptor: SpaceDescriptor,
                    gap: float) -> list[tuple[int, float]]:
    """(size increment, cost) pairs of the three type A families."""
    fam, n = descriptor.family, descriptor.n
    if fam is Family.SU:
        return [(i, gap * i * (n - i) / n) for i in range(1, n)]
    if fam is Family.SUn_SOn:
        return [(2 * i, gap * 2.0 * i * (n - i) / n) for i in range(1, n)]
    assert fam is Family.SU2n_USpn
    m = 2 * n
    return [(2 * j, gap * 2.0 * j * (m - 2 * j) / m) for j in range(1, n)]


def oracle_tail_bound(descriptor: SpaceDescriptor, t: float, cap: int,
                      t0: float) -> float:
    """Certified bound on the series mass above the size cap, per family."""
    fam, n = descriptor.family, descriptor.n
    if n < descriptor.proven_min_n:
        return math.inf
    gap = t - t0
    if gap <= 0.0:
        return math.inf
    const_int, const_half = descriptor.per_term
    log_x = -gap / 2.0
    if fam in (Family.SO, Family.GrR):
        rank = n // 2
        if descriptor.is_group:
            c_int = float(const_int) ** 2
            c_half = float(const_half) ** 2
            if n % 2 == 0:
                c_int, c_half = 2.0 * c_int, 2.0 * c_half
        else:
            c_int, c_half = float(const_int), None
        plen = rank if fam is Family.SO else descriptor.q
        tail = c_int * partition_tail(log_x, cap, plen)
        if c_half is not None:
            shift = rank / 4.0 if n % 2 else (2 * rank - 1) / 8.0
            half_beyond = math.floor(cap - rank / 2.0)
            tail += (c_half * math.exp(-gap * shift)
                     * partition_tail(log_x, half_beyond, rank))
        return tail
    if fam is Family.USp:
        return float(const_int) ** 2 * partition_tail(log_x, cap, n)
    if fam is Family.SU:
        return float(const_int) ** 2 * _su_dp_tail(
            oracle_su_steps(descriptor, gap), cap)
    if fam is Family.GrC:
        return partition_tail(-gap, cap, descriptor.q)
    if fam is Family.GrH:
        return float(const_int) * partition_tail(2.0 * log_x, cap // 2,
                                                 descriptor.q)
    if fam is Family.SO2n_Un:
        return float(const_int) * partition_tail(2.0 * log_x, cap // 2, n // 2)
    if fam is Family.USpn_Un:
        return float(const_int) * partition_tail(2.0 * log_x, cap // 2, n)
    assert fam in (Family.SUn_SOn, Family.SU2n_USpn)
    return float(const_int) * _su_dp_tail(oracle_su_steps(descriptor, gap), cap)
