"""Reference tail certificates kept as test oracles for ``heatseries``.

``oracle_partition_tail`` and ``oracle_su_dp_tail`` are the plain loops the
certified tails were first written as: every horizon doubling recomputes the
whole recurrence or power sum from size 0, one numpy scalar or one
big-integer logarithm at a time.  ``oracle_tail_bound`` is the series tail
as it was first written, one branch per family, on top of the library's two
tail sums (which the loops above pin).  The library's tails must equal them
bit for bit (``==``, not approximately).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from cutofflab.heatseries import _partition_tail, _su_dp_tail
from cutofflab.partitions import partition_counts
from cutofflab.spaces import Family, SpaceDescriptor

_HR_C = math.pi * math.sqrt(2.0 / 3.0)


def _hr_closing(log_x: float, horizon: int) -> float:
    s1 = horizon + 1
    first = math.exp(min(_HR_C * math.sqrt(s1) + s1 * log_x, 700.0))
    ratio = math.exp(_HR_C * (math.sqrt(s1 + 1) - math.sqrt(s1)) + log_x)
    if ratio >= 1.0:
        return math.inf
    return first / (1.0 - ratio)


def oracle_partition_tail(log_x: float, beyond: int, max_len: int) -> float:
    """Sum of x^{|mu|} over partitions with |mu| > beyond and at most
    max_len parts, plus the Hardy-Ramanujan closing bound."""
    if log_x >= 0.0:
        return math.inf
    horizon = max(400, 4 * max(beyond, 0), int(-80.0 / log_x))
    while True:
        counts = partition_counts(horizon, max_len)
        exact = 0.0
        for s in range(max(beyond, -1) + 1, horizon + 1):
            if s == 0:
                exact += 1.0
                continue
            val = math.log(counts[s]) + s * log_x
            if val > -745.0:
                exact += math.exp(min(val, 700.0))
        closing = _hr_closing(log_x, horizon)
        if math.isfinite(closing) and closing <= max(1e-12 * exact, 1e-250):
            return exact + closing
        if horizon >= 60000:
            return exact + closing
        horizon *= 2


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
        tail = c_int * _partition_tail(log_x, cap, plen)
        if c_half is not None:
            shift = rank / 4.0 if n % 2 else (2 * rank - 1) / 8.0
            half_beyond = math.floor(cap - rank / 2.0)
            tail += (c_half * math.exp(-gap * shift)
                     * _partition_tail(log_x, half_beyond, rank))
        return tail
    if fam is Family.USp:
        return float(const_int) ** 2 * _partition_tail(log_x, cap, n)
    if fam is Family.SU:
        return float(const_int) ** 2 * _su_dp_tail(
            oracle_su_steps(descriptor, gap), cap)
    if fam is Family.GrC:
        return _partition_tail(-gap, cap, descriptor.q)
    if fam is Family.GrH:
        return float(const_int) * _partition_tail(2.0 * log_x, cap // 2,
                                                  descriptor.q)
    if fam is Family.SO2n_Un:
        return float(const_int) * _partition_tail(2.0 * log_x, cap // 2, n // 2)
    if fam is Family.USpn_Un:
        return float(const_int) * _partition_tail(2.0 * log_x, cap // 2, n)
    assert fam in (Family.SUn_SOn, Family.SU2n_USpn)
    return float(const_int) * _su_dp_tail(oracle_su_steps(descriptor, gap), cap)
