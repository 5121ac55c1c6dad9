"""Reference tail certificates kept as test oracles for ``heatseries``.

These are the plain loops the certified tails were first written as: every
horizon doubling recomputes the whole recurrence or power sum from size 0,
one numpy scalar or one big-integer logarithm at a time.  The library's
tails must equal them bit for bit (``==``, not approximately).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from cutofflab.partitions import partition_counts

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
