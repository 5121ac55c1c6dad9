"""Bit-identity of the certified tails, the log-dimension products and the
lower-bound coefficients with their reference evaluations.

The library extends its tail recurrences across horizon doublings, runs
them on the gcd-compressed size grid and caches time-independent floats;
none of that may change a single bit of the results.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from cutofflab import cutoff
from cutofflab.cutoff import mean_variance, zonal_square_series
from cutofflab.heatseries import (_partition_tail, _su_dp_tail, _su_steps,
                                  _vector_log_dim)
from cutofflab.moments import zonal_square_expansion
from cutofflab.partitions import label_rows
from cutofflab.repchar import casimir_exponent, dimension
from cutofflab.spaces import describe, indexing_set, minimal_weight
from tail_oracle import oracle_partition_tail, oracle_su_dp_tail

BEYOND = (-3, -1, 0, 40, 80, 200)


# -- SU-type recurrence ----------------------------------------------------

# gaps near zero drive the horizon through every doubling up to its cap;
# the SUn_SOn and SU2n_USpn increments all share the factor 2
_SU_CASES = [
    ("SU", 2, (0.002, 0.05, 0.6, 4.0)),
    ("SU", 3, (0.002, 0.05, 0.6)),
    ("SU", 7, (0.01, 0.3)),
    ("SU", 13, (0.05, 1.0)),
    ("SU", 20, (0.2, 2.0)),
    ("SUn_SOn", 4, (0.002, 0.05, 0.6, 4.0)),
    ("SUn_SOn", 7, (0.01, 0.3)),
    ("SUn_SOn", 10, (0.05, 1.0)),
    ("SU2n_USpn", 2, (0.002, 0.05, 0.6, 4.0)),
    ("SU2n_USpn", 5, (0.01, 0.3)),
    ("SU2n_USpn", 10, (0.05, 1.0)),
]


@pytest.mark.parametrize("family,n,gaps", _SU_CASES,
                         ids=[f"{f}({n})" for f, n, _ in _SU_CASES])
def test_su_dp_tail_equals_the_oracle(family, n, gaps):
    d = describe(family, n)
    for gap in gaps:
        steps = _su_steps(d, gap)
        for beyond in BEYOND:
            assert _su_dp_tail(steps, beyond) == oracle_su_dp_tail(steps, beyond), \
                (gap, beyond)


def test_su_dp_tail_reaches_the_horizon_cap_and_mixed_gcds():
    # a horizon pushed to its cap, and increments whose gcd is 3 or 1
    for steps in ([(1, 0.0004), (2, 0.0006)], [(3, 0.01), (6, 0.02)],
                  [(2, 0.5), (3, 0.7)], [(4, 1.0)]):
        for beyond in BEYOND:
            assert _su_dp_tail(steps, beyond) == oracle_su_dp_tail(steps, beyond)


def test_su_dp_tail_without_a_positive_cost_is_infinite():
    assert _su_dp_tail([(1, 0.5), (2, 0.0)], 10) == math.inf


# -- partition tail --------------------------------------------------------


@pytest.mark.parametrize("log_x", [-0.001, -0.004, -0.02, -0.15, -1.0, -9.0])
def test_partition_tail_equals_the_oracle(log_x):
    # small |log_x| take horizons to tens of thousands, where long
    # partitions cost seconds of big-integer work in the oracle
    lengths = (1, 4) if log_x > -0.1 else range(1, 21)
    for max_len in lengths:
        for beyond in BEYOND:
            assert (_partition_tail(log_x, beyond, max_len)
                    == oracle_partition_tail(log_x, beyond, max_len)), \
                (max_len, beyond)


def test_partition_tail_doubles_its_horizon_like_the_oracle():
    # closing bounds above 1e-12 of the sum force a second horizon
    for log_x in (-0.25, -0.4, -0.7):
        for max_len in (3, 12, 20):
            for beyond in (-1, 300):
                assert (_partition_tail(log_x, beyond, max_len)
                        == oracle_partition_tail(log_x, beyond, max_len))


def test_partition_tail_at_non_negative_log_x_is_infinite():
    assert _partition_tail(0.0, 5, 3) == math.inf


# -- log-dimension products ------------------------------------------------


def _strided_bc(ell, den):
    val = np.ones(ell.shape[0])
    for i in range(ell.shape[1]):
        for j in range(i + 1, ell.shape[1]):
            val *= (ell[:, i] ** 2 - ell[:, j] ** 2) / float(den[i] ** 2 - den[j] ** 2)
    for i in range(ell.shape[1]):
        val *= ell[:, i] / float(den[i])
    return np.log(val)


def _strided_d(ell2, den2):
    val = np.ones(ell2.shape[0])
    for i in range(ell2.shape[1]):
        for j in range(i + 1, ell2.shape[1]):
            val *= (ell2[:, i] ** 2 - ell2[:, j] ** 2) / float(den2[i] ** 2 - den2[j] ** 2)
    return np.log(val)


def _strided_log_dim(d, parts2):
    """The column-strided products the table was first built with."""
    n = d.n
    if d.family.name in ("USp", "GrH", "USpn_Un"):
        lam = np.zeros((parts2.shape[0], n))
        lam[:, :parts2.shape[1]] = parts2 / 2.0
        den = n - np.arange(n)
        return _strided_bc(lam + den, den)
    r = n if d.family.name == "SO2n_Un" else n // 2
    lam2 = np.zeros((parts2.shape[0], r))
    lam2[:, :parts2.shape[1]] = parts2
    if d.family.name != "SO2n_Un" and n % 2:
        den = 2 * (r - 1 - np.arange(r)) + 1
        return _strided_bc((lam2 + den) / 2.0, den / 2.0)
    den2 = 2 * (r - 1 - np.arange(r))
    return _strided_d(lam2 + den2, den2)


@pytest.mark.parametrize("family,n,q", [
    ("SO", 10, None), ("SO", 13, None), ("USp", 6, None), ("GrR", 16, 4),
    ("GrR", 15, 3), ("GrH", 12, 3), ("SO2n_Un", 9, None), ("USpn_Un", 7, None),
])
def test_log_dimension_products_equal_the_strided_loops(family, n, q):
    d = describe(family, n, q)
    parts2 = label_rows(indexing_set(d), 24)[1:]
    assert np.array_equal(_vector_log_dim(d, parts2), _strided_log_dim(d, parts2))


# -- lower-bound coefficients ----------------------------------------------


def _fraction_zonal_square_series(d, t):
    total = 0.0
    for w, coeff in zonal_square_expansion(d).items():
        rate = casimir_exponent(d, w) if not w.is_zero else 0
        total += float(coeff) * math.exp(-t * float(rate) / 2.0)
    return total


def _fraction_mean_variance(d, t):
    """mean_variance with every coefficient taken from exact Fractions at t."""
    _, a_min, b_min = minimal_weight(d)
    mean = math.sqrt(float(a_min)) * math.exp(-t * float(b_min) / 2.0)
    if d.is_group:
        second = 1.0
        for w, mult in cutoff._group_square_terms(d):
            term = (float(dimension(d, w))
                    * math.exp(-t * float(casimir_exponent(d, w)) / 2.0))
            second += mult * term
    else:
        second = float(a_min) * _fraction_zonal_square_series(d, t)
    return mean, second - mean * mean


@pytest.mark.parametrize("family,n,q", [
    ("SO", 3, None), ("SO", 4, None), ("SO", 10, None), ("SO", 11, None),
    ("SU", 2, None), ("SU", 6, None), ("USp", 2, None), ("USp", 5, None),
    ("GrR", 16, 4), ("GrR", 5, 1), ("GrC", 14, 5), ("GrC", 2, 1),
    ("GrH", 12, 3), ("GrH", 2, 1), ("SO2n_Un", 2, None), ("SO2n_Un", 3, None),
    ("SO2n_Un", 12, None), ("SUn_SOn", 10, None), ("SU2n_USpn", 10, None),
    ("USpn_Un", 2, None), ("USpn_Un", 9, None),
])
def test_mean_variance_equals_the_fraction_path(family, n, q):
    d = describe(family, n, q)
    for t in (0.0, 0.37, 1.9, 4.2, 11.0):
        assert mean_variance(d, t) == _fraction_mean_variance(d, t)
        if not d.is_group:
            assert zonal_square_series(d, t) == _fraction_zonal_square_series(d, t)
