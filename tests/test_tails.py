"""The certified tails, the term table and the lower-bound coefficients
against their reference evaluations.

The library extends the type A tail's recurrence across horizon doublings,
runs it on the gcd-compressed size grid, carries each label's corrections
on from its parent in chunks, and caches time-independent numbers; none of
that may change a single bit of the results.  Two results have a tolerance instead.  The
partition tail is exact and rounded outward: it must lie at or above its
50-digit value and within 1e-12 relative of it.  log D^lambda, whose Weyl
factors against a label's trailing zeros telescope, must lie within
LOG_DIM_ATOL of the plain pair loop on every label and of the log of the
exact dimension on a sample that holds the longest labels.
"""

from __future__ import annotations

import math
import sys
import weakref
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from cutofflab import cutoff, heatseries
from cutofflab.cutoff import mean_variance, zonal_square_series
from cutofflab.heatseries import (_partition_tails, _su_dp_tail, _su_steps,
                                  _term_table, _vector_b, _vector_log_dim)
from cutofflab.moments import zonal_square_expansion
from cutofflab.partitions import Weight, _half_cap, label_table
from cutofflab.repchar import casimir_exponent, dimension
from cutofflab.errors import InvalidRank
from cutofflab.spaces import (FAMILY_NAMES, CharType, describe, indexing_set,
                              minimal_weight)
from table_oracle import oracle_log_dim, oracle_rate
from tail_oracle import (mpmath_partition_tail, oracle_su_dp_tail,
                         partition_tail)

BEYOND = (-3, -1, 0, 40, 80, 200)
LOG_DIM_ATOL = 1e-12


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

# a tail below the normal range carries the documented floor, about
# 2^-1074 P_L (stages x (beyond + 2) + 2 + 2 / |log x|), for its underflow
SUBNORMAL_SLACK = 2.0 ** -1074 * 1e6


def _assert_brackets(log_x, beyond, max_len):
    """true <= tail <= true (1 + 1e-12), the slack added below 1e-300; +inf
    only where the true tail passes the largest float."""
    got = partition_tail(log_x, beyond, max_len)
    true = mpmath_partition_tail(log_x, beyond, max_len)
    if got == math.inf:
        assert true > sys.float_info.max, (log_x, beyond, max_len)
        return
    assert mpmath.mpf(got) >= true, (log_x, beyond, max_len)
    assert mpmath.mpf(got) <= true * (1 + 1e-12) + SUBNORMAL_SLACK, \
        (log_x, beyond, max_len, got, true)


@pytest.mark.parametrize("log_x", [-0.001, -0.004, -0.02, -0.15, -1.0, -9.0])
def test_partition_tail_equals_the_oracle(log_x):
    # at log x = -9 the sizes 81 and 201 put the tail below the normal range
    lengths = (1, 4, 50, 500) if log_x > -0.1 else (*range(1, 21), 100, 500)
    for max_len in lengths:
        for beyond in BEYOND:
            _assert_brackets(log_x, beyond, max_len)


def test_partition_tail_brackets_the_oracle_at_long_lengths():
    # caps past max_len, and beyond 300, where a stage k > beyond only adds
    # to the last entry
    for log_x in (-0.25, -0.4, -0.7):
        for max_len in (3, 12, 20, 120, 500):
            for beyond in (-1, 300):
                _assert_brackets(log_x, beyond, max_len)


def test_partition_tail_in_the_subnormal_range():
    # tails from about 1e-300 down past the least subnormal, and stages
    # that stop where w_k underflows
    for log_x, sizes in ((-3.6, (150, 190, 200, 205, 250)),
                         (-4.5, (150, 160, 170)), (-30.0, (0, 20, 24, 30))):
        for max_len in (1, 2, 5, 20):
            for beyond in sizes:
                _assert_brackets(log_x, beyond, max_len)
    for beyond in (-1, 0, 3):  # w_1 underflows: no stage runs
        _assert_brackets(-800.0, beyond, 7)


def test_partition_tail_far_below_the_subnormal_range():
    # the oracle sums these tails directly: subtracting the head from P_L
    # would cancel (beyond + 1) |log x| / ln 10 digits, 52,000 at
    # log x = -800 and size 150
    for log_x in (-50.0, -100.0, -800.0):
        for max_len in (1, 2, 5, 20, 150):
            for beyond in (0, 40, 80, 150):
                _assert_brackets(log_x, beyond, max_len)
    assert mpmath_partition_tail(-800.0, 150, 20) < mpmath.mpf(10) ** -52000


def test_one_pass_brackets_the_oracle_below_a_half_cap_of_zero():
    # SO(1001) at cap 40: the half labels' size cap is -210, so their tail
    # sums every partition of at most 500 parts, in the pass that gives the
    # integer labels' tail beyond 40
    desc = describe("SO", 1001)
    t0 = heatseries.t_zero(desc)
    log_x = -(1.1 * t0 - t0) / 2.0
    half = _half_cap(40, 500)
    assert half < -1
    for got, beyond in zip(_partition_tails(log_x, (40, half), 500),
                           (40, half)):
        true = mpmath_partition_tail(log_x, beyond, 500)
        assert true <= mpmath.mpf(got) <= true * (1 + 1e-12), beyond


def test_partition_tail_at_non_negative_log_x_is_infinite():
    assert partition_tail(0.0, 5, 3) == math.inf


# -- log-dimension products ------------------------------------------------


def _exact_log_dim(d, parts2, row):
    dim = dimension(d, Weight(tuple(parts2[row].tolist()), indexing_set(d).kind))
    return math.log(dim.numerator) - math.log(dim.denominator)


def _padded_rows(d, cap):
    """The label table of d's kind and cap in its own order, padded to
    int64 rows of the indexing set's length, as the oracles read labels."""
    length = indexing_set(d).length
    labels = label_table(indexing_set(d), cap)
    parts2 = labels.rows(np.arange(len(labels))).astype(np.int64)
    return np.pad(parts2, ((0, 0), (0, length - parts2.shape[1])))


def _assert_log_dim(d, log_dim, parts2, samples=24):
    """log D^lambda within LOG_DIM_ATOL of the plain pair loop on every
    label, and of the exact dimension on about ``samples`` labels spread over
    the table plus the eight longest."""
    assert np.abs(log_dim - oracle_log_dim(d, parts2)).max() <= LOG_DIM_ATOL
    lengths = (parts2 != 0).sum(axis=1)
    rows = set(range(0, len(parts2), max(1, len(parts2) // samples)))
    rows.update(np.argsort(-lengths, kind="stable")[:8].tolist())
    for row in sorted(rows):
        assert abs(log_dim[row] - _exact_log_dim(d, parts2, row)) <= LOG_DIM_ATOL, row


@pytest.mark.parametrize("family,n,q", [
    ("SO", 10, None), ("SO", 13, None), ("USp", 6, None), ("GrR", 16, 4),
    ("GrR", 15, 3), ("GrH", 12, 3), ("SO2n_Un", 9, None), ("USpn_Un", 7, None),
])
def test_log_dimension_products_equal_the_strided_loops(family, n, q):
    # the oracle's one strided pass per factor, at a cap between the term
    # table test's two
    d = describe(family, n, q)
    parts2 = _padded_rows(d, 24)
    labels = label_table(indexing_set(d), 24)
    _assert_log_dim(d, _vector_log_dim(d, labels), parts2)


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_log_dimension_at_the_smallest_caps_equals_the_exact_dimension(family):
    # parts of 1/2 and 1 alone: the narrowest tables of odd and even parts
    for n in range(2, 9):
        for q in ((1, n // 2) if family.startswith("Gr") else (None,)):
            try:
                d = describe(family, n, q)
            except InvalidRank:
                continue
            for cap in (Fraction(1, 2), 1, Fraction(3, 2), 2, 3):
                parts2 = _padded_rows(d, cap)
                if len(parts2):
                    labels = label_table(indexing_set(d), cap)
                    _assert_log_dim(d, _vector_log_dim(d, labels), parts2)


@pytest.mark.parametrize("family,n", [("SO", 1000), ("SU", 1000), ("USp", 1000),
                                      ("SO2n_Un", 500), ("SO", 10 ** 5),
                                      ("SU", 10 ** 5), ("USp", 10 ** 5)])
def test_log_dimension_at_rank_one_thousand_equals_the_exact_dimension(family, n):
    # from rank 1000 to 10^5 the plain pair loop is too slow to serve as the
    # reference; the exact dimension is, on 20 labels holding the longest
    d = describe(family, n)
    labels = label_table(indexing_set(d), 12)
    log_dim = _vector_log_dim(d, labels)
    parts2 = labels.rows(np.arange(len(labels)))
    lengths = (parts2 != 0).sum(axis=1)
    rows = set(np.argsort(-lengths, kind="stable")[:8].tolist())
    rows.update(range(0, len(parts2), max(1, len(parts2) // 16)))
    assert len(rows) >= 20
    idx = indexing_set(d)
    for row in sorted(rows):
        head = tuple(int(v) // 2 for v in parts2[row])
        dim = dimension(d, idx.label(head))
        exact = math.log(dim.numerator) - math.log(dim.denominator)
        assert abs(log_dim[row] - exact) <= 1e-10, row


# -- term table ------------------------------------------------------------

# every root type and label kind: type A with Y (SU), symmetric Y (GrC),
# evenY (SUn_SOn) and doubledY (SU2n_USpn); halfY on B and D (odd and even
# SO); evenOrOddY on B and D (GrR); type C with Y (USp), doubledY (GrH) and
# evenY (USpn_Un); doubledY on D (SO2n_Un).  Tables at cap 40 span several
# row chunks.
_TABLE_SPACES = [
    ("SU", 7, None), ("GrC", 14, 5), ("GrC", 52, 3), ("SUn_SOn", 10, None),
    ("SU2n_USpn", 12, None), ("SU2n_USpn", 41, None), ("SO", 11, None),
    ("SO", 12, None), ("SO", 40, None), ("GrR", 15, 3), ("GrR", 16, 4),
    ("USp", 6, None), ("GrH", 12, 3), ("GrH", 40, 3), ("SO2n_Un", 12, None),
    ("SO2n_Un", 30, None), ("USpn_Un", 9, None), ("USpn_Un", 20, None),
]


def _oracle_log_a(d, log_dim):
    log_a = 2.0 * log_dim if d.is_group else log_dim
    if d.is_group and d.root.type is CharType.D:
        log_a = log_a + math.log(2.0)
    return log_a


@pytest.mark.parametrize("cap", [12, 40])
@pytest.mark.parametrize("family,n,q", _TABLE_SPACES,
                         ids=[str(describe(*c)) for c in _TABLE_SPACES])
def test_term_table_equals_the_plain_pair_loop(family, n, q, cap):
    d = describe(family, n, q)
    parts2 = _padded_rows(d, cap)
    table = _term_table(d, cap)
    assert [part.store for part in table.labels.parts] == [
        part.store for part in label_table(indexing_set(d), cap).parts]
    _assert_log_dim(d, table.log_dim, parts2)
    assert np.array_equal(table.b, oracle_rate(d, parts2))
    assert np.array_equal(table.log_a, _oracle_log_a(d, table.log_dim))


@pytest.mark.parametrize("family,n,q,cap", [
    ("SU2n_USpn", 41, None, 12), ("GrC", 20, 5, 12), ("USpn_Un", 20, None, 40),
    ("SO", 11, None, 12), ("SO", 25, None, 12)])
def test_log_dimension_chunk_edges_cut_the_prefixes(monkeypatch, family, n, q,
                                                    cap):
    # a prime block size puts chunk edges inside the levels, and the type A
    # corrections are carried again under it
    monkeypatch.setattr(heatseries, "_BLOCK", 127)
    monkeypatch.setattr(heatseries, "_RANK_FREE", weakref.WeakKeyDictionary())
    d = describe(family, n, q)
    parts2 = _padded_rows(d, cap)
    labels = label_table(indexing_set(d), cap)
    assert len(parts2) > 2 * (127 // labels.width)
    _assert_log_dim(d, _vector_log_dim(d, labels), parts2)
    assert np.array_equal(_vector_b(d, labels), oracle_rate(d, parts2))


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
