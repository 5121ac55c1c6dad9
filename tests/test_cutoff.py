"""Tests for the observable, its heat-flow moments, and the profile bounds."""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from cutofflab import cutoff as co
from cutofflab import sampler as sa
from cutofflab import spaces
from cutofflab.errors import FieldMismatch, UnsupportedSpace
from cutofflab.heatseries import t_zero


def _table_mean_variance(family: str, n: int, q, t: float):
    """The closed-form mean/variance table, frozen as an independent oracle."""
    e = math.exp
    if family == "SO":
        return (n * e(-(n - 1) * t / (2 * n)),
                1 + n * (n - 1) / 2 * e(-(n - 2) * t / n)
                + (n * (n + 1) / 2 - 1) * e(-t)
                - n * n * e(-(n - 1) * t / n))
    if family == "SU":
        return (n * e(-(n * n - 1) * t / (2 * n * n)),
                1 + (n * n - 1) * e(-t) - n * n * e(-(n * n - 1) * t / (n * n)))
    if family == "USp":
        return (2 * n * e(-(2 * n + 1) * t / (4 * n)),
                1 + (2 * n + 1) * (n - 1) * e(-t)
                + (2 * n + 1) * n * e(-(n + 1) * t / n)
                - 4 * n * n * e(-(2 * n + 1) * t / (2 * n)))
    if family == "GrR":
        pq = (n - q) * q
        return (math.sqrt((n + 2) * (n - 1) / 2) * e(-t),
                1 + (2 * n * n / pq - 8) * (n - 1) * (n + 2)
                / ((n - 2) * (n + 4)) * e(-t)
                + n * n / 3 * ((n + 2) / (n - 2)
                               - (n + 2) * (n - 1) / (pq * (n - 2)))
                * e(-(2 * n - 2) * t / n)
                + n * n / 6 * ((n - 1) / (n + 4)
                               + 2 * (n + 2) * (n - 1) / (pq * (n + 4)))
                * e(-(2 * n + 4) * t / n)
                - (n + 2) * (n - 1) / 2 * e(-2 * t))
    if family == "GrC":
        pq = (n - q) * q
        return (math.sqrt(n * n - 1) * e(-t),
                1 + (2 * n * n / pq - 8) * (n * n - 1) / (n * n - 4) * e(-t)
                + n * n / 2 * ((n + 1) / (n - 2)
                               - (n * n - 1) / (pq * (n - 2)))
                * e(-(2 * n - 2) * t / n)
                + n * n / 2 * ((n - 1) / (n + 2)
                               + (n * n - 1) / (pq * (n + 2)))
                * e(-(2 * n + 2) * t / n)
                - (n * n - 1) * e(-2 * t))
    if family == "GrH":
        pq = (n - q) * q
        return (math.sqrt((2 * n + 1) * (n - 1)) * e(-t),
                1 + (n * n / pq - 4) * (n - 1) * (2 * n + 1)
                / ((n - 2) * (n + 1)) * e(-t)
                + n * n / 3 * ((2 * n + 1) / (n - 2)
                               - (2 * n + 1) * (n - 1) / (pq * (n - 2)))
                * e(-(2 * n - 2) * t / n)
                + n * n / 3 * (4 * (n - 1) / (n + 1)
                               + (2 * n + 1) * (n - 1) / (pq * (n + 1)))
                * e(-(2 * n + 1) * t / n)
                - (2 * n + 1) * (n - 1) * e(-2 * t))
    if family == "SO2n_Un":
        return (math.sqrt(n * (2 * n - 1)) * e(-(n - 1) * t / n),
                1 + (n - 1) * (2 * n - 1) / 3 * e(-(2 * n - 4) * t / n)
                + 4 * (n * n - 1) / 3 * e(-(2 * n - 1) * t / n)
                - n * (2 * n - 1) * e(-(2 * n - 2) * t / n))
    if family == "SUn_SOn":
        return (math.sqrt(n * (n + 1) / 2) * e(-(n - 1) * (n + 2) * t / (n * n)),
                1 + (n + 2) * (n - 1) / 2 * e(-(2 * n + 2) * t / n)
                - n * (n + 1) / 2 * e(-(n - 1) * (2 * n + 4) * t / (n * n)))
    if family == "SU2n_USpn":
        return (math.sqrt(2 * n * n - n) * e(-(n - 1) * (2 * n + 1) * t / (2 * n * n)),
                1 + (2 * n * n - n - 1) * e(-(2 * n - 1) * t / n)
                - (2 * n * n - n) * e(-(n - 1) * (2 * n + 1) * t / (n * n)))
    if family == "USpn_Un":
        return (math.sqrt(n * (2 * n + 1)) * e(-(n + 1) * t / n),
                1 + 4 * (n - 1) * (n + 1) / 3 * e(-(2 * n + 1) * t / n)
                + (2 * n + 1) * (n + 1) / 3 * e(-(2 * n + 4) * t / n)
                - n * (2 * n + 1) * e(-(2 * n + 2) * t / n))
    raise AssertionError(family)


_MV_CASES = [("SO", 4, None), ("SO", 5, None), ("SO", 7, None),
             ("SO", 10, None), ("SU", 2, None),
             ("SU", 8, None), ("USp", 3, None), ("GrR", 10, 3),
             ("GrR", 13, 6), ("GrC", 5, 2), ("GrH", 3, 1), ("GrH", 6, 2),
             ("SO2n_Un", 3, None), ("SO2n_Un", 10, None),
             ("SUn_SOn", 5, None), ("SU2n_USpn", 2, None),
             ("USpn_Un", 3, None)]


@pytest.mark.parametrize("family,n,q", _MV_CASES)
@pytest.mark.parametrize("t", [0.0, 0.35, 1.0, 4.2])
def test_mean_variance_matches_the_closed_forms(family, n, q, t):
    desc = spaces.describe(family, n, q)
    mean, var = co.mean_variance(desc, t)
    want_mean, want_var = _table_mean_variance(family, n, q, t)
    assert abs(mean - want_mean) < 1e-12 * (1 + abs(want_mean))
    assert abs(var - want_var) < 1e-12 * (1 + abs(want_var))


def test_mean_variance_at_rank_one_thousand_is_quick():
    # the exact dimensions of the group square terms take a few runs per
    # coordinate, so SU(10^4) is quick too
    for n in (1000, 10 ** 4):
        desc = spaces.describe("SU", n)
        t = t_zero(desc)
        start = time.perf_counter()
        mean, var = co.mean_variance(desc, t)
        assert time.perf_counter() - start < 1.0, n
        want_mean, want_var = _table_mean_variance("SU", n, None, t)
        assert abs(mean - want_mean) < 1e-12 * (1 + abs(want_mean))
        assert abs(var - want_var) < 1e-9 * (1 + abs(want_var))


@pytest.mark.parametrize("family,n,q", _MV_CASES)
def test_variance_vanishes_at_zero_and_tends_to_one(family, n, q):
    desc = spaces.describe(family, n, q)
    _, var0 = co.mean_variance(desc, 0.0)
    assert abs(var0) < 1e-10
    mean_inf, var_inf = co.mean_variance(desc, 200.0)
    assert abs(mean_inf) < 1e-10
    assert abs(var_inf - 1.0) < 1e-10


@pytest.mark.parametrize("family,n,q", _MV_CASES)
def test_variance_is_nonnegative_along_a_grid(family, n, q):
    desc = spaces.describe(family, n, q)
    for t in np.linspace(0.0, 8.0, 33):
        _, var = co.mean_variance(desc, float(t))
        assert var >= -1e-10


def test_mean_at_zero_is_the_observable_at_the_identity():
    for family, n, q in _MV_CASES:
        desc = spaces.describe(family, n, q)
        mean, _ = co.mean_variance(desc, 0.0)
        eye = np.eye(spaces.matrix_side(desc.algebra, desc.param))
        assert abs(co.omega_value(desc, eye) - mean) < 1e-12


def test_trace_observable_on_a_diagonal_special_unitary():
    w = np.exp(2j * math.pi / 3)
    g = np.diag([1.0 + 0j, w, w.conjugate()])
    val = co.omega_value(spaces.describe("SU", 3), g)
    assert abs(val) < 1e-12


def test_real_families_reject_complex_matrices():
    g = np.eye(5, dtype=complex)
    g[0, 1] = 0.3j
    with pytest.raises(FieldMismatch):
        co.omega_value(spaces.describe("SO", 5), g)
    with pytest.raises(FieldMismatch):
        co.zonal_value(spaces.describe("GrR", 5, 2), g)


def test_shape_mismatch_is_rejected():
    with pytest.raises(ValueError):
        co.omega_value(spaces.describe("USp", 3), np.eye(3))


def test_groups_have_no_zonal_polynomial():
    with pytest.raises(UnsupportedSpace):
        co.zonal_value(spaces.describe("SO", 5), np.eye(5))


@pytest.mark.parametrize("family,n,q", [
    ("GrR", 10, 3), ("GrC", 5, 2), ("GrH", 3, 1), ("SO2n_Un", 3, None),
    ("SUn_SOn", 5, None), ("SU2n_USpn", 2, None), ("USpn_Un", 3, None)])
def test_zonal_function_is_one_at_the_identity(family, n, q):
    desc = spaces.describe(family, n, q)
    eye = np.eye(spaces.matrix_side(desc.algebra, desc.param))
    assert abs(co.zonal_value(desc, eye) - 1.0) < 1e-12


@pytest.mark.parametrize("family,n,q", [
    ("GrC", 2, 1), ("GrH", 3, 1), ("SO2n_Un", 3, None),
    ("SUn_SOn", 2, None), ("SU2n_USpn", 2, None), ("USpn_Un", 3, None)])
@pytest.mark.parametrize("t", [0.2, 1.0])
def test_zonal_square_series_agrees_with_the_moment_route(family, n, q, t):
    desc = spaces.describe(family, n, q)
    series = co.zonal_square_series(desc, t)
    moments = co.zonal_square_via_moments(desc, t)
    assert abs(series - moments) < 1e-9


def _special_orthogonal(rng, k):
    q, r = np.linalg.qr(rng.standard_normal((k, k)))
    q = q * np.sign(np.diag(r))
    q[:, 0] *= np.sign(np.linalg.det(q))
    return q


def _unitary(rng, k, special=False):
    q, r = np.linalg.qr(rng.standard_normal((k, k))
                        + 1j * rng.standard_normal((k, k)))
    d = np.diag(r)
    q = q * (d / np.abs(d))
    if special:
        q = q * np.exp(-1j * np.angle(np.linalg.det(q)) / k)
    return q


def _symplectic(rng, k):
    """USp(k) in the interleaved quaternionic layout of the sampler."""
    a, b = (_unitary(rng, k) for _ in range(2))
    return sa._project("usp", sa._embed_quaternion(a, b))


def _realified(u):
    """U(n) acting on R^2n, one interleaved 2 x 2 block per entry."""
    n = len(u)
    out = np.empty((2 * n, 2 * n))
    out[0::2, 0::2], out[0::2, 1::2] = u.real, -u.imag
    out[1::2, 0::2], out[1::2, 1::2] = u.imag, u.real
    return out


def _block_diagonal(top, bottom):
    size = len(top) + len(bottom)
    out = np.zeros((size, size), dtype=np.result_type(top, bottom))
    out[:len(top), :len(top)] = top
    out[len(top):, len(top):] = bottom
    return out


def _stabiliser(desc, rng):
    """A random element of the subgroup K with the space = G / K."""
    fam, n, q = desc.family.value, desc.n, desc.q
    if fam == "GrR":
        return _block_diagonal(_special_orthogonal(rng, n - q),
                               _special_orthogonal(rng, q))
    if fam == "GrC":
        return _block_diagonal(_unitary(rng, n - q, special=True),
                               _unitary(rng, q, special=True))
    if fam == "GrH":
        return _block_diagonal(_symplectic(rng, n - q), _symplectic(rng, q))
    if fam == "SO2n_Un":
        return _realified(_unitary(rng, n))
    if fam == "SUn_SOn":
        return _special_orthogonal(rng, n)
    if fam == "SU2n_USpn":
        return _symplectic(rng, n)
    u = _unitary(rng, n)  # USpn_Un
    return sa._embed_quaternion(u.real, u.imag)


_QUOTIENTS = [("GrR", 10, 3), ("GrC", 5, 2), ("GrH", 4, 1),
              ("SO2n_Un", 3, None), ("SUn_SOn", 5, None),
              ("SU2n_USpn", 3, None), ("USpn_Un", 3, None)]


@pytest.mark.parametrize("family,n,q", _QUOTIENTS)
def test_zonal_function_is_bi_invariant_under_the_stabiliser(family, n, q):
    desc = spaces.describe(family, n, q)
    rng = np.random.default_rng(17)
    for seed in range(3):
        g = sa.haar_sample(desc, seed=seed)
        k1, k2 = _stabiliser(desc, rng), _stabiliser(desc, rng)
        value = co.zonal_value(desc, g)
        assert abs(value - 1.0) > 1e-6  # not the constant function
        assert abs(co.zonal_value(desc, k1 @ g @ k2) - value) < 1e-12
        assert isinstance(value, complex) == (family in ("SUn_SOn",
                                                         "SU2n_USpn"))


def test_bi_invariance_detects_a_wrong_stabiliser():
    # U(n) embedded as complex matrices with no quaternionic part does not
    # fix the basepoint of USp(n) / U(n)
    desc = spaces.describe("USpn_Un", 3)
    rng = np.random.default_rng(17)
    g = sa.haar_sample(desc, seed=0)
    u = _unitary(rng, 3)
    k = sa._embed_quaternion(u, np.zeros((3, 3)))
    assert abs(co.zonal_value(desc, k @ g) - co.zonal_value(desc, g)) > 1e-3


def test_variance_caps_per_family():
    assert co.variance_cap(spaces.describe("SO", 10), 1.0) == 8.0
    assert co.variance_cap(spaces.describe("SU", 8), 1.0) == 1.0
    assert co.variance_cap(spaces.describe("USp", 3), 1.0) == 3.0
    desc = spaces.describe("GrR", 10, 3)
    eps = 0.2
    t = (1 - eps) * t_zero(desc)
    assert abs(co.variance_cap(desc, t) - 3 * 10 ** eps) < 1e-12


@pytest.mark.parametrize("n", [10, 20, 40])
@pytest.mark.parametrize("eps", [0.05, 0.125, 0.2])
def test_orthogonal_lower_bound_dominates_the_stated_form(n, eps):
    desc = spaces.describe("SO", n)
    t = 2 * (1 - eps) * math.log(n)
    assert co.lower_bound(desc, t) >= 1 - 36 / n ** (2 * eps) - 1e-12


@pytest.mark.parametrize("family,coeff", [("GrR", 32), ("GrC", 32), ("GrH", 16)])
def test_grassmannian_lower_bound_dominates_the_stated_form(family, coeff):
    n, q = 30, 9
    for eps in (0.05, 0.125, 0.2):
        desc = spaces.describe(family, n, q)
        t = (1 - eps) * math.log(n)
        want = 1 - coeff / n ** eps
        assert co.lower_bound(desc, t) >= want - 1e-12


def test_lower_bound_collapses_after_the_cut_off_time():
    desc = spaces.describe("SU", 6)
    assert co.lower_bound(desc, 8 * t_zero(desc)) == 0.0


def test_certified_window_brackets_the_cut_off_time():
    desc = spaces.describe("USp", 5)
    lo, hi = co.certified_window(desc)
    assert abs(hi - t_zero(desc)) < 1e-12
    assert abs(lo - 0.75 * hi) < 1e-12


def test_profile_upper_is_nonincreasing_and_bounds_cross_over():
    desc = spaces.describe("SU", 8)
    t0 = t_zero(desc)
    grid = np.linspace(0.3 * t0, 2.2 * t0, 25)
    points = co.profile(desc, grid)
    uppers = [p.upper for p in points]
    assert all(a >= b - 1e-12 for a, b in zip(uppers, uppers[1:]))
    lo, hi = co.certified_window(desc)
    for p in points:
        assert 0.0 <= p.lower <= 1.0 and 0.0 <= p.upper <= 1.0
        if lo <= p.t <= hi:
            assert p.lower <= p.upper + 1e-12


def test_profile_csv_layout(capsys):
    from cutofflab import cli

    assert cli.main(["profile", "--family", "SO", "--n", "11", "--t-min", "1",
                     "--t-max", "2", "--points", "2", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "t,lower,upper"
    assert len(lines) == 3
    assert all(len(line.split(",")) == 3 for line in lines[1:])


def test_profile_json_round_trip(capsys):
    import json

    from cutofflab import cli

    assert cli.main(["profile", "--family", "SO", "--n", "11", "--t-min", "2",
                     "--t-max", "3", "--points", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["points"][0]["t"] == 2.0
    assert set(payload["points"][0]) == {"t", "lower", "upper"}
    desc = spaces.describe("SO", 11)
    assert [[p["t"], p["lower"], p["upper"]] for p in payload["points"]] == [
        [p.t, p.lower, p.upper] for p in co.profile(desc, [2.0, 3.0])]
