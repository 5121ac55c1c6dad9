"""Tests for path simulation, uniform sampling, and Monte Carlo estimates."""

from __future__ import annotations

import ast
import math
import time
from pathlib import Path

import numpy as np
import pytest

from cutofflab import cutoff as co
from cutofflab import sampler as sa
from cutofflab import spaces
from cutofflab.errors import TooLarge, UnsupportedStatistic
from cutofflab.repchar import casimir_exponent
from tensor_oracle import casimir_tensor


def _membership_residual(desc, g):
    n = spaces.matrix_side(desc.algebra, desc.param)
    unitary = np.linalg.norm(g.conj().T @ g - np.eye(n))
    if desc.family.name in ("SO", "GrR"):
        real = np.linalg.norm(np.asarray(g).imag) if np.iscomplexobj(g) else 0.0
        det = abs(np.linalg.det(g) - 1.0)
        return max(unitary, real, det)
    if desc.family.name in ("SU", "GrC", "SUn_SOn"):
        return max(unitary, abs(np.linalg.det(g) - 1.0))
    j = np.zeros((n, n))
    for i in range(0, n, 2):
        j[i, i + 1] = 1.0
        j[i + 1, i] = -1.0
    sympl = np.linalg.norm(g.T @ j @ g - j)
    return max(unitary, sympl)


_SPACES = [("SO", 5, None), ("SU", 4, None), ("USp", 3, None),
           ("GrC", 4, 1), ("GrH", 3, 1)]


@pytest.mark.parametrize("family,n,q", _SPACES)
def test_simulated_endpoints_stay_on_the_group(family, n, q):
    desc = spaces.describe(family, n, q)
    config = sa.SimulationConfig(paths=3, seed=11, step_size=0.04)
    mats = sa.simulate_endpoints(desc, 1.3, config, range(3))
    for g in mats:
        assert _membership_residual(desc, g) < 1e-12


@pytest.mark.parametrize("family,n,q", _SPACES)
def test_haar_samples_lie_on_the_group(family, n, q):
    desc = spaces.describe(family, n, q)
    for index in range(3):
        g = sa.haar_sample(desc, seed=7, index=index)
        assert _membership_residual(desc, g) < 1e-12


def _endpoint(desc, t, seed, path=0):
    config = sa.SimulationConfig(paths=1, seed=seed)
    return sa.simulate_endpoints(desc, t, config, [path])[0]


def test_paths_are_deterministic_and_distinct():
    desc = spaces.describe("SU", 3)
    a = _endpoint(desc, 0.8, seed=4)
    b = _endpoint(desc, 0.8, seed=4)
    c = _endpoint(desc, 0.8, seed=4, path=1)
    d = _endpoint(desc, 0.8, seed=5)
    assert np.array_equal(a, b)
    assert not np.allclose(a, c)
    assert not np.allclose(a, d)


def test_estimates_do_not_depend_on_the_thread_count():
    desc = spaces.describe("SO", 4)
    one = sa.estimate(desc, "trace", 0.9,
                      sa.SimulationConfig(paths=64, seed=2, threads=1))
    four = sa.estimate(desc, "trace", 0.9,
                       sa.SimulationConfig(paths=64, seed=2, threads=4))
    assert one.mean == four.mean
    assert one.std_error == four.std_error


def test_time_zero_paths_sit_at_the_identity():
    desc = spaces.describe("USp", 2)
    config = sa.SimulationConfig(paths=2, seed=0)
    mats = sa.simulate_endpoints(desc, 0.0, config, range(2))
    for g in mats:
        assert np.linalg.norm(g - np.eye(4)) < 1e-12


def test_config_validation():
    with pytest.raises(ValueError):
        sa.SimulationConfig(paths=0)
    with pytest.raises(ValueError):
        sa.SimulationConfig(step_size=0.2)
    with pytest.raises(ValueError):
        sa.SimulationConfig(step_size=0.0)
    with pytest.raises(ValueError):
        sa.SimulationConfig(threads=0)


def test_config_refuses_more_paths_than_the_limit():
    assert sa.SimulationConfig(paths=sa.MAX_PATHS).paths == sa.MAX_PATHS
    with pytest.raises(TooLarge, match="exceed the limit"):
        sa.SimulationConfig(paths=sa.MAX_PATHS + 1)


def test_step_counts_past_the_limit_are_refused_before_any_draw(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("a refused time drew normals")

    monkeypatch.setattr(sa, "_Streams", no_draws)
    desc = spaces.describe("SO", 3)
    config = sa.SimulationConfig(paths=2)
    limit = sa._MAX_STEP_COUNT * config.step_size
    for t in (1e308, limit * (1.0 + 1e-12), math.nextafter(limit, math.inf)):
        start = time.perf_counter()
        with pytest.raises(TooLarge, match="needs more than 100000 steps"):
            sa.simulate_endpoints(desc, t, config, [0, 1])
        assert time.perf_counter() - start < 1.0
    # the limit sits far above every time the checks and benchmarks run
    assert limit >= 1000.0


def test_statistic_validation():
    desc = spaces.describe("SO", 4)
    config = sa.SimulationConfig(paths=2)
    with pytest.raises(UnsupportedStatistic):
        sa.estimate(desc, "skewness", 1.0, config)
    with pytest.raises(ValueError):
        sa.estimate(desc, "indicator", 1.0, config)
    with pytest.raises(ValueError, match="must not be NaN"):
        sa.estimate(desc, "indicator", 1.0, config, threshold=math.nan)
    for statistic, t in (("trace", 1.0), ("abs_omega_sq", None)):
        with pytest.raises(ValueError, match="indicator statistic only"):
            sa.estimate(desc, statistic, t, config, threshold=0.5)


def test_infinite_thresholds_keep_their_meaning():
    # |v| >= -inf holds on every path and |v| >= inf on none
    desc = spaces.describe("SO", 3)
    config = sa.SimulationConfig(paths=4, seed=1)
    for threshold, mean in ((-math.inf, 1.0), (math.inf, 0.0)):
        est = sa.estimate(desc, "indicator", 0.1, config, threshold=threshold)
        assert est.mean == mean


def test_unitary_trace_matches_its_heat_flow_mean():
    desc = spaces.describe("SU", 3)
    t = 1.0
    config = sa.SimulationConfig(paths=1500, seed=3, threads=2)
    est = sa.estimate(desc, "trace", t, config)
    want, _ = co.mean_variance(desc, t)
    assert abs(complex(est.mean) - want) < 4 * est.std_error


def test_orthogonal_variance_matches_its_heat_flow_spread():
    desc = spaces.describe("SO", 5)
    t = 0.7
    config = sa.SimulationConfig(paths=1500, seed=9, threads=2)
    sq = sa.estimate(desc, "abs_trace_sq", t, config)
    mean, var = co.mean_variance(desc, t)
    assert abs(complex(sq.mean) - (var + mean ** 2)) < 4 * sq.std_error


def test_uniform_trace_second_moment_is_one():
    desc = spaces.describe("SU", 4)
    config = sa.SimulationConfig(paths=1500, seed=1, threads=2)
    est = sa.estimate(desc, "abs_trace_sq", None, config)
    assert abs(complex(est.mean) - 1.0) < 4 * est.std_error


def test_zonal_statistic_tracks_its_series_mean():
    desc = spaces.describe("GrC", 4, 1)
    t = 0.6
    config = sa.SimulationConfig(paths=1200, seed=6, threads=2)
    est = sa.estimate(desc, "zonal_min", t, config)
    rate = float(casimir_exponent(desc, spaces.minimal_weight(desc)[0]))
    want = math.exp(-t * rate / 2)
    assert abs(complex(est.mean) - want) < 4 * est.std_error


def test_entry_square_relaxes_toward_the_uniform_value():
    desc = spaces.describe("SO", 6)
    config = sa.SimulationConfig(paths=1200, seed=12, threads=2)
    est = sa.estimate(desc, "entry_sq", 30.0, config)
    assert abs(complex(est.mean) - 1 / 6) < 4 * est.std_error


def test_indicator_statistic_obeys_a_second_moment_bound():
    desc = spaces.describe("SU", 4)
    config = sa.SimulationConfig(paths=800, seed=8, threads=2)
    est = sa.estimate(desc, "indicator", None, config, threshold=2.0)
    assert 0.0 <= float(est.mean) <= 0.25 + 4 * est.std_error


def test_omega_statistic_reduces_to_the_trace_on_groups():
    desc = spaces.describe("USp", 2)
    config = sa.SimulationConfig(paths=16, seed=5)
    a = sa.estimate(desc, "trace", 0.5, config)
    b = sa.estimate(desc, "omega", 0.5, config)
    assert a.mean == b.mean


def test_estimate_serialization(capsys):
    import json

    from cutofflab import cli

    assert cli.main(["estimate", "--family", "SU", "--n", "2", "--t", "0.4",
                     "--statistic", "trace", "--paths", "8"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["statistic"] == "trace"
    assert payload["n_samples"] == 8
    assert payload["t"] == 0.4
    est = sa.estimate(spaces.describe("SU", 2), "trace", 0.4,
                      sa.SimulationConfig(paths=8, seed=0))
    assert payload["mean"] == est.mean
    assert payload["std_error"] == est.std_error


def test_step_count_scales_with_time():
    desc = spaces.describe("SO", 4)
    short = _endpoint(desc, 0.01, seed=0)
    assert _membership_residual(desc, short) < 1e-12


# -- stream layout: one Philox stream per path ------------------------------

_STREAM_SPACES = [("SU", 3, None), ("SO", 5, None), ("USp", 2, None),
                  ("GrH", 3, 1)]


@pytest.mark.parametrize("family,n,q", _STREAM_SPACES)
def test_a_path_does_not_depend_on_its_batch(family, n, q):
    desc = spaces.describe(family, n, q)
    config = sa.SimulationConfig(paths=300, seed=21)
    inside = sa.simulate_endpoints(desc, 0.33, config, range(0, 300))[250:260]
    alone = sa.simulate_endpoints(desc, 0.33, config, range(250, 260))
    single = np.stack([sa.simulate_endpoints(desc, 0.33, config, [p])[0]
                       for p in range(250, 260)])
    assert np.array_equal(inside, alone)
    assert np.array_equal(inside, single)


@pytest.mark.parametrize("family,n,q,statistic,t", [
    ("SU", 3, None, "trace", 0.3),
    ("SO", 10, None, "abs_trace_sq", 0.12),
    ("GrC", 4, 1, "abs_omega_sq", 0.25),
    ("USpn_Un", 2, None, "omega", 0.25),
    ("SO", 10, None, "trace", None),
    ("GrR", 5, 2, "zonal_min", None),
])
def test_estimates_are_identical_for_every_thread_count(family, n, q,
                                                        statistic, t):
    # 300 paths cross the 256-path chunk on one thread; two and three
    # threads cut the range at other places
    desc = spaces.describe(family, n, q)
    runs = [sa.estimate(desc, statistic, t,
                        sa.SimulationConfig(paths=300, seed=4, threads=k))
            for k in (1, 2, 3)]
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("family,n,algebra", [("SU", 3, "su"), ("SO", 4, "so"),
                                              ("USp", 2, "usp")])
def test_a_path_reads_its_own_philox_stream(family, n, algebra):
    # key (seed, 0), counter (0, 0, path // 256, 0): one (steps, 256, dim g)
    # block in step order, of which the path reads row path % 256
    from scipy.linalg import expm
    desc = spaces.describe(family, n)
    seed, t = 9, 0.2
    basis = sa._dense_basis(algebra, n)
    for path in (7, 300):
        rng = np.random.Generator(np.random.Philox(
            key=np.array([seed, 0], dtype=np.uint64),
            counter=np.array([0, 0, path // 256, 0], dtype=np.uint64)))
        normals = rng.standard_normal((4, 256, len(basis)))[:, path % 256]
        want = np.eye(spaces.matrix_side(desc.algebra, desc.param))
        for z in normals:
            want = want @ expm(
                math.sqrt(t / 4) * np.einsum("k,kij->ij", z, basis))
        got = _endpoint(desc, t, seed=seed, path=path)
        assert np.abs(got - want).max() < 1e-12


@pytest.mark.parametrize("family,n", [("SU", 3), ("SO", 4), ("USp", 2)])
def test_drawing_window_does_not_change_the_paths(family, n, monkeypatch):
    desc = spaces.describe(family, n)
    config = sa.SimulationConfig(paths=4, seed=8)
    t = 3.3  # 66 steps: two default windows, fourteen of width 5, one of 100
    default = sa.simulate_endpoints(desc, t, config, range(4))
    for window in (5, 100):
        monkeypatch.setattr(sa, "_WINDOW", window)
        assert np.array_equal(
            sa.simulate_endpoints(desc, t, config, range(4)), default)


def test_a_window_holds_a_bounded_count_of_normals(monkeypatch):
    # SO(12) has dim g = 66: a budget of 256 * 66 * 3 numbers draws its
    # 13 steps three at a time, with the same endpoints
    desc = spaces.describe("SO", 12)
    config = sa.SimulationConfig(paths=2, seed=8)
    default = sa.simulate_endpoints(desc, 0.63, config, [1, 300])
    sizes = []
    draw = sa._Streams.draw

    def recording(self, lead, shape):
        sizes.append(lead[0] * 256 * shape[0])
        return draw(self, lead, shape)

    monkeypatch.setattr(sa._Streams, "draw", recording)
    monkeypatch.setattr(sa, "_WINDOW_NORMALS", 256 * 66 * 3 + 5)
    windowed = sa.simulate_endpoints(desc, 0.63, config, [1, 300])
    assert np.array_equal(windowed, default)
    assert sizes == [256 * 66 * 3] * 4 + [256 * 66]


# -- one invariant metric ---------------------------------------------------

_ALGEBRAS = ([("so", n) for n in range(3, 7)] + [("su", n) for n in range(2, 6)]
             + [("usp", n) for n in range(2, 5)])


@pytest.mark.parametrize("algebra,n", _ALGEBRAS)
def test_sampler_basis_squares_to_the_casimir_tensor(algebra, n):
    basis = sa._dense_basis(algebra, n)
    total = sum(np.kron(x, x) for x in basis)
    assert np.abs(total - casimir_tensor(algebra, n)).max() < 1e-14


@pytest.mark.parametrize("algebra,n", _ALGEBRAS)
def test_coefficients_map_through_the_basis(algebra, n):
    # the elements come out in real form, [[A, -B], [B, A]] for A + iB
    basis = sa._dense_basis(algebra, n)
    real = sa._real_form(algebra, basis)
    assert np.array_equal(sa._complex_form(algebra, real), basis)
    assert np.array_equal(
        sa._algebra_elements(algebra, n, np.eye(len(basis))), real)
    coeffs = np.random.default_rng(n).standard_normal((5, len(basis)))
    want = np.einsum("pk,kij->pij", coeffs, real)
    assert np.abs(sa._algebra_elements(algebra, n, coeffs) - want).max() < 1e-14


# -- the Euler step's exponential: real scaling and squaring ----------------

_STEP_ALGEBRAS = ([("so", n) for n in range(3, 13)]
                  + [("su", n) for n in range(2, 9)]
                  + [("usp", n) for n in range(2, 6)])


def _step_elements(algebra, n, scale, count, seed):
    """Algebra elements of h = 0.05 Euler steps, their norms times scale."""
    basis = sa._dense_basis(algebra, n)
    coeffs = np.random.default_rng(seed).standard_normal((count, len(basis)))
    return np.einsum("pk,kij->pij", scale * math.sqrt(0.05) * coeffs, basis)


@pytest.mark.parametrize("algebra,n", _STEP_ALGEBRAS)
def test_step_exponential_matches_the_eigh_route(algebra, n):
    import sampler_oracle
    for scale in (1.0, 10.0, 100.0):
        x = _step_elements(algebra, n, scale, 64, seed=n)
        real = sa._real_form(algebra, x)
        if scale == 100.0:  # several squarings on every matrix
            norms = np.sqrt(0.5 * (real ** 2).sum(axis=(1, 2)))
            assert norms.min() > 4 * sa._THETA
        step = sa._expm_antisymmetric(real)
        assert step.dtype == np.float64
        got = sa._complex_form(algebra, step)
        want = sampler_oracle.expm_anti_hermitian(x)
        assert np.abs(got - want).max() <= 1e-13
        unit = got.conj().swapaxes(-1, -2) @ got - np.eye(got.shape[-1])
        assert np.abs(unit).max() <= 1e-13


def test_theta_keeps_the_taylor_remainder_below_the_unit_roundoff():
    from fractions import Fraction
    theta = Fraction(sa._THETA)
    degree = sa._TAYLOR_DEGREE
    remainder = sum(theta ** k / math.factorial(k)
                    for k in range(degree + 1, degree + 60))
    assert remainder <= Fraction(1, 2 ** 53)
    assert np.array_equal(
        sa._TAYLOR_BLOCKS.ravel(),
        [1.0 / math.factorial(k) for k in range(degree)])


def test_an_exponential_does_not_depend_on_its_stack():
    scales = np.geomspace(0.1, 100.0, 32)
    x = sa._real_form("su", np.concatenate(
        [_step_elements("su", 4, s, 1, seed=i) for i, s in enumerate(scales)]))
    norms = np.sqrt(0.5 * (x ** 2).sum(axis=(1, 2)))
    squarings = np.maximum(np.frexp(norms / sa._THETA)[1], 0)
    assert len(set(squarings)) >= 5
    stack = sa._expm_antisymmetric(x)
    for row, matrix in zip(stack, x):
        assert np.array_equal(sa._expm_antisymmetric(matrix[None])[0], row)
    order = np.random.default_rng(1).permutation(len(x))
    assert np.array_equal(sa._expm_antisymmetric(x[order]), stack[order])


@pytest.mark.parametrize("family,n", [("SO", 5), ("SU", 3), ("USp", 2)])
def test_simulation_runs_without_eigh(family, n, monkeypatch):
    desc = spaces.describe(family, n)
    sa._coefficient_map(desc.algebra, n)  # the su basis is built with eigh

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.eigh called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    config = sa.SimulationConfig(paths=4, seed=6)
    mats = sa.simulate_endpoints(desc, 2.6, config, range(4))  # one projection
    assert mats.dtype == (np.float64 if family == "SO" else np.complex128)
    for g in mats:
        assert _membership_residual(desc, g) < 1e-12


def test_estimate_starts_at_most_one_worker_per_chunk(monkeypatch):
    from concurrent.futures import ThreadPoolExecutor
    seen = []

    class Recording(ThreadPoolExecutor):
        def __init__(self, max_workers):
            seen.append(max_workers)
            # a missing cap must not start max_workers threads here
            super().__init__(max_workers=min(max_workers, 4))

    monkeypatch.setattr(sa, "ThreadPoolExecutor", Recording)
    desc = spaces.describe("SO", 4)
    for statistic, t in (("abs_trace_sq", None), ("trace", 0.15)):
        seen.clear()
        runs = [sa.estimate(desc, statistic, t,
                            sa.SimulationConfig(paths=paths, seed=2, threads=k))
                for paths in (600, 100) for k in (10 ** 6, 1)]
        assert seen == [3]  # three workers split 600 paths at 256 and 512
        assert runs[0] == runs[1] and runs[2] == runs[3]


def test_the_hand_written_metric_is_gone():
    import inspect
    assert "_gaussian_element" not in inspect.getsource(sa)
    assert not hasattr(sa, "_gaussian_element")


# -- batched uniform samples and stack statistics -----------------------------

_MC_POOL = [("SO", 4, None), ("SU", 3, None), ("USp", 2, None), ("GrR", 5, 2),
            ("GrC", 4, 1), ("SO2n_Un", 2, None), ("SUn_SOn", 3, None),
            ("USpn_Un", 2, None)]


@pytest.mark.parametrize("family,n,q", sorted(set(_SPACES + _MC_POOL)))
def test_batched_haar_samples_match_per_index_sampling(family, n, q):
    import sampler_oracle
    desc = spaces.describe(family, n, q)
    # 30 indices inside chunk 0, then 30 across the boundary into chunk 1
    indices = [*range(40, 70), *range(241, 271)]
    batch = sa.haar_samples(desc, 13, indices)
    for row, index in zip(batch, indices):
        want = sampler_oracle.haar_sample(desc, seed=13, index=index)
        assert np.abs(row - want).max() < 1e-14
    assert np.array_equal(sa.haar_sample(desc, seed=13, index=45), batch[5])


def test_streams_equal_one_generator_per_stream_at_large_seeds():
    # keys past 2^63 (a negative seed among them) and chunk counters past
    # 2^32 reach each chunk's generator uncast; index i reads row i % 256 of
    # its chunk's step-major draws, and a second draw continues the first
    import sampler_oracle
    indices = [0, 7, 2 ** 40 + 5]
    for seed in (-1, 2 ** 63, 2 ** 64 - 5):
        streams = sa._Streams(seed, 0, indices)
        first = streams.draw((3,), (2, 2))
        second = streams.draw((5,), (4,))
        for pos, index in enumerate(indices):
            rng = sampler_oracle._rng(seed, 0, index // 256)
            want = rng.standard_normal((8, 256, 4))[:, index % 256]
            assert np.array_equal(first[:, pos].reshape(3, 4), want[:3])
            assert np.array_equal(second[:, pos], want[3:])


@pytest.mark.parametrize("family,n,q", [("SO", 4, None), ("SU", 3, None),
                                        ("USp", 2, None), ("GrC", 4, 1)])
def test_scattered_indices_read_the_rows_of_full_range_draws(family, n, q):
    # two rows at either end of chunk 0, the first of chunk 1 and one of
    # chunk 2: each equals its row of a call over every index up to 700
    desc = spaces.describe(family, n, q)
    picked = [3, 255, 256, 700]
    part = sa._Streams(5, 0, picked).draw((2,), (3,))
    full = sa._Streams(5, 0, range(701)).draw((2,), (3,))
    assert np.array_equal(part, full[:, picked])
    assert np.array_equal(sa.haar_samples(desc, 5, picked),
                          sa.haar_samples(desc, 5, range(701))[picked])
    config = sa.SimulationConfig(paths=701, seed=5)
    assert np.array_equal(
        sa.simulate_endpoints(desc, 0.12, config, picked),
        sa.simulate_endpoints(desc, 0.12, config, range(701))[picked])


def test_streams_set_no_generator_state():
    # each chunk's generator continues from where its last draw stopped, so
    # nothing in the sampler switches or restores a bit generator's state
    tree = ast.parse(Path(sa.__file__).read_text())
    stored = [node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and node.attr == "state"
              and isinstance(node.ctx, ast.Store)]
    assert not stored, f"sampler.py sets a state on lines {stored}"


def test_estimate_draws_each_chunk_once_across_workers(monkeypatch):
    # two workers split 600 paths at the chunk boundary 256, not at 300,
    # where both would draw chunk 1's normals
    made = []

    class Recording(sa._Streams):
        def __init__(self, seed, purpose, indices):
            super().__init__(seed, purpose, indices)
            # the chunk number is the third word of each stream's counter
            made.extend(int(normals.__self__.bit_generator.state["state"]
                            ["counter"][2]) for normals, _, _ in self._chunks)

    monkeypatch.setattr(sa, "_Streams", Recording)
    desc = spaces.describe("SO", 4)
    for statistic, t in (("abs_trace_sq", None), ("trace", 0.15)):
        made.clear()
        sa.estimate(desc, statistic, t,
                    sa.SimulationConfig(paths=600, seed=2, threads=2))
        assert sorted(made) == [0, 1, 2]


_TEN = [("SO", 6, None), ("SU", 4, None), ("USp", 3, None), ("GrR", 7, 3),
        ("GrC", 5, 2), ("GrH", 4, 1), ("SO2n_Un", 3, None),
        ("SUn_SOn", 4, None), ("SU2n_USpn", 2, None), ("USpn_Un", 3, None)]


@pytest.mark.parametrize("family,n,q", _TEN)
def test_stack_observables_match_per_matrix_values(family, n, q):
    desc = spaces.describe(family, n, q)
    mats = sa.haar_samples(desc, 3, range(12))
    stacked = co.omega_value(desc, mats)
    assert stacked.shape == (12,)
    for value, g in zip(stacked, mats):
        assert abs(value - co.omega_value(desc, g)) < 1e-13
    if not desc.is_group:
        zonal = co.zonal_value(desc, mats)
        for value, g in zip(zonal, mats):
            assert abs(value - co.zonal_value(desc, g)) < 1e-13


def test_stack_observables_keep_the_shape_and_field_checks():
    from cutofflab.errors import FieldMismatch
    so5 = spaces.describe("SO", 5)
    with pytest.raises(ValueError):
        co.omega_value(so5, np.zeros((3, 4, 4)))
    with pytest.raises(ValueError):
        co.omega_value(so5, np.zeros((2, 3, 5, 5)))
    stack = np.stack([np.eye(5, dtype=complex)] * 3)
    stack[1, 0, 1] = 0.3j
    with pytest.raises(FieldMismatch):
        co.omega_value(so5, stack)
    with pytest.raises(FieldMismatch):
        co.zonal_value(spaces.describe("GrR", 5, 2), stack)
    assert isinstance(co.omega_value(so5, np.eye(5)), float)
