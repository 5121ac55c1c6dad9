"""Monte Carlo simulation of the matrix-valued heat flow.

Paths follow a geometric Euler scheme: each step multiplies by the
exponential of a Gaussian algebra element whose covariance is the invariant
metric, so the chain's quadratic variation matches the Casimir tensor and
the scheme is weakly first order.  Randomness is counter-based: every
(seed, path, step) triple maps to an independent stream, making estimates
reproducible bit for bit under any scheduling.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .cutoff import omega_spec, omega_value, zonal_value
from .errors import UnsupportedStatistic, require_time
from .spaces import Family, SpaceDescriptor

__all__ = [
    "SimulationConfig",
    "Estimate",
    "STATISTICS",
    "brownian_path",
    "haar_sample",
    "simulate_endpoints",
    "estimate",
]

_MAX_STEP = 0.05
_PURPOSE_PATH = 0
_PURPOSE_HAAR = 1

STATISTICS = ("trace", "abs_trace_sq", "omega", "abs_omega_sq",
              "zonal_min", "abs_zonal_sq", "entry_sq", "indicator")


@dataclass(frozen=True)
class SimulationConfig:
    """Path count, seed, step control and worker count for estimates."""

    paths: int = 1000
    seed: int = 0
    step_size: float = _MAX_STEP
    renorm_every: int = 50
    threads: int = 1

    def __post_init__(self) -> None:
        if self.paths < 1:
            raise ValueError("need at least one path")
        if not 0.0 < self.step_size <= _MAX_STEP:
            raise ValueError(f"step size must lie in (0, {_MAX_STEP}]")
        if self.renorm_every < 1 or self.threads < 1:
            raise ValueError("renorm_every and threads must be positive")


@dataclass(frozen=True)
class Estimate:
    """Sample mean with its standard error."""

    mean: complex
    std_error: float
    n_samples: int
    statistic: str
    t: Optional[float]

    def to_json_dict(self) -> dict:
        mean = self.mean
        payload = {"mean": mean.real if abs(mean.imag) < 1e-14 else
                   {"re": mean.real, "im": mean.imag},
                   "std_error": self.std_error,
                   "n_samples": self.n_samples,
                   "statistic": self.statistic,
                   "t": self.t}
        return payload


def _rng(seed: int, purpose: int, path: int, step: int) -> np.random.Generator:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, purpose], dtype=np.uint64)
    counter = np.array([0, 0, path, step], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=counter, key=key))


def _ambient(descriptor: SpaceDescriptor) -> tuple[str, int, int]:
    """(algebra, algebra rank, matrix size) of the isometry group."""
    amb = descriptor.ambient_group()
    algebra = {"SO": "so", "SU": "su", "USp": "usp"}[amb.family.value]
    return algebra, amb.n, amb.matrix_size


def _embed_quaternion(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Complex 2n x 2n image of the quaternion matrix a + b j."""
    n = a.shape[0]
    out = np.zeros((2 * n, 2 * n), dtype=complex)
    out[0::2, 0::2] = a
    out[0::2, 1::2] = b
    out[1::2, 0::2] = -b.conj()
    out[1::2, 1::2] = a.conj()
    return out


def _gaussian_element(algebra: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """Standard Gaussian algebra element in the invariant metric."""
    if algebra == "so":
        u = np.triu(rng.standard_normal((n, n)), 1)
        return (u - u.T) / math.sqrt(n)
    if algebra == "su":
        a = np.triu(rng.standard_normal((n, n)), 1)
        b = np.triu(rng.standard_normal((n, n)), 1)
        z = rng.standard_normal(n)
        off = (a - a.T + 1j * (b + b.T)) / math.sqrt(2 * n)
        diag = 1j * (z - z.mean()) / math.sqrt(n)
        return off + np.diag(diag)
    x, y, z = rng.standard_normal((3, n))
    wo, xo, yo, zo = rng.standard_normal((4, n, n))
    so = math.sqrt(4 * n)
    w_m = (np.triu(wo, 1) - np.triu(wo, 1).T) / so
    def sym(m: np.ndarray, diag: np.ndarray) -> np.ndarray:
        upper = np.triu(m, 1)
        return (upper + upper.T) / so + np.diag(diag / math.sqrt(2 * n))
    x_m, y_m, z_m = sym(xo, x), sym(yo, y), sym(zo, z)
    return _embed_quaternion(w_m + 1j * x_m, y_m + 1j * z_m)


def _expm_anti_hermitian(batch: np.ndarray) -> np.ndarray:
    """Exponentials of a stack of anti-Hermitian matrices via eigh."""
    herm = 1j * batch
    w, v = np.linalg.eigh(herm)
    phases = np.exp(-1j * w)
    return np.einsum("...ij,...j,...kj->...ik", v, phases, v.conj())


def _project(algebra: str, batch: np.ndarray) -> np.ndarray:
    """Nearest group element: polar projection, then exact re-structuring."""
    u, _, vh = np.linalg.svd(batch)
    out = u @ vh
    if algebra == "so":
        return out
    if algebra == "su":
        n = out.shape[-1]
        det = np.linalg.det(out)
        return out * np.exp(-1j * np.angle(det) / n)[..., None, None]
    a = 0.5 * (out[..., 0::2, 0::2] + out[..., 1::2, 1::2].conj())
    b = 0.5 * (out[..., 0::2, 1::2] - out[..., 1::2, 0::2].conj())
    fixed = np.empty_like(out)
    fixed[..., 0::2, 0::2] = a
    fixed[..., 0::2, 1::2] = b
    fixed[..., 1::2, 0::2] = -b.conj()
    fixed[..., 1::2, 1::2] = a.conj()
    return fixed


def simulate_endpoints(descriptor: SpaceDescriptor, t: float,
                       config: SimulationConfig,
                       path_indices: Sequence[int]) -> np.ndarray:
    """Endpoints of independent heat-flow paths at time t, one per index."""
    require_time(t, allow_zero=True)
    algebra, rank, size = _ambient(descriptor)
    count = len(path_indices)
    eye = np.eye(size, dtype=float if algebra == "so" else complex)
    g = np.broadcast_to(eye, (count, size, size)).copy()
    if t == 0.0:
        return g
    num_steps = max(1, math.ceil(t / config.step_size))
    h = t / num_steps
    sqrt_h = math.sqrt(h)
    for step in range(num_steps):
        xi = np.stack([
            _gaussian_element(algebra, rank,
                              _rng(config.seed, _PURPOSE_PATH, p, step))
            for p in path_indices])
        move = _expm_anti_hermitian(sqrt_h * xi)
        if algebra == "so":
            move = move.real
        g = g @ move
        if (step + 1) % config.renorm_every == 0:
            g = _project(algebra, g)
    return g


def brownian_path(descriptor: SpaceDescriptor, t: float, *, seed: int = 0,
                  path_index: int = 0,
                  step_size: float = _MAX_STEP) -> np.ndarray:
    """Endpoint of one heat-flow path."""
    config = SimulationConfig(paths=1, seed=seed, step_size=step_size)
    return simulate_endpoints(descriptor, t, config, [path_index])[0]


def haar_sample(descriptor: SpaceDescriptor, *, seed: int = 0,
                index: int = 0) -> np.ndarray:
    """One uniform sample from the isometry group of the space."""
    algebra, rank, size = _ambient(descriptor)
    rng = _rng(seed, _PURPOSE_HAAR, index, 0)
    if algebra == "so":
        ginibre = rng.standard_normal((size, size))
        q, r = np.linalg.qr(ginibre)
        q = q * np.sign(np.diag(r))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        return q
    if algebra == "su":
        ginibre = (rng.standard_normal((size, size))
                   + 1j * rng.standard_normal((size, size))) / math.sqrt(2)
        q, r = np.linalg.qr(ginibre)
        d = np.diag(r)
        q = q * (d / np.abs(d))
        return q * np.exp(-1j * np.angle(np.linalg.det(q)) / size)
    a = (rng.standard_normal((rank, rank))
         + 1j * rng.standard_normal((rank, rank)))
    b = (rng.standard_normal((rank, rank))
         + 1j * rng.standard_normal((rank, rank)))
    return _project("usp", _embed_quaternion(a, b)[None])[0]


def _statistic_values(descriptor: SpaceDescriptor, statistic: str,
                      mats: np.ndarray,
                      threshold: Optional[float]) -> np.ndarray:
    spec = omega_spec(descriptor)
    out = np.empty(len(mats), dtype=complex)
    for pos, g in enumerate(mats):
        if statistic == "trace":
            tr = complex(np.trace(g))
            out[pos] = tr.real if descriptor.field_tag == "real" else tr
        elif statistic == "abs_trace_sq":
            out[pos] = abs(complex(np.trace(g))) ** 2
        elif statistic == "omega":
            out[pos] = omega_value(spec, g)
        elif statistic == "abs_omega_sq":
            out[pos] = abs(omega_value(spec, g)) ** 2
        elif statistic == "zonal_min":
            out[pos] = zonal_value(descriptor, g)
        elif statistic == "abs_zonal_sq":
            out[pos] = abs(zonal_value(descriptor, g)) ** 2
        elif statistic == "entry_sq":
            out[pos] = complex(g[0, 0]) ** 2
        elif statistic == "indicator":
            out[pos] = 1.0 if abs(omega_value(spec, g)) >= threshold else 0.0
        else:
            raise UnsupportedStatistic(statistic)
    return out


_CHUNK = 256


def _values_for_range(descriptor: SpaceDescriptor, statistic: str,
                      t: Optional[float], config: SimulationConfig,
                      start: int, stop: int,
                      threshold: Optional[float]) -> np.ndarray:
    out = np.empty(stop - start, dtype=complex)
    for lo in range(start, stop, _CHUNK):
        hi = min(lo + _CHUNK, stop)
        if t is None:
            mats = np.stack([haar_sample(descriptor, seed=config.seed, index=p)
                             for p in range(lo, hi)])
        else:
            mats = simulate_endpoints(descriptor, t, config, range(lo, hi))
        out[lo - start:hi - start] = _statistic_values(
            descriptor, statistic, mats, threshold)
    return out


def estimate(descriptor: SpaceDescriptor, statistic: str, t: Optional[float],
             config: SimulationConfig,
             threshold: Optional[float] = None) -> Estimate:
    """Monte Carlo estimate of a statistic at time t (None: uniform measure).

    The reduction is performed in path order, so results depend only on the
    configuration, never on thread scheduling.
    """
    if statistic not in STATISTICS:
        raise UnsupportedStatistic(statistic)
    if statistic == "indicator" and threshold is None:
        raise ValueError("the indicator statistic needs a threshold")
    n = config.paths
    workers = min(config.threads, n)
    if workers == 1:
        values = _values_for_range(descriptor, statistic, t, config,
                                   0, n, threshold)
    else:
        bounds = np.linspace(0, n, workers + 1, dtype=int)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(
                lambda se: _values_for_range(descriptor, statistic, t, config,
                                             se[0], se[1], threshold),
                zip(bounds[:-1], bounds[1:])))
        values = np.concatenate(parts)
    mean = complex(values.mean())
    if n > 1:
        spread = float(np.abs(values - mean).__pow__(2).sum() / (n - 1))
        std_error = math.sqrt(spread / n)
    else:
        std_error = float("inf")
    if abs(mean.imag) < 1e-12 * (1.0 + abs(mean.real)):
        mean = mean.real
    return Estimate(mean, std_error, n, statistic, t)
