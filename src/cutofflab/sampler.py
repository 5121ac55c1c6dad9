"""Monte Carlo simulation of the matrix-valued heat flow.

Paths follow a geometric Euler scheme: each step multiplies by the
exponential of a Gaussian algebra element whose covariance is the invariant
metric, so the chain's quadratic variation matches the Casimir tensor and
the scheme is weakly first order.  Paths run in real arithmetic: on su(n)
and usp(n) in the real 2m x 2m images of their matrices, and each step's
exponential is a scaling-and-squaring Taylor polynomial evaluated by matrix
products, with no eigendecomposition.  Randomness is counter-based: every
chunk of 256 paths or uniform samples owns one Philox stream, keyed by
(seed, purpose) with the chunk's number as counter, and index i reads row
i % 256 of each of its chunk's draws, so estimates are reproducible bit for
bit under any scheduling and any batching.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .cutoff import omega_value, zonal_value
from .errors import TooLarge, UnsupportedStatistic, require_time
from .moments import _orthonormal_basis
from .spaces import SpaceDescriptor, matrix_side

__all__ = [
    "SimulationConfig",
    "Estimate",
    "STATISTICS",
    "haar_sample",
    "haar_samples",
    "simulate_endpoints",
    "estimate",
]

_MAX_STEP = 0.05
MAX_PATHS = 1_000_000  # most paths one estimate or simulation runs
# most Euler steps one path runs: a time with more steps of the configured
# size is refused before any draw.  A step of two paths on SO(3), SU(3) or
# USp(2) took 50-70 us on one Xeon core, so one chunk of paths at the limit
# runs for several seconds, and 256 paths for about half a minute
_MAX_STEP_COUNT = 100_000
_RENORM_EVERY = 50  # Euler steps between projections back onto the group
_PURPOSE_PATH = 0
_PURPOSE_HAAR = 1
# indices that share one random stream; an estimate simulates a chunk at a
# time, and each worker takes whole chunks
_CHUNK = 256
# Euler steps whose normals are drawn in one go, at most _WINDOW and at most
# _WINDOW_NORMALS numbers a chunk: a window's memory is bounded at any time
# and any algebra, however few of a chunk's paths run
_WINDOW = 64
_WINDOW_NORMALS = 1 << 20
# Taylor coefficients 1/k! of the step's exponential in Paterson-Stockmeyer
# blocks of four, and the largest 2-norm bound theta at which the truncation
# error sum_{k>16} theta^k / k! stays below the unit roundoff 2**-53
_TAYLOR_DEGREE = 16
_TAYLOR_BLOCKS = np.array([[1.0 / math.factorial(4 * j + i) for i in range(4)]
                           for j in range(4)])
_THETA = 0.8246

STATISTICS = ("trace", "abs_trace_sq", "omega", "abs_omega_sq",
              "zonal_min", "abs_zonal_sq", "entry_sq", "indicator")


@dataclass(frozen=True)
class SimulationConfig:
    """Path count, seed, step control and worker count for estimates."""

    paths: int = 1000
    seed: int = 0
    step_size: float = _MAX_STEP
    threads: int = 1

    def __post_init__(self) -> None:
        if self.paths < 1:
            raise ValueError("need at least one path")
        if self.paths > MAX_PATHS:
            raise TooLarge(f"{self.paths} paths exceed the limit {MAX_PATHS}")
        if not 0.0 < self.step_size <= _MAX_STEP:
            raise ValueError(f"step size must lie in (0, {_MAX_STEP}]")
        if self.threads < 1:
            raise ValueError("threads must be positive")


@dataclass(frozen=True)
class Estimate:
    """Sample mean with its standard error."""

    mean: complex
    std_error: float
    n_samples: int
    statistic: str
    t: Optional[float]


class _Streams:
    """One Philox stream per chunk of ``_CHUNK`` indices: key (seed,
    purpose), counter (0, 0, index // _CHUNK, 0).

    A draw fills one block per chunk, ``lead + (_CHUNK,) + shape``: at every
    position of the leading shape the chunk's rows in index order, and index
    i reads row i % _CHUNK of each.  A draw covers whole chunks, so an
    index's numbers do not depend on the other indices drawn with it; with
    no leading shape, rows past the last one read are left undrawn, which
    changes none.  A single generator is switched between the streams by
    setting its state, which is much cheaper than building a generator per
    stream.  Consecutive draws on a stream give exactly the numbers of one
    larger draw.
    """

    def __init__(self, seed: int, purpose: int, indices: Sequence[int]) -> None:
        key = [seed & 0xFFFFFFFFFFFFFFFF, purpose]
        self._bits = np.random.Philox(key=np.array(key, dtype=np.uint64))
        self._normals = np.random.Generator(self._bits).standard_normal
        # counter 0, empty buffer, in the plain lists the setter reads fastest
        self._start = {**self._bits.state, "buffer": [0] * 4,
                       "state": {"counter": [0] * 4, "key": key}}
        index = np.asarray(indices, dtype=np.int64)
        chunk_of, row_of = np.divmod(index, _CHUNK)
        self._count = len(index)
        # each stream's chunk until its first kept draw, then its saved state
        self._positions: list = np.unique(chunk_of).tolist()
        # per chunk: where its indices sit in a draw, and the rows they read
        self._reads = []
        for chunk in self._positions:
            slots = np.flatnonzero(chunk_of == chunk)
            self._reads.append((slots, row_of[slots]))

    def draw(self, lead: tuple[int, ...], shape: tuple[int, ...],
             keep: bool = False) -> np.ndarray:
        """The next standard normals of every index, ``lead + (indices,) +
        shape`` in index order.  Only with ``keep`` does a further draw
        continue the streams."""
        out = np.empty((math.prod(lead), self._count, math.prod(shape)))
        for pos, where in enumerate(self._positions):
            if isinstance(where, dict):
                self._bits.state = where
            else:
                self._start["state"]["counter"][2] = where
                self._bits.state = self._start
            slots, rows = self._reads[pos]
            top = _CHUNK if lead or keep else int(rows.max()) + 1
            block = self._normals((len(out), top, out.shape[2]))
            if keep:
                self._positions[pos] = self._bits.state
            out[:, slots] = block[:, rows]
        return out.reshape(lead + (self._count,) + shape)


@lru_cache(maxsize=16)
def _dense_basis(algebra: str, n: int) -> np.ndarray:
    """The invariant metric's orthonormal basis as one (dim g, m, m) array:
    ``moments``' basis, whose tensor squares sum to the Casimir tensor."""
    basis = np.stack(_orthonormal_basis(algebra, n))
    basis.flags.writeable = False
    return basis


@lru_cache(maxsize=16)
def _coefficient_map(algebra: str, n: int) -> tuple:
    """Gather slots (entries, index, weight): entry p of the flattened real
    form of an algebra element is the sum over the slots that list p of
    c[index] * weight, slot by slot.

    Slot s lists the entries with more than s nonzero basis coefficients:
    every entry for s = 0 (padding carries weight 0), beyond that only the
    diagonal of su(n), with up to n - 1.  The sum runs slot by slot, so a
    path's element does not depend on the batch it is computed in, which a
    BLAS product does not guarantee.
    """
    basis = _real_form(algebra, _dense_basis(algebra, n))
    flat = basis.reshape(len(basis), -1).T
    nonzero = flat != 0
    count = nonzero.sum(axis=1)
    order = np.argsort(~nonzero, axis=1, kind="stable")
    slots = []
    for s in range(int(count.max())):
        entries = np.arange(len(flat)) if s == 0 else np.flatnonzero(count > s)
        index = order[entries, s]
        slots.append((entries, index, flat[entries, index]))
    return tuple(slots)


def _algebra_elements(algebra: str, n: int, coeffs: np.ndarray) -> np.ndarray:
    """Real forms of the algebra elements sum_k coeffs[:, k] X_k, one per row
    of coefficients, as one C-contiguous stack."""
    (_, index, weight), *rest = _coefficient_map(algebra, n)
    flat = coeffs.take(index, axis=1)
    flat *= weight
    for entries, index, weight in rest:
        flat[:, entries] += coeffs.take(index, axis=1) * weight
    m = math.isqrt(flat.shape[1])
    return flat.reshape(len(coeffs), m, m)


def _real_form(algebra: str, batch: np.ndarray) -> np.ndarray:
    """Real 2m x 2m images [[A, -B], [B, A]] of complex matrices A + iB; on
    so(n) the matrices themselves.  The map is an injective homomorphism of
    algebras, so it carries products and exponentials over and sends
    anti-Hermitian matrices to real antisymmetric ones."""
    if algebra == "so":
        return batch
    return np.block([[batch.real, -batch.imag], [batch.imag, batch.real]])


def _complex_form(algebra: str, batch: np.ndarray) -> np.ndarray:
    """Inverse of ``_real_form`` on its image."""
    if algebra == "so":
        return batch
    m = batch.shape[-1] // 2
    return batch[..., :m, :m] + 1j * batch[..., m:, :m]


def _add_identity(batch: np.ndarray, scale: float) -> None:
    """Add scale * I to every matrix of a stack, in place."""
    m = batch.shape[-1]
    batch.reshape(batch.shape[:-2] + (m * m,))[..., ::m + 1] += scale


def _taylor(a: np.ndarray) -> np.ndarray:
    """Degree-16 Taylor polynomial of exp on a stack, by Paterson-Stockmeyer:
    sum_j B_j (a^4)^j with B_j = sum_{i<4} a^i / (4j + i)!, in six matrix
    products.  The blocks are formed one at a time: one stack of all four
    measured slower at 256 paths."""
    powers = [a, a @ a]
    powers.append(powers[1] @ a)
    a4 = powers[1] @ powers[1]
    p = a4 / math.factorial(_TAYLOR_DEGREE)
    for j in range(3, -1, -1):
        if j < 3:
            p = a4 @ p
        for power, coeff in zip(powers, _TAYLOR_BLOCKS[j, 1:]):
            p += coeff * power
        _add_identity(p, _TAYLOR_BLOCKS[j, 0])
    return p


def _expm_antisymmetric(batch: np.ndarray) -> np.ndarray:
    """Exponentials of a stack of real antisymmetric matrices by scaling and
    squaring (Higham, SIAM J. Matrix Anal. Appl. 26, 2005), in real
    arithmetic.

    The eigenvalues of such a matrix come in pairs +-i lambda, so
    ||x||_F / sqrt 2 bounds its 2-norm.  Each matrix takes its own squaring
    count s, the least s >= 0 with that bound below ``_THETA`` * 2**s;
    scaling by 2**-s is exact, and squarings run only on the matrices that
    need them, so a matrix's exponential does not depend on the rest of its
    stack.
    """
    norms = np.sqrt(0.5 * np.einsum("nij,nij->n", batch, batch))
    squarings = np.maximum(np.frexp(norms / _THETA)[1], 0)
    out = _taylor(batch * np.ldexp(1.0, -squarings)[:, None, None])
    for k in range(squarings.max(initial=0)):
        rows = np.flatnonzero(squarings > k)
        part = out[rows]
        out[rows] = part @ part
    return out


def _embed_quaternion(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Complex 2n x 2n images of quaternion matrices a + b j (stacks allowed)."""
    n = a.shape[-1]
    out = np.empty(a.shape[:-2] + (2 * n, 2 * n), dtype=complex)
    out[..., 0::2, 0::2] = a
    out[..., 0::2, 1::2] = b
    out[..., 1::2, 0::2] = -b.conj()
    out[..., 1::2, 1::2] = a.conj()
    return out


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
    return _embed_quaternion(a, b)


def simulate_endpoints(descriptor: SpaceDescriptor, t: float,
                       config: SimulationConfig,
                       path_indices: Sequence[int]) -> np.ndarray:
    """Endpoints of independent heat-flow paths at time t, one per index.

    The paths of a chunk draw their normals from the chunk's stream, one
    (steps, ``_CHUNK``, dim g) block in step order, and path p reads row
    p % ``_CHUNK`` of every step, so its endpoint does not depend on which
    other paths run with it.
    """
    require_time(t, allow_zero=True)
    # compared before rounding: t / step_size may overflow ceil's range
    if t / config.step_size > _MAX_STEP_COUNT:
        raise TooLarge(f"t = {t} at step size {config.step_size} needs "
                       f"more than {_MAX_STEP_COUNT} steps")
    algebra, rank = descriptor.algebra, descriptor.param
    size = matrix_side(algebra, rank)
    # the path runs in real form; see ``_real_form``
    width = size if algebra == "so" else 2 * size
    g = np.broadcast_to(np.eye(width), (len(path_indices), width, width)).copy()
    if t == 0.0:
        return _complex_form(algebra, g)
    num_steps = max(1, math.ceil(t / config.step_size))
    sqrt_h = math.sqrt(t / num_steps)
    dim = len(_dense_basis(algebra, rank))
    streams = _Streams(config.seed, _PURPOSE_PATH, path_indices)
    window = max(1, min(_WINDOW, _WINDOW_NORMALS // (_CHUNK * dim)))
    step = 0
    for start in range(0, num_steps, window):
        normals = streams.draw((min(window, num_steps - start),), (dim,),
                               keep=start + window < num_steps)
        normals *= sqrt_h
        for z in normals:
            xi = _algebra_elements(algebra, rank, z)
            g = g @ _expm_antisymmetric(xi)
            step += 1
            if step % _RENORM_EVERY == 0:
                g = _real_form(algebra, _project(
                    algebra, _complex_form(algebra, g)))
    return _complex_form(algebra, g)


def haar_samples(descriptor: SpaceDescriptor, seed: int,
                 indices: Sequence[int]) -> np.ndarray:
    """Uniform samples from the isometry group of the space, one per index.

    Sample i reads its Ginibre entries from row i % ``_CHUNK`` of its
    chunk's stream; QR with the sign fix (or the quaternionic projection)
    runs on the whole stack.
    """
    algebra, rank = descriptor.algebra, descriptor.param
    size = matrix_side(algebra, rank)
    streams = _Streams(seed, _PURPOSE_HAAR, indices)
    if algebra == "so":
        q, r = np.linalg.qr(streams.draw((), (size, size)))
        q = q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]
        q[..., 0] *= np.sign(np.linalg.det(q))[..., None]
        return q
    if algebra == "su":
        parts = streams.draw((), (2, size, size))
        q, r = np.linalg.qr((parts[:, 0] + 1j * parts[:, 1]) / math.sqrt(2))
        d = np.diagonal(r, axis1=-2, axis2=-1)
        q = q * (d / np.abs(d))[..., None, :]
        return q * np.exp(-1j * np.angle(np.linalg.det(q)) / size)[..., None, None]
    parts = streams.draw((), (4, rank, rank))
    return _project("usp", _embed_quaternion(parts[:, 0] + 1j * parts[:, 1],
                                             parts[:, 2] + 1j * parts[:, 3]))


def haar_sample(descriptor: SpaceDescriptor, *, seed: int = 0,
                index: int = 0) -> np.ndarray:
    """One uniform sample from the isometry group of the space."""
    return haar_samples(descriptor, seed, [index])[0]


def _statistic_values(descriptor: SpaceDescriptor, statistic: str,
                      mats: np.ndarray,
                      threshold: Optional[float]) -> np.ndarray:
    """The statistic on every matrix of a stack."""
    if statistic in ("trace", "abs_trace_sq"):
        tr = np.trace(mats, axis1=-2, axis2=-1)
        if statistic == "abs_trace_sq":
            return np.abs(tr) ** 2
        return tr.real if descriptor.field_tag == "real" else tr
    if statistic == "entry_sq":
        return mats[:, 0, 0] ** 2
    if statistic in ("zonal_min", "abs_zonal_sq"):
        values = zonal_value(descriptor, mats)
    elif statistic in ("omega", "abs_omega_sq", "indicator"):
        values = omega_value(descriptor, mats)
    else:
        raise UnsupportedStatistic(statistic)
    if statistic == "indicator":
        return (np.abs(values) >= threshold).astype(float)
    if statistic.startswith("abs_"):
        return np.abs(values) ** 2
    return values


def _values_for_range(descriptor: SpaceDescriptor, statistic: str,
                      t: Optional[float], config: SimulationConfig,
                      start: int, stop: int,
                      threshold: Optional[float]) -> np.ndarray:
    out = np.empty(stop - start, dtype=complex)
    for lo in range(start, stop, _CHUNK):
        hi = min(lo + _CHUNK, stop)
        if t is None:
            mats = haar_samples(descriptor, config.seed, range(lo, hi))
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
    if threshold is not None and math.isnan(threshold):
        raise ValueError("the indicator threshold must not be NaN")
    n = config.paths
    # each worker takes whole chunks, so no chunk's stream is drawn twice;
    # values do not depend on the split
    chunks = -(-n // _CHUNK)
    workers = min(config.threads, chunks)
    if workers == 1:
        values = _values_for_range(descriptor, statistic, t, config,
                                   0, n, threshold)
    else:
        bounds = np.minimum(
            np.linspace(0, chunks, workers + 1, dtype=int) * _CHUNK, n)
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
