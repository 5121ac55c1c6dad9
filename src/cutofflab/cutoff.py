"""Cut-off profiles from a single discriminating observable.

Each family carries one observable Omega: the trace of the running matrix on
a group, and a scaled polynomial in the matrix entries on a quotient space.
Its mean and variance under the heat flow are explicit rational-exponential
expressions, and a second-moment argument turns them into a total-variation
lower bound before the cut-off time; combined with the spectral upper bound
this yields the full profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import FieldMismatch, UnsupportedSpace, require_time
from .heatseries import t_zero, tv_upper_bound
from .moments import moment, zonal_square_expansion
from .partitions import Weight
from .repchar import casimir_exponent, dimension
from .spaces import Family, SpaceDescriptor, indexing_set, minimal_weight

__all__ = [
    "OmegaSpec",
    "ProfilePoint",
    "omega_spec",
    "omega_value",
    "zonal_value",
    "mean_variance",
    "variance_cap",
    "lower_bound",
    "certified_window",
    "profile",
    "profile_csv",
    "zonal_square_series",
    "zonal_square_via_moments",
]

@dataclass(frozen=True)
class OmegaSpec:
    """The discriminating observable of one space."""

    descriptor: SpaceDescriptor
    kind: str  # "character_trace" or "zonal_polynomial"
    normalization: float  # Omega = normalization * basepoint-normalized value

    def to_json_dict(self) -> dict:
        return {
            "space": str(self.descriptor),
            "kind": self.kind,
            "normalization": self.normalization,
        }


def omega_spec(descriptor: SpaceDescriptor) -> OmegaSpec:
    """Observable attached to a family member: trace or scaled zonal value."""
    if descriptor.is_group:
        return OmegaSpec(descriptor, "character_trace", 1.0)
    _, a_min, _ = minimal_weight(descriptor)
    return OmegaSpec(descriptor, "zonal_polynomial", math.sqrt(float(a_min)))


def _check_matrix(descriptor: SpaceDescriptor, matrix: np.ndarray) -> np.ndarray:
    mat = np.asarray(matrix)
    m = descriptor.matrix_size
    if mat.ndim not in (2, 3) or mat.shape[-2:] != (m, m):
        raise ValueError(f"expected a {m} x {m} matrix or a stack of them, "
                         f"got {mat.shape}")
    if descriptor.field_tag == "real" and np.iscomplexobj(mat):
        if mat.size and np.abs(mat.imag).max() > 1e-12:
            raise FieldMismatch(f"{descriptor} carries real matrices")
        mat = mat.real
    return mat


def _entry_sum(block: np.ndarray) -> np.ndarray:
    """Sum of the entries of each matrix, added in the same order for every
    matrix of a stack, whatever the stack's length (one row per matrix)."""
    return block.reshape(block.shape[:-2] + (-1,)).sum(axis=-1)


def _per_matrix(values: np.ndarray) -> complex | np.ndarray:
    """A Python scalar for one matrix, the array for a stack."""
    return values.item() if np.ndim(values) == 0 else values


def zonal_value(descriptor: SpaceDescriptor,
                matrix: np.ndarray) -> complex | np.ndarray:
    """Basepoint-normalized minimal zonal function, evaluated on an isometry
    or on each matrix of a stack of them (leading batch axis)."""
    fam = descriptor.family
    g = _check_matrix(descriptor, matrix)
    n, q = descriptor.n, descriptor.q
    if fam is Family.GrR:
        p = n - q
        return _per_matrix(_entry_sum(g[..., :p, :p] ** 2) / p
                           + _entry_sum(g[..., p:, p:] ** 2) / q - 1.0)
    if fam is Family.GrC:
        p = n - q
        val = (_entry_sum(np.abs(g[..., :p, :p]) ** 2) / p
               + _entry_sum(np.abs(g[..., p:, p:]) ** 2) / q)
        return _per_matrix(val - 1.0)
    if fam is Family.GrH:
        p = n - q
        norms = np.abs(g[..., 0::2, 0::2]) ** 2 + np.abs(g[..., 0::2, 1::2]) ** 2
        return _per_matrix(_entry_sum(norms[..., :p, :p]) / p
                           + _entry_sum(norms[..., p:, p:]) / q - 1.0)
    if fam in (Family.SO2n_Un, Family.SU2n_USpn):
        dets = (g[..., 1::2, 1::2] * g[..., 0::2, 0::2]
                - g[..., 1::2, 0::2] * g[..., 0::2, 1::2])
        total = _entry_sum(dets) / n
        return _per_matrix(total.real if fam is Family.SO2n_Un else total)
    if fam is Family.SUn_SOn:
        return _per_matrix(_entry_sum(g.astype(complex) ** 2) / n)
    if fam is Family.USpn_Un:
        return _per_matrix(_entry_sum(g.astype(complex) ** 2).real / (2 * n))
    raise UnsupportedSpace(f"{descriptor} is a group; its observable is the trace")


def omega_value(spec: OmegaSpec | SpaceDescriptor,
                matrix: np.ndarray) -> complex | np.ndarray:
    """Evaluate the discriminating observable on a matrix, or on each
    matrix of a stack of them (leading batch axis)."""
    if isinstance(spec, SpaceDescriptor):
        spec = omega_spec(spec)
    descriptor = spec.descriptor
    if spec.kind == "character_trace":
        g = _check_matrix(descriptor, matrix)
        tr = np.trace(g, axis1=-2, axis2=-1)
        if descriptor.family in (Family.SO, Family.USp):
            tr = tr.real
        return _per_matrix(tr)
    return spec.normalization * zonal_value(descriptor, matrix)


# -- mean and variance under the heat flow ---------------------------------


def _group_square_terms(descriptor: SpaceDescriptor) -> list[tuple[Weight, int]]:
    """Non-trivial labels in the expansion of the squared trace modulus,
    with multiplicity two when a label carries both chirality pieces."""
    fam, n = descriptor.family, descriptor.n
    idx = indexing_set(descriptor)
    if fam is Family.SU:
        return [(idx.label((2,) + (1,) * (idx.length - 1)), 1)]
    two = idx.label((2,))
    if idx.length >= 2:
        pair = idx.label((1, 1))
        both = 2 if (fam is Family.SO and n % 2 == 0
                     and pair.parts2[-1] != 0) else 1
        return [(two, 1), (pair, both)]
    # at rank one the exterior square folds onto the defining label
    return [(two, 1), (idx.label((1,)), 1)]


@lru_cache(maxsize=64)
def _moment_terms(descriptor: SpaceDescriptor) -> tuple[float, float, float, tuple]:
    """The time-independent floats of mean_variance: (sqrt A_min, A_min,
    B_min, (multiplicity, dimension, rate) per group square term)."""
    _, a_min, b_min = minimal_weight(descriptor)
    square = ()
    if descriptor.is_group:
        square = tuple((mult, float(dimension(descriptor, w)),
                        float(casimir_exponent(descriptor, w)))
                       for w, mult in _group_square_terms(descriptor))
    return math.sqrt(float(a_min)), float(a_min), float(b_min), square


@lru_cache(maxsize=64)
def _zonal_terms(descriptor: SpaceDescriptor) -> tuple[tuple[float, float], ...]:
    """(coefficient, rate) of each zonal function in the squared expansion."""
    return tuple((float(coeff), float(casimir_exponent(descriptor, w))
                  if not w.is_zero else 0.0)
                 for w, coeff in zonal_square_expansion(descriptor).items())


def mean_variance(descriptor: SpaceDescriptor, t: float) -> tuple[float, float]:
    """Mean and variance of the observable at time t, in closed form.

    For a complex-valued observable the variance is the second absolute
    central moment.
    """
    require_time(t, allow_zero=True)
    sqrt_a, a_min, b_min, square = _moment_terms(descriptor)
    mean = sqrt_a * math.exp(-t * b_min / 2.0)
    if descriptor.is_group:
        second = 1.0
        for mult, dim, rate in square:
            second += mult * (dim * math.exp(-t * rate / 2.0))
    else:
        second = a_min * zonal_square_series(descriptor, t)
    return mean, second - mean * mean


def zonal_square_series(descriptor: SpaceDescriptor, t: float) -> float:
    """E_t of the squared (modulus of the) minimal zonal function."""
    total = 0.0
    for coeff, rate in _zonal_terms(descriptor):
        total += coeff * math.exp(-t * rate / 2.0)
    return total


def variance_cap(descriptor: SpaceDescriptor, t: float) -> float:
    """Constant K bounding the variance of Omega throughout the pre-cut-off
    window; Grassmannian caps grow like n to the window exponent."""
    if descriptor.q is not None:
        eps = 1.0 - t / t_zero(descriptor)
        return descriptor.variance_k * float(descriptor.param) ** eps
    return float(descriptor.variance_k)


def lower_bound(descriptor: SpaceDescriptor, t: float) -> float:
    """Second-moment lower bound on the total-variation distance at time t."""
    mean, _ = mean_variance(descriptor, t)
    cap = variance_cap(descriptor, t)
    if mean == 0.0:
        return 0.0
    return max(0.0, 1.0 - 4.0 * (cap + 1.0) / (mean * mean))


def certified_window(descriptor: SpaceDescriptor) -> tuple[float, float]:
    """Times t = alpha (1 - eps) log(param) with eps in (0, 1/4), where the
    lower-bound constants are proven."""
    top = t_zero(descriptor)
    return 0.75 * top, top


@dataclass(frozen=True, slots=True)
class ProfilePoint:
    t: float
    lower: float
    upper: float

    def to_json_dict(self) -> dict:
        return {"t": self.t, "lower": self.lower, "upper": self.upper}


def profile(descriptor: SpaceDescriptor,
            t_grid: Iterable[float]) -> list[ProfilePoint]:
    """Lower and upper total-variation bounds along a time grid."""
    points = []
    for t in t_grid:
        t = float(t)
        points.append(ProfilePoint(t, lower_bound(descriptor, t),
                                   tv_upper_bound(descriptor, t)))
    return points


def profile_csv(points: Sequence[ProfilePoint]) -> str:
    lines = ["t,lower,upper"]
    for p in points:
        lines.append(f"{p.t:.12g},{p.lower:.12g},{p.upper:.12g}")
    return "\n".join(lines) + "\n"


# -- squared zonal functions through the moment engine ---------------------


def _phi_monomials(descriptor: SpaceDescriptor) -> list[tuple[float, tuple]]:
    """The zonal polynomial as signed monomials in (row, col, conj) entries
    of the ambient matrix, including the basepoint shift."""
    fam = descriptor.family
    n, q = descriptor.n, descriptor.q
    out: list[tuple[float, tuple]] = []
    if fam in (Family.GrR, Family.GrC):
        p = n - q
        conj = fam is Family.GrC
        for i in range(n):
            w = 1.0 / (p if i < p else q)
            for j in range(p) if i < p else range(p, n):
                out.append((w, ((i, j, False), (i, j, conj))))
        out.append((-1.0, ()))
    elif fam is Family.GrH:
        p = n - q
        for i in range(n):
            w = 1.0 / (p if i < p else q)
            for j in range(p) if i < p else range(p, n):
                a, b = 2 * i, 2 * j
                out.append((w, ((a, b, False), (a + 1, b + 1, False))))
                out.append((-w, ((a, b + 1, False), (a + 1, b, False))))
        out.append((-1.0, ()))
    elif fam in (Family.SO2n_Un, Family.SU2n_USpn):
        for i in range(n):
            for j in range(n):
                a, b = 2 * i, 2 * j
                out.append((1.0 / n, ((a + 1, b + 1, False), (a, b, False))))
                out.append((-1.0 / n, ((a + 1, b, False), (a, b + 1, False))))
    elif fam is Family.SUn_SOn:
        for i in range(n):
            for j in range(n):
                out.append((1.0 / n, ((i, j, False), (i, j, False))))
    elif fam is Family.USpn_Un:
        for i in range(2 * n):
            for j in range(2 * n):
                out.append((1.0 / (2 * n), ((i, j, False), (i, j, False))))
    else:
        raise UnsupportedSpace(f"{descriptor} has no zonal polynomial")
    return out


def _conjugate_monomial(entries: tuple) -> tuple:
    return tuple((i, j, not c) for i, j, c in entries)


def _canonical(entries: tuple, block_level: bool) -> tuple:
    """Relabel indices by first occurrence (blockwise for quaternionic
    matrices) after splitting plain from conjugated factors and sorting."""
    plain = sorted(e for e in entries if not e[2])
    conj = sorted(e for e in entries if e[2])
    relabel: dict[int, int] = {}

    def remap(idx: int) -> int:
        if block_level:
            block, off = divmod(idx, 2)
            if block not in relabel:
                relabel[block] = len(relabel)
            return 2 * relabel[block] + off
        if idx not in relabel:
            relabel[idx] = len(relabel)
        return relabel[idx]

    out = []
    for i, j, c in plain + conj:
        out.append((remap(i), remap(j), c))
    return tuple(out)


@lru_cache(maxsize=64)
def _zonal_square_keys(descriptor: SpaceDescriptor) -> tuple[tuple[tuple, float], ...]:
    """(canonical moment pattern, summed coefficient) of every monomial of
    the squared zonal polynomial; the empty pattern is the constant."""
    base = _phi_monomials(descriptor)
    complex_valued = descriptor.family in (Family.SUn_SOn, Family.SU2n_USpn)
    other = ([(c, _conjugate_monomial(m)) for c, m in base]
             if complex_valued else base)
    block_level = descriptor.algebra == "usp"
    weights: dict[tuple, float] = {}
    for c1, m1 in base:
        for c2, m2 in other:
            key = _canonical(m1 + m2, block_level)
            weights[key] = weights.get(key, 0.0) + c1 * c2
    return tuple(weights.items())


def zonal_square_via_moments(descriptor: SpaceDescriptor, t: float) -> float:
    """E_t of the squared zonal function, evaluated monomial by monomial
    through the moment engine of the ambient algebra."""
    algebra, rank = descriptor.algebra, descriptor.param
    total = 0.0 + 0.0j
    for key, weight in _zonal_square_keys(descriptor):
        total += weight * (moment(algebra, rank, key, t) if key else 1.0)
    return float(total.real)
