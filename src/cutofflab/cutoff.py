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
from itertools import product
from typing import Iterable

import numpy as np

from .errors import FieldMismatch, UnsupportedSpace, require_time
from .heatseries import t_zero, tv_upper_bound
from .moments import _qnorm, moment, zonal_square_expansion
from .partitions import Weight
from .repchar import casimir_exponent, dimension
from .spaces import (CharType, SpaceDescriptor, _chirality, indexing_set,
                     matrix_side, minimal_weight)

__all__ = [
    "ProfilePoint",
    "omega_value",
    "zonal_value",
    "mean_variance",
    "variance_cap",
    "lower_bound",
    "certified_window",
    "profile",
    "zonal_square_series",
    "zonal_square_via_moments",
]

def _check_matrix(descriptor: SpaceDescriptor, matrix: np.ndarray) -> np.ndarray:
    mat = np.asarray(matrix)
    m = matrix_side(descriptor.algebra, descriptor.param)
    if mat.ndim not in (2, 3) or mat.shape[-2:] != (m, m):
        raise ValueError(f"expected a {m} x {m} matrix or a stack of them, "
                         f"got {mat.shape}")
    if descriptor.field_tag == "real" and np.iscomplexobj(mat):
        if mat.size and np.abs(mat.imag).max() > 1e-12:
            raise FieldMismatch(f"{descriptor} carries real matrices")
        mat = mat.real
    return mat


def _per_matrix(values: np.ndarray) -> complex | np.ndarray:
    """A Python scalar for one matrix, the array for a stack."""
    return values.item() if np.ndim(values) == 0 else values


def _phi_monomials(descriptor: SpaceDescriptor) -> list[tuple[float, tuple]]:
    """The zonal polynomial as signed monomials in (row, col, conj) entries
    of the ambient matrix, including the basepoint shift, built from the
    space's ``Observable`` entry."""
    shape = descriptor.observable
    if shape is None:
        raise UnsupportedSpace(f"{descriptor} is a group: its Omega is a trace")
    det = shape.form == "det"
    side = matrix_side(descriptor.algebra, descriptor.param)
    units = side // 2 if det else side
    if shape.layout == "split":
        p, q = units - descriptor.q, descriptor.q
        blocks = [(range(p), 1.0 / p), (range(p, units), 1.0 / q)]
    else:
        blocks = [(range(units), 1.0 / units)]
    conj = shape.form == "modulus"
    out: list[tuple[float, tuple]] = []
    for block, w in blocks:
        for i, j in product(block, block):
            if det:
                out.extend((w * sign, m) for sign, m in _qnorm(i, j))
            else:
                out.append((w, ((i, j, False), (i, j, conj))))
    return (out + [(-1.0, ())]) if shape.layout == "split" else out


def _complex_valued(descriptor: SpaceDescriptor) -> bool:
    """Whether Omega is complex: on an su ambient, unless it is a zonal
    polynomial whose entries enter as moduli."""
    shape = descriptor.observable
    return descriptor.algebra == "su" and not (shape and shape.form == "modulus")


@lru_cache(maxsize=64)
def _gather(descriptor: SpaceDescriptor) -> tuple:
    """(coefficients, flat indices of the first and of the second factors,
    whether the second is conjugated, constant) of the zonal polynomial's
    monomials."""
    monomials = _phi_monomials(descriptor)
    m = matrix_side(descriptor.algebra, descriptor.param)
    terms = [(c, e) for c, e in monomials if e]
    index = np.array([[i * m + j for i, j, _ in e] for _, e in terms])
    conj = terms[0][1][1][2]  # the same on every monomial
    shift = sum(c for c, e in monomials if not e)
    return np.array([c for c, _ in terms]), index[:, 0], index[:, 1], conj, shift


def zonal_value(descriptor: SpaceDescriptor,
                matrix: np.ndarray) -> complex | np.ndarray:
    """Basepoint-normalized minimal zonal function, evaluated on an isometry
    or on each matrix of a stack of them (leading batch axis): the monomials
    of ``_phi_monomials``, summed in the same order for every matrix."""
    g = _check_matrix(descriptor, matrix)
    coeffs, first, second, conj, shift = _gather(descriptor)
    flat = g.reshape(g.shape[:-2] + (-1,))
    # take keeps each matrix's products in one contiguous row, so the sum
    # adds them in the same order whatever the stack's length
    other = flat.take(second, axis=-1)
    if conj:
        other = other.conj()
    values = (flat.take(first, axis=-1) * other * coeffs).sum(axis=-1) + shift
    return _per_matrix(values if _complex_valued(descriptor) else values.real)


def omega_value(descriptor: SpaceDescriptor,
                matrix: np.ndarray) -> complex | np.ndarray:
    """Evaluate the discriminating observable on a matrix, or on each
    matrix of a stack of them (leading batch axis): the trace on a group,
    sqrt(A_min) times the zonal value on a quotient."""
    if descriptor.is_group:
        tr = np.trace(_check_matrix(descriptor, matrix), axis1=-2, axis2=-1)
        return _per_matrix(tr if _complex_valued(descriptor) else tr.real)
    return _moment_terms(descriptor)[0] * zonal_value(descriptor, matrix)


# -- mean and variance under the heat flow ---------------------------------


def _group_square_terms(descriptor: SpaceDescriptor) -> list[tuple[Weight, int]]:
    """Non-trivial labels in the expansion of the squared trace modulus,
    with multiplicity two when a label carries both chirality pieces."""
    idx = indexing_set(descriptor)
    if descriptor.root.type is CharType.A:
        return [(idx.label((2,) + (1,) * (idx.length - 1)), 1)]
    two = idx.label((2,))
    if idx.length >= 2:
        pair = idx.label((1, 1))
        return [(two, 1), (pair, _chirality(descriptor, pair))]
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
    return tuple((float(coeff), float(casimir_exponent(descriptor, w)))
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


def profile(descriptor: SpaceDescriptor,
            t_grid: Iterable[float]) -> list[ProfilePoint]:
    """Lower and upper total-variation bounds along a time grid."""
    points = []
    for t in t_grid:
        t = float(t)
        points.append(ProfilePoint(t, lower_bound(descriptor, t),
                                   tv_upper_bound(descriptor, t)))
    return points


# -- squared zonal functions through the moment engine ---------------------


def _canonical(entries: tuple, width: int) -> tuple:
    """Relabel indices by first occurrence, in blocks of ``width`` (2 for
    quaternionic matrices), after sorting plain before conjugated factors."""
    relabel: dict[int, int] = {}

    def remap(idx: int) -> int:
        block, off = divmod(idx, width)
        return width * relabel.setdefault(block, len(relabel)) + off

    return tuple((remap(i), remap(j), c)
                 for i, j, c in sorted(entries, key=lambda e: (e[2], e)))


@lru_cache(maxsize=64)
def _zonal_square_keys(descriptor: SpaceDescriptor) -> tuple[tuple[tuple, float], ...]:
    """(canonical moment pattern, summed coefficient) of every monomial of
    the squared zonal polynomial; the empty pattern is the constant."""
    base = _phi_monomials(descriptor)
    other = ([(c, tuple((i, j, not cj) for i, j, cj in m)) for c, m in base]
             if _complex_valued(descriptor) else base)
    width = 2 if descriptor.algebra == "usp" else 1
    weights: dict[tuple, float] = {}
    for (c1, m1), (c2, m2) in product(base, other):
        key = _canonical(m1 + m2, width)
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
