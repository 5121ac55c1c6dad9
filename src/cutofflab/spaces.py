"""Catalog of the ten classical families: one table row per family holds its
normalization and cut-off constants, rank floor, ambient group, per-term
constants, variance cap and, on a quotient, the shape of its observable;
each descriptor derives from it the root datum of its labels, the series
indexing set and the minimal weight."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

from .errors import InvalidRank, UnknownFamily
from .partitions import IndexingSetKind, Weight, WeightKind


class Family(enum.Enum):
    SO = "SO"
    SU = "SU"
    USp = "USp"
    GrR = "GrR"
    GrC = "GrC"
    GrH = "GrH"
    SO2n_Un = "SO2n_Un"
    SUn_SOn = "SUn_SOn"
    SU2n_USpn = "SU2n_USpn"
    USpn_Un = "USpn_Un"


FAMILY_NAMES = tuple(f.value for f in Family)

_GRASSMANN = {Family.GrR, Family.GrC, Family.GrH}


class CharType(enum.Enum):
    """Root type of a classical group's highest weights."""

    A = "A"
    B = "B"
    C = "C"
    D = "D"


class RootDatum(NamedTuple):
    """Root type and rank of the isometry group whose highest weights label a
    family's series.  Type A at rank m is U(m) with m coordinates, B at rank r
    is SO(2r+1), C at rank r is USp(r), D at rank r is SO(2r).  ``symmetric``
    marks GrC, whose label l enters as (l, 0, ..., 0, -l reversed)."""

    type: CharType
    rank: int
    symmetric: bool = False

    @property
    def rho2(self) -> range:
        """2 rho, the doubled Weyl vector in label coordinates: 2 rho_i =
        c - 2i for i = 1..rank, with c = rank + 1 on type A (where rho sums
        to 0), 2 rank + 1 on B, 2 rank + 2 on C and 2 rank on D.  A range,
        so reading one entry costs nothing at any rank."""
        r = self.rank
        c = {CharType.A: r + 1, CharType.B: 2 * r + 1, CharType.C: 2 * r + 2,
             CharType.D: 2 * r}[self.type]
        return range(c - 2, c - 2 * r - 1, -2)

    @property
    def rate_norm(self) -> int:
        """N, the side of the defining matrices: the Casimir rate of a label
        l is <l, l + 2 rho> / N, less |l|^2 / N^2 on type A."""
        r = self.rank
        return {CharType.A: r, CharType.B: 2 * r + 1}.get(self.type, 2 * r)


class Observable(NamedTuple):
    """Shape of a quotient's zonal polynomial Omega in the ambient entries
    g_ij: ``form`` ``square`` g_ij^2, ``modulus`` |g_ij|^2, or ``det`` of the
    2 x 2 block at (2i, 2j), whose units are then those blocks; ``layout``
    ``all``, every unit weighted 1/units, or ``split``, the p x p and q x q
    diagonal blocks weighted 1/p and 1/q (p = units - q) with a shift of -1."""

    layout: str
    form: str


_PerTerm = tuple[Fraction, Optional[Fraction]]


class _Row(NamedTuple):
    beta: int
    alpha_cutoff: int
    gamma_b: int
    gamma_a: int
    n0: int
    proven_min_n: int
    c_lower: int
    C_upper: int
    min_n: int  # least n at which the family is defined
    ambient: Family  # the isometry group, of rank rank_factor * n
    rank_factor: int
    labels: WeightKind  # the series labels' kind
    # K bounding the observable's variance before cut-off; Grassmannian
    # entries are multiplied by param to the window exponent
    variance_k: int
    # (integer-label constant, half-label constant or None) bounding
    # D^lambda * param^(-B) over the family's labels, at even and at odd n
    per_term: tuple[_PerTerm, _PerTerm]
    symmetric: bool = False  # see RootDatum
    observable: Optional[Observable] = None  # None on a group: the trace


_CONSTANTS = _Row._fields[:8]  # beta .. C_upper: copied onto each descriptor


def _same(integer: Fraction) -> tuple[_PerTerm, _PerTerm]:
    return ((integer, None),) * 2


_F = Fraction

# n0 is the rank from which the paper states its bounds; proven_min_n is the
# least n at which the global per-term constants, and with them the tail
# certificate, are proven (ambient rank >= 5 for orthogonal, >= 3 symplectic,
# >= 2 unitary)
_TABLE: dict[Family, _Row] = {
    # The odd orthogonal integer constant is 5/4: the first growth step from
    # the empty partition gives exactly (2m+1)^{1/(2m+1)} <= 11^{1/11} < 5/4,
    # and every later step quotient is at most 1 except one bounded by 1.09.
    Family.SO: _Row(1, 2, 2, 2, 10, 10, 36, 6,
                    3, Family.SO, 1, WeightKind.halfY, 8,
                    ((_F(4, 3), _F(48, 15)), (_F(5, 4), _F(11, 5)))),
    Family.SU: _Row(2, 2, 2, 4, 2, 2, 8, 10,
                    2, Family.SU, 1, WeightKind.Y, 1, _same(_F(3, 2))),
    Family.USp: _Row(4, 2, 2, 2, 3, 3, 5, 3,
                     2, Family.USp, 1, WeightKind.Y, 3, _same(_F(14, 3))),
    Family.GrR: _Row(1, 1, 1, 1, 10, 10, 32, 2,
                     3, Family.SO, 1, WeightKind.evenOrOddY, 3,
                     ((_F(4, 3), None), (_F(5, 4), None)),
                     observable=Observable("split", "square")),
    Family.GrC: _Row(2, 1, 1, 2, 2, 2, 32, 2,
                     2, Family.SU, 1, WeightKind.Y, 5, _same(_F(1)),
                     symmetric=True, observable=Observable("split", "modulus")),
    Family.GrH: _Row(4, 1, 1, 1, 3, 3, 16, 2,
                     2, Family.USp, 1, WeightKind.doubledY, 5, _same(_F(14, 3)),
                     observable=Observable("split", "det")),
    Family.SO2n_Un: _Row(1, 1, 2, 1, 10, 5, 8, 2,
                         2, Family.SO, 2, WeightKind.doubledY, 3, _same(_F(4, 3)),
                         observable=Observable("all", "det")),
    Family.SUn_SOn: _Row(2, 1, 2, 2, 2, 2, 24, 8,
                         2, Family.SU, 1, WeightKind.evenY, 1, _same(_F(3, 2)),
                         observable=Observable("all", "square")),
    Family.SU2n_USpn: _Row(2, 1, 2, 2, 2, 2, 22, 8,
                           2, Family.SU, 2, WeightKind.doubledY, 1,
                           _same(_F(3, 2)), observable=Observable("all", "det")),
    Family.USpn_Un: _Row(4, 1, 2, 1, 3, 3, 17, 2,
                         2, Family.USp, 1, WeightKind.evenY, 3, _same(_F(14, 3)),
                         observable=Observable("all", "square")),
}


@dataclass(frozen=True)
class SpaceDescriptor:
    """One classical family member with its constants."""

    family: Family
    n: int
    q: Optional[int]
    beta: int
    alpha_cutoff: int
    n0: int
    proven_min_n: int
    c_lower: int
    C_upper: int
    gamma_b: int
    gamma_a: int
    drift_alpha: Fraction
    is_group: bool
    algebra: str  # "so", "su" or "usp": the Lie algebra of the isometry group
    ambient: Family  # the isometry group's family
    param: int  # the isometry group's rank, inside the cut-off logarithm
    root: RootDatum
    per_term: _PerTerm
    variance_k: int
    observable: Optional[Observable]

    def __hash__(self) -> int:
        # every other field follows from these three
        return hash((self.family, self.n, self.q))

    @property
    def field_tag(self) -> str:
        """Scalar field of the stored matrices ('real' or 'complex')."""
        return "real" if self.algebra == "so" else "complex"

    def ambient_group(self) -> "SpaceDescriptor":
        """The isometry group of this space as a group-family descriptor."""
        return self if self.is_group else describe(self.ambient, self.param)

    def __str__(self) -> str:
        if self.q is not None:
            return f"{self.family.value}({self.n},{self.q})"
        return f"{self.family.value}({self.n})"


def matrix_side(algebra: str, n: int) -> int:
    """Side of the defining matrices of so(n), su(n) or usp(n): 2n for the
    quaternionic embedding of usp."""
    return 2 * n if algebra == "usp" else n


def drift_coefficient(algebra: str, n: int) -> Fraction:
    """Scalar alpha with sum X_a X_a = alpha * I on the defining space of
    so(n), su(n) or usp(n), for an orthonormal basis of the invariant metric;
    the heat flow's mean matrix decays as exp(alpha * t / 2)."""
    if algebra == "so":
        return Fraction(-(n - 1), n)
    if algebra == "su":
        return Fraction(-(n * n - 1), n * n)
    return Fraction(-(2 * n + 1), 2 * n)


def _root_datum(algebra: str, rank: int, symmetric: bool) -> RootDatum:
    if algebra == "su":
        return RootDatum(CharType.A, rank, symmetric)
    if algebra == "usp":
        return RootDatum(CharType.C, rank)
    return RootDatum(CharType.B if rank % 2 else CharType.D, rank // 2)


def describe(family: Family | str, n: int, q: Optional[int] = None) -> SpaceDescriptor:
    """The fully populated descriptor for one family member."""
    if isinstance(family, str):
        try:
            family = Family(family)
        except ValueError as exc:
            raise UnknownFamily(f"no family named {family!r}") from exc
    row = _TABLE[family]
    if n < row.min_n:
        raise InvalidRank(f"{family.value} needs n >= {row.min_n}, got {n}")
    if family in _GRASSMANN:
        if q is None:
            raise InvalidRank(f"{family.value} needs the second parameter q")
        if not 1 <= q <= n - 1:
            raise InvalidRank(f"q={q} out of range for {family.value}({n}): "
                              f"need 1 <= q <= {n - 1}")
        q = min(q, n - q)
    elif q is not None:
        raise InvalidRank(f"{family.value} takes no q parameter")
    algebra = row.ambient.value.lower()
    rank = row.rank_factor * n
    return SpaceDescriptor(
        family=family, n=n, q=q,
        **{name: getattr(row, name) for name in _CONSTANTS},
        drift_alpha=drift_coefficient(algebra, rank),
        is_group=row.ambient is family,
        algebra=algebra,
        ambient=row.ambient,
        param=rank,
        root=_root_datum(algebra, rank, row.symmetric),
        per_term=row.per_term[n % 2],
        variance_k=row.variance_k,
        observable=row.observable,
    )


def indexing_set(descriptor: SpaceDescriptor) -> IndexingSetKind:
    """Weight-label family and coordinate count of the density summation:
    q coordinates on a Grassmannian (q pairs on GrH), else the root datum's
    coordinates, less the determinant's on type A."""
    kind = _TABLE[descriptor.family].labels
    if descriptor.q is not None:
        pairs = kind is WeightKind.doubledY
        return IndexingSetKind(kind, 2 * descriptor.q if pairs else descriptor.q)
    root = descriptor.root
    return IndexingSetKind(kind, root.rank - (root.type is CharType.A))


# the label an observable's entries span: (1) for the trace, the symmetric or
# exterior square, or on GrC (1, 0, ..., 0, -1) for |g_ij|^2
_ENTRY_LABEL = {"square": (2,), "modulus": (1,), "det": (1, 1)}


def _chiralities(root: RootDatum, rows: np.ndarray) -> np.ndarray:
    """For each row of doubled parts: 2 when the label, in root
    coordinates, is a type D highest weight with a non-zero last part (a
    row as wide as the rank): it then stands for the two chirality pieces
    (last part +l and -l), each of the Weyl dimension; else 1."""
    if root.type is CharType.D and rows.shape[1] == root.rank:
        return np.where(rows[:, -1] != 0, 2, 1)
    return np.ones(len(rows), dtype=int)


def _chirality(descriptor: SpaceDescriptor, weight: Weight) -> int:
    """``_chiralities`` of one label."""
    return int(_chiralities(descriptor.root, np.array([weight.parts2]))[0])


def minimal_weight(descriptor: SpaceDescriptor) -> tuple[Weight, Fraction, Fraction]:
    """(lambda_min, A_min, B_min): the slowest-decaying series label, the
    label of the observable's entries, with A_min = (chirality * D^lambda)
    squared on a group and to the first power on a quotient, and
    B_min = B(lambda)."""
    from .repchar import casimir_exponent, dimension  # repchar imports spaces

    shape = descriptor.observable
    lam = indexing_set(descriptor).label(
        _ENTRY_LABEL[shape.form] if shape else (1,))
    power = 2 if descriptor.is_group else 1
    a_min = (_chirality(descriptor, lam) * dimension(descriptor, lam)) ** power
    return lam, a_min, casimir_exponent(descriptor, lam)
