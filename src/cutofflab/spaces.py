"""Catalog of the ten classical families: normalization and cut-off constants,
series indexing sets, minimal weights, and ambient-group bookkeeping."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

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
_GROUPS = {Family.SO, Family.SU, Family.USp}

class _Constants(NamedTuple):
    beta: int
    alpha_cutoff: int
    gamma_b: int
    gamma_a: int
    n0: int
    proven_min_n: int
    c_lower: int
    C_upper: int


# n0 is the rank from which the paper states its bounds; proven_min_n is the
# least n at which the global per-term constants, and with them the tail
# certificate, are proven (ambient rank >= 5 for orthogonal, >= 3 symplectic,
# >= 2 unitary)
_TABLE: dict[Family, _Constants] = {
    Family.SO: _Constants(1, 2, 2, 2, 10, 10, 36, 6),
    Family.SU: _Constants(2, 2, 2, 4, 2, 2, 8, 10),
    Family.USp: _Constants(4, 2, 2, 2, 3, 3, 5, 3),
    Family.GrR: _Constants(1, 1, 1, 1, 10, 10, 32, 2),
    Family.GrC: _Constants(2, 1, 1, 2, 2, 2, 32, 2),
    Family.GrH: _Constants(4, 1, 1, 1, 3, 3, 16, 2),
    Family.SO2n_Un: _Constants(1, 1, 2, 1, 10, 5, 8, 2),
    Family.SUn_SOn: _Constants(2, 1, 2, 2, 2, 2, 24, 8),
    Family.SU2n_USpn: _Constants(2, 1, 2, 2, 2, 2, 22, 8),
    Family.USpn_Un: _Constants(4, 1, 2, 1, 3, 3, 17, 2),
}

_MIN_N = {
    Family.SO: 3,
    Family.SU: 2,
    Family.USp: 2,
    Family.GrR: 3,
    Family.GrC: 2,
    Family.GrH: 2,
    Family.SO2n_Un: 2,
    Family.SUn_SOn: 2,
    Family.SU2n_USpn: 2,
    Family.USpn_Un: 2,
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

    @property
    def param(self) -> int:
        """The growth parameter appearing inside the cut-off logarithm."""
        if self.family in (Family.SO2n_Un, Family.SU2n_USpn):
            return 2 * self.n
        return self.n

    @property
    def matrix_size(self) -> int:
        """Side of the matrices carrying the isometry group."""
        if self.family in (Family.USp, Family.GrH, Family.USpn_Un,
                           Family.SO2n_Un, Family.SU2n_USpn):
            return 2 * self.n
        return self.n

    @property
    def field_tag(self) -> str:
        """Scalar field of the stored matrices ('real' or 'complex')."""
        return "real" if self.algebra == "so" else "complex"

    def ambient_group(self) -> "SpaceDescriptor":
        """The isometry group of this space as a group-family descriptor."""
        if self.is_group:
            return self
        fam = _AMBIENT[self.family]
        if fam is Family.SO and self.family is Family.SO2n_Un:
            return describe(fam, 2 * self.n)
        if fam is Family.SU and self.family is Family.SU2n_USpn:
            return describe(fam, 2 * self.n)
        return describe(fam, self.n)

    def to_json_dict(self) -> dict:
        return {
            "family": self.family.value,
            "n": self.n,
            "q": self.q,
            "beta": self.beta,
            "alpha_cutoff": self.alpha_cutoff,
            "n0": self.n0,
            "c_lower": self.c_lower,
            "C_upper": self.C_upper,
            "gamma_b": self.gamma_b,
            "gamma_a": self.gamma_a,
            "drift_alpha": str(self.drift_alpha),
            "is_group": self.is_group,
        }

    def __str__(self) -> str:
        if self.q is not None:
            return f"{self.family.value}({self.n},{self.q})"
        return f"{self.family.value}({self.n})"


_AMBIENT = {
    Family.SO: Family.SO,
    Family.SU: Family.SU,
    Family.USp: Family.USp,
    Family.GrR: Family.SO,
    Family.GrC: Family.SU,
    Family.GrH: Family.USp,
    Family.SO2n_Un: Family.SO,
    Family.SUn_SOn: Family.SU,
    Family.SU2n_USpn: Family.SU,
    Family.USpn_Un: Family.USp,
}


def drift_coefficient(algebra: str, n: int) -> Fraction:
    """Scalar alpha with sum X_a X_a = alpha * I on the defining space of
    so(n), su(n) or usp(n), for an orthonormal basis of the invariant metric;
    the heat flow's mean matrix decays as exp(alpha * t / 2)."""
    if algebra == "so":
        return Fraction(-(n - 1), n)
    if algebra == "su":
        return Fraction(-(n * n - 1), n * n)
    return Fraction(-(2 * n + 1), 2 * n)


def describe(family: Family | str, n: int, q: Optional[int] = None) -> SpaceDescriptor:
    """The fully populated descriptor for one family member."""
    if isinstance(family, str):
        try:
            family = Family(family)
        except ValueError as exc:
            raise UnknownFamily(f"no family named {family!r}") from exc
    if family not in _TABLE:  # pragma: no cover
        raise UnknownFamily(f"no family named {family!r}")
    if n < _MIN_N[family]:
        raise InvalidRank(f"{family.value} needs n >= {_MIN_N[family]}, got {n}")
    if family in _GRASSMANN:
        if q is None:
            raise InvalidRank(f"{family.value} needs the second parameter q")
        if not 1 <= q <= n - 1:
            raise InvalidRank(f"q={q} out of range for {family.value}({n}): "
                              f"need 1 <= q <= {n - 1}")
        q = min(q, n - q)
    elif q is not None:
        raise InvalidRank(f"{family.value} takes no q parameter")
    algebra = _AMBIENT[family].value.lower()
    return SpaceDescriptor(
        family=family,
        n=n,
        q=q,
        **_TABLE[family]._asdict(),
        drift_alpha=drift_coefficient(
            algebra, 2 * n if family in (Family.SO2n_Un, Family.SU2n_USpn) else n),
        is_group=family in _GROUPS,
        algebra=algebra,
    )


def indexing_set(descriptor: SpaceDescriptor) -> IndexingSetKind:
    """Weight-label family and coordinate count of the density summation."""
    fam, n, q = descriptor.family, descriptor.n, descriptor.q
    if fam is Family.SO:
        return IndexingSetKind(WeightKind.halfY, n // 2)
    if fam is Family.SU:
        return IndexingSetKind(WeightKind.Y, n - 1)
    if fam is Family.USp:
        return IndexingSetKind(WeightKind.Y, n)
    if fam is Family.GrR:
        return IndexingSetKind(WeightKind.evenOrOddY, q)
    if fam is Family.GrC:
        return IndexingSetKind(WeightKind.Y, q)
    if fam is Family.GrH:
        return IndexingSetKind(WeightKind.doubledY, 2 * q)
    if fam is Family.SO2n_Un:
        return IndexingSetKind(WeightKind.doubledY, n)
    if fam is Family.SUn_SOn:
        return IndexingSetKind(WeightKind.evenY, n - 1)
    if fam is Family.SU2n_USpn:
        return IndexingSetKind(WeightKind.doubledY, 2 * n - 1)
    if fam is Family.USpn_Un:
        return IndexingSetKind(WeightKind.evenY, n)
    raise UnknownFamily(str(fam))  # pragma: no cover


def _unit_weight(kind: WeightKind, length: int, head: tuple[int, ...]) -> Weight:
    parts = head + (0,) * (length - len(head))
    return Weight.of(parts, kind)


def minimal_weight(descriptor: SpaceDescriptor) -> tuple[Weight, Fraction, Fraction]:
    """(lambda_min, A_min, B_min): the slowest-decaying series label."""
    fam, n, q = descriptor.family, descriptor.n, descriptor.q
    idx = indexing_set(descriptor)
    if fam is Family.SO:
        lam = _unit_weight(idx.kind, idx.length, (1,))
        return lam, Fraction(n * n), Fraction(n - 1, n)
    if fam is Family.SU:
        lam = _unit_weight(idx.kind, idx.length, (1,))
        return lam, Fraction(n * n), Fraction(n * n - 1, n * n)
    if fam is Family.USp:
        lam = _unit_weight(idx.kind, idx.length, (1,))
        return lam, Fraction(4 * n * n), Fraction(2 * n + 1, 2 * n)
    if fam is Family.GrR:
        lam = _unit_weight(idx.kind, idx.length, (2,))
        return lam, Fraction((n - 1) * (n + 2), 2), Fraction(2)
    if fam is Family.GrC:
        lam = _unit_weight(idx.kind, idx.length, (1,))
        return lam, Fraction(n * n - 1), Fraction(2)
    if fam is Family.GrH:
        lam = _unit_weight(idx.kind, idx.length, (1, 1))
        return lam, Fraction((n - 1) * (2 * n + 1)), Fraction(2)
    if fam is Family.SO2n_Un:
        lam = _unit_weight(idx.kind, idx.length, (1, 1))
        return lam, Fraction(n * (2 * n - 1)), Fraction(2 * (n - 1), n)
    if fam is Family.SUn_SOn:
        lam = _unit_weight(idx.kind, idx.length, (2,))
        return lam, Fraction(n * (n + 1), 2), Fraction(2 * (n - 1) * (n + 2), n * n)
    if fam is Family.SU2n_USpn:
        lam = _unit_weight(idx.kind, idx.length, (1, 1))
        return lam, Fraction(n * (2 * n - 1)), Fraction((n - 1) * (2 * n + 1), n * n)
    if fam is Family.USpn_Un:
        lam = _unit_weight(idx.kind, idx.length, (2,))
        return lam, Fraction(n * (2 * n + 1)), Fraction(2 * (n + 1), n)
    raise UnknownFamily(str(fam))  # pragma: no cover
