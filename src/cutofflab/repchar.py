"""Dimension products, Casimir exponents, and determinant-ratio character
evaluation for the four classical root types."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import DegenerateAlphabet, InvalidRank, WeightKindMismatch
from .partitions import Weight, _doubled
from .spaces import (CharType, RootDatum, SpaceDescriptor, _chiralities,
                     indexing_set)

_DEGENERACY_FLOOR = 1e-10


def _head(descriptor: SpaceDescriptor, weight: Weight) -> tuple[int, ...]:
    """The label's non-zero doubled parts 2 lambda_i, which lead its root
    coordinates; the rest are zero, but for a symmetric (GrC) label l,
    which enters as (l, 0, ..., 0, -l reversed)."""
    idx = indexing_set(descriptor)
    if weight.kind is not idx.kind or weight.length != idx.length:
        raise WeightKindMismatch(
            f"weight {weight} of kind {weight.kind.value}/{weight.length} does not "
            f"index {descriptor} (needs {idx.kind.value}/{idx.length})")
    return tuple(p for p in weight.parts2 if p)


def dimension(descriptor: SpaceDescriptor, weight: Weight) -> Fraction:
    """Exact dimension of the representation labelled by the weight: Weyl's
    product of <l, alpha> / <2 rho, alpha> over the positive roots alpha,
    with l = 2(lambda + rho), p = 2 lambda and 2rho_i = 2rho_0 - 2i.

    The root coordinates fall into runs of equal parts: the non-zero runs,
    then the zero block (up to the rank, or to a symmetric root's -l end).
    Coordinate i, of part p, meets a later run of part q on coordinates
    s..e-1 through (l_i - l_j) / (2rho_i - 2rho_j) = (c + d) / d, with
    c = (p - q)/2 and d = j - i, and on types B, C and D through
    (l_i + l_j) / (2rho_i + 2rho_j) = (c' + y) / y, with c' = (p + q)/2 and
    y = 2rho_0 - i - j.  Over a run each product telescopes:
    prod_{d=a}^{b} (c + d) / d = C(c + b, c) / C(c + a - 1, c).  Two zero
    coordinates give 1.  On B (e_i) and C (2e_i) each coordinate adds
    l_i / 2rho_i.  A symmetric root meets its -l end through the sums over
    its non-zero runs and mirrors the rest: each coordinate's factors are
    squared, but for l_i / 2rho_i (the pair i, -i).  Each coordinate's
    factors are reduced to one Fraction."""
    root, head = descriptor.root, _head(descriptor, weight)
    ell, rho0 = len(head), root.rho2[0]
    runs = [(head.index(q), head.index(q) + head.count(q), q)
            for q in dict.fromkeys(head)]
    runs.append((ell, root.rank - ell if root.symmetric else root.rank, 0))
    dim = Fraction(1)
    for i, p in enumerate(head):
        # partners j > i: a run before i, or an empty zero block, has none
        live = [(max(s, i + 1), e, q) for s, e, q in runs if max(s, i + 1) < e]
        ranges = [((p - q) // 2, lo - i, e - 1 - i) for lo, e, q in live]
        if root.symmetric or root.type is not CharType.A:
            ranges += [((p + q) // 2, rho0 - i - e + 1, rho0 - i - lo)
                       for lo, e, q in live if q or not root.symmetric]
        num = math.prod([math.comb(c + b, c) for c, _, b in ranges])
        den = math.prod([math.comb(c + a - 1, c) for c, a, _ in ranges])
        if root.symmetric:
            num, den = num * num, den * den
        if root.symmetric or root.type in (CharType.B, CharType.C):
            num, den = num * (p + rho0 - 2 * i), den * (rho0 - 2 * i)
        dim *= Fraction(num, den)
    return dim


def casimir_exponent(descriptor: SpaceDescriptor, weight: Weight) -> Fraction:
    """B_n(lambda): the heat-semigroup decay rate of the lambda-block,
    <lambda, lambda + 2 rho> / N = sum p_i (p_i + 2 * 2rho_i) / 4N over the
    non-zero p = 2 lambda, less |lambda|^2 / N^2 = (sum p)^2 / 4N^2 on type
    A.  A symmetric root's -l end doubles the sum and cancels |lambda|."""
    root, head = descriptor.root, _head(descriptor, weight)
    big_n, rho0 = root.rate_norm, root.rho2[0]
    total = sum(p * (p + 2 * (rho0 - 2 * i)) for i, p in enumerate(head))
    total *= 1 + root.symmetric
    size = sum(head) if root.type is CharType.A and not root.symmetric else 0
    return Fraction(total * big_n - size * size, 4 * big_n * big_n)


# -- determinant-ratio characters ------------------------------------------


# complex entries in one stack of numerator matrices: 4 MiB
_STACK = 1 << 18


def characters(char_type: CharType | str, rows2: np.ndarray,
               alphabet: Sequence[complex]) -> np.ndarray:
    """Characters at the alphabet of a stack of labels, one per row of
    doubled parts 2 lambda (zero-padded to the alphabet's length): Weyl's
    ratio det(f(z_i, l_j + rho_j)) / det(f(z_i, rho_j)) with the root
    type's entry f(z, a) = z^a, z^a - z^-a (B, C) or z^a + z^-a (D),
    z^a = e^{i a arg z}.  One denominator, and one ``np.linalg.det`` over
    each stack of at most _STACK numerator entries: a row's value is the
    one it has alone.  Type D sums both signs of a non-zero last part.  A
    denominator below 1e-10 in modulus raises DegenerateAlphabet."""
    char_type = CharType(char_type)
    thetas = np.angle(np.asarray(alphabet, dtype=complex))
    n = len(thetas)
    if rows2.shape[1] > n:
        raise ValueError(f"label longer than alphabet: {rows2.shape[1]} "
                         f"parts vs n={n}")
    root = RootDatum(char_type, n)
    rho2 = np.array(root.rho2)
    if char_type is CharType.A:
        rho2 -= rho2[-1]  # a common shift of the exponents cancels
    ell2 = np.broadcast_to(rho2, (len(rows2), n)).copy()
    ell2[:, :rows2.shape[1]] += rows2

    def entries(ells2: np.ndarray) -> np.ndarray:
        """f(z_i, a_j) at the exponents a = ``ells2`` / 2."""
        power = np.exp(1j * (thetas[:, None] * (ells2[..., None, :] / 2)))
        if char_type is CharType.A:
            return power
        mirror = power.conj()
        return power + mirror if char_type is CharType.D else power - mirror

    den = complex(np.linalg.det(entries(rho2)))
    if abs(den) < _DEGENERACY_FLOOR:
        raise DegenerateAlphabet(f"denominator {abs(den):.3e} below floor")
    num = np.empty(len(ell2), dtype=complex)
    step = max(1, _STACK // (n * n))
    for start in range(0, len(ell2), step):
        num[start:start + step] = np.linalg.det(
            entries(ell2[start:start + step]))
    # type D: the denominator's zero-exponent column carries a factor 2 that
    # the numerator of a label of two chirality pieces lacks
    num[_chiralities(root, rows2) == 2] *= 2.0
    return num / den


def schur(char_type: CharType | str, lam: "Weight | Sequence[Fraction]",
          alphabet: Sequence[complex]) -> complex:
    """One label's character at the alphabet, a Weight or its
    (half-integer) parts: ``characters`` of the one row 2 lambda."""
    parts2 = lam.parts2 if isinstance(lam, Weight) else _doubled(lam)
    return complex(characters(char_type, np.array([parts2]), alphabet)[0])


def verify_square_identity(char_type: CharType | str, n: int,
                           alphabet: Sequence[complex]) -> float:
    """|LHS - RHS| for the tensor-square decomposition of the defining character."""
    if isinstance(char_type, str):
        char_type = CharType(char_type)
    if n < 2:
        raise InvalidRank("square identities need rank >= 2")
    values = tuple(complex(z) for z in alphabet)
    if len(values) != n:
        raise ValueError(f"alphabet size {len(values)} != n={n}")

    def lbl(head: tuple[int, ...]) -> list[Fraction]:
        return [Fraction(v) for v in head + (0,) * (n - len(head))]

    if char_type is CharType.A:
        prod = 1.0 + 0.0j
        for z in values:
            prod *= z
        if abs(prod - 1.0) > 1e-8:
            raise ValueError("type A identity needs a product-one alphabet")
        tr = sum(values)
        lhs = tr * sum(1.0 / z for z in values)
        rhs = schur(CharType.A, lbl((2,) + (1,) * (n - 2)), values) + 1.0
        return abs(lhs - rhs)
    tr = sum(values) + sum(1.0 / z for z in values)
    if char_type is CharType.B:
        tr += 1.0
    lhs = tr * tr
    rhs = (schur(char_type, lbl((2,)), values)
           + schur(char_type, lbl((1, 1)), values) + 1.0)
    return abs(lhs - rhs)
