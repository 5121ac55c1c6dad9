"""Dimension products, Casimir exponents, and determinant-ratio character
evaluation for the four classical root types."""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import DegenerateAlphabet, InvalidRank, WeightKindMismatch
from .partitions import Weight
from .spaces import CharType, RootDatum, SpaceDescriptor, indexing_set

_DEGENERACY_FLOOR = 1e-10


def _root_parts2(descriptor: SpaceDescriptor, weight: Weight) -> list[int]:
    """2 lambda in the root datum's coordinates, zero-padded to its rank: a
    symmetric (GrC) label l enters as (l, 0, ..., 0, -l reversed)."""
    idx = indexing_set(descriptor)
    if weight.kind is not idx.kind or weight.length != idx.length:
        raise WeightKindMismatch(
            f"weight {weight} of kind {weight.kind.value}/{weight.length} does not "
            f"index {descriptor} (needs {idx.kind.value}/{idx.length})")
    head = list(weight.parts2)
    rank = descriptor.root.rank
    if descriptor.root.symmetric:
        return head + [0] * (rank - 2 * len(head)) + [-v for v in reversed(head)]
    return head + [0] * (rank - len(head))


def dimension(descriptor: SpaceDescriptor, weight: Weight) -> Fraction:
    """Exact dimension of the representation labelled by the weight: Weyl's
    product of <l, alpha> / <2 rho, alpha> over the positive roots alpha,
    with l = 2(lambda + rho) an integer vector: (l_i - l_j) / (2rho_i - 2rho_j)
    and, on types B, C, D, (l_i + l_j) / (2rho_i + 2rho_j) for i < j, with
    the pair i = j (e_i on B, 2e_i on C, each l_i / 2rho_i) on B and C.  A
    factor whose coordinates are both zero parts of the label multiplies
    numerator and denominator by the same integer, so each pair with a
    non-zero part is formed once, from its first non-zero end i; negating
    both terms of a factor leaves it unchanged, so the order of i and j
    does not matter.  A difference factor of two equal parts is exactly 1
    too, and is skipped.  Each coordinate's factors are reduced to a
    Fraction before they are multiplied in, so no product grows past what
    the reduced dimension needs."""
    root = descriptor.root
    rank, rho2 = root.rank, root.rho2
    parts2 = _root_parts2(descriptor, weight)
    ell = [p + r for p, r in zip(parts2, rho2)]
    sums = root.type is not CharType.A
    diagonal = root.type in (CharType.B, CharType.C)
    dim = Fraction(1)
    for i in (k for k in range(rank) if parts2[k]):
        js = [j for j in range(rank) if j > i or (j < i and not parts2[j])]
        li, ri, pi = ell[i], rho2[i], parts2[i]
        diffs = [j for j in js if parts2[j] != pi]
        num = math.prod([li - ell[j] for j in diffs])
        den = math.prod([ri - rho2[j] for j in diffs])
        if sums:
            num *= math.prod([li + ell[j] for j in js])
            den *= math.prod([ri + rho2[j] for j in js])
        if diagonal:
            num *= li
            den *= ri
        dim *= Fraction(num, den)
    return dim


def casimir_exponent(descriptor: SpaceDescriptor, weight: Weight) -> Fraction:
    """B_n(lambda): the heat-semigroup decay rate of the lambda-block,
    <lambda, lambda + 2 rho> / N = sum p (p + 2 * 2rho) / 4N over p = 2 lambda,
    less |lambda|^2 / N^2 = (sum p)^2 / 4N^2 on type A."""
    parts2 = _root_parts2(descriptor, weight)
    root = descriptor.root
    big_n = root.rate_norm
    total = sum(p * (p + 2 * r2) for p, r2 in zip(parts2, root.rho2))
    if root.type is CharType.A:
        size = sum(parts2)
        return Fraction(total * big_n - size * size, 4 * big_n * big_n)
    return Fraction(total, 4 * big_n)


# -- determinant-ratio characters ------------------------------------------


def _power_matrix(thetas: Sequence[float], exponents: Sequence[Fraction],
                  combine: str) -> np.ndarray:
    """M[i,j] built from e^{i a_j theta_i}, optionally +- the reciprocal power."""
    n = len(thetas)
    mat = np.empty((n, len(exponents)), dtype=complex)
    for j, a in enumerate(exponents):
        af = float(a)
        for i, th in enumerate(thetas):
            zp = cmath.exp(1j * af * th)
            if combine == "plain":
                mat[i, j] = zp
            elif combine == "diff":
                mat[i, j] = zp - cmath.exp(-1j * af * th)
            else:
                mat[i, j] = zp + cmath.exp(-1j * af * th)
    return mat


def _det(mat: np.ndarray) -> complex:
    return complex(np.linalg.det(mat))


# the determinant entry at exponent a of each root type
_ENTRY = {CharType.A: "plain", CharType.B: "diff", CharType.C: "diff",
          CharType.D: "sum"}


def schur(char_type: CharType | str, lam: "Weight | Sequence[Fraction]",
          alphabet: Sequence[complex]) -> complex:
    """Character value at the alphabet via Weyl's determinant ratio
    det(f(z_i, l_j + rho_j)) / det(f(z_i, rho_j)), with the root type's
    entry f(z, a) = z^a, z^a - z^-a (B, C) or z^a + z^-a (D).

    Type D returns the sum over both signs of the last part when it is non-zero
    and the plain value when it is zero.
    """
    if isinstance(char_type, str):
        char_type = CharType(char_type)
    values = tuple(complex(z) for z in alphabet)
    n = len(values)
    if isinstance(lam, Weight):
        parts = list(lam.parts)
    else:
        parts = [Fraction(v) for v in lam]
    if len(parts) > n:
        raise ValueError(f"label longer than alphabet: {parts} vs n={n}")
    parts = parts + [Fraction(0)] * (n - len(parts))
    thetas = [cmath.phase(z) for z in values]
    entry = _ENTRY[char_type]
    rho2 = RootDatum(char_type, n).rho2
    if entry == "plain":
        # a common shift of the exponents cancels: take rho ending at 0
        rho2 = tuple(v - rho2[-1] for v in rho2)
    rho = [Fraction(v, 2) for v in rho2]
    den = _det(_power_matrix(thetas, rho, entry))
    if abs(den) < _DEGENERACY_FLOOR:
        raise DegenerateAlphabet(f"denominator {abs(den):.3e} below floor")
    total = _det(_power_matrix(thetas, [p + v for p, v in zip(parts, rho)],
                               entry))
    if char_type is CharType.D and parts[-1] != 0:
        # the denominator's zero-exponent column carries a factor 2 that the
        # numerator lacks once the last exponent is non-zero
        total *= 2.0
    return total / den


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
