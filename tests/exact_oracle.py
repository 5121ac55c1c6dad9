"""Reference routes for exact label arithmetic and partition counts, kept as
test oracles for ``repchar`` and ``partitions``.

``oracle_dimension`` and ``oracle_casimir_exponent`` take the label's true
parts as ``Fraction``s, scale them by their least common denominator d to
integers, and form Weyl's product and the rate over those.
``oracle_count_table`` is the two-dimensional bounded-length recurrence, and
``oracle_within_label_limit`` the label guard that counted sizes upward, one
row per part bound, until the count passed the limit of labels at the width
they fill.  ``oracle_fits_by_length`` is the table guard as it was before it
counted a block's width: labels times the indexing length.  The library
must give the same Fractions, integers and booleans (``==``, not
approximately).

``oracle_density`` is the heat-kernel density as it was summed before it
read the term table: one label at a time from ``enumerate_by_size``, with
the exact dimension and rate, and each character from its own scalar
determinant ratio or rank-one sine ratio.  It returns the sum of |terms|
beside the sum, the scale of the float engine's tolerance.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

from cutofflab.partitions import (MAX_LABEL_ENTRIES, MAX_LABELS, IndexingSetKind,
                                  Weight, WeightKind, enumerate_by_size)
from cutofflab.repchar import casimir_exponent, dimension
from cutofflab.spaces import (CharType, RootDatum, SpaceDescriptor, _chirality,
                              indexing_set)


def _scaled(parts: list[Fraction], length: int) -> tuple[list[int], int]:
    """(d * l_1, ..., d * l_length) as ints for the zero-padded label, with d
    the least common denominator of its parts (2 for half-integer labels)."""
    d = math.lcm(*(v.denominator for v in parts))
    lam = [v.numerator * (d // v.denominator) for v in parts]
    return lam + [0] * (length - len(lam)), d


def _root_label(descriptor: SpaceDescriptor, weight: Weight) -> list[Fraction]:
    """The true parts in root coordinates: a symmetric (GrC) label l enters
    as (l, 0, ..., 0, -l reversed)."""
    head = list(weight.parts)
    if not descriptor.root.symmetric:
        return head
    zeros = [Fraction(0)] * (descriptor.root.rank - 2 * len(head))
    return head + zeros + [-v for v in reversed(head)]


def _product(factors: list[int]) -> int:
    """The product of the factors, multiplied pairwise in rounds: the same
    integer as a running product, without its quadratic cost in the
    length of the result."""
    while len(factors) > 1:
        factors = [a * b for a, b in zip(factors[::2], factors[1::2])] + \
            factors[len(factors) - len(factors) % 2:]
    return factors[0] if factors else 1


def _weyl_product(parts: list[Fraction], root: RootDatum) -> Fraction:
    """The factors <l + rho, alpha> / <rho, alpha> over the positive roots:
    e_i - e_j and, on B, C, D, e_i + e_j (i < j), with i = j on B and C."""
    rank = root.rank
    lam, d = _scaled(parts, rank)
    rho2 = root.rho2
    num, den = [], []
    for i in range(rank):
        for j in range(i + 1, rank):
            shift = (rho2[i] - rho2[j]) // 2
            num.append(lam[i] - lam[j] + d * shift)
            den.append(d * shift)
    if root.type is not CharType.A:
        diagonal = root.type in (CharType.B, CharType.C)
        for i in range(rank):
            for j in range(i if diagonal else i + 1, rank):
                shift = (rho2[i] + rho2[j]) // 2
                num.append(lam[i] + lam[j] + d * shift)
                den.append(d * shift)
    return Fraction(_product(num), _product(den))


def oracle_dimension(descriptor: SpaceDescriptor, weight: Weight) -> Fraction:
    return _weyl_product(_root_label(descriptor, weight), descriptor.root)


def oracle_casimir_exponent(descriptor: SpaceDescriptor,
                            weight: Weight) -> Fraction:
    """<l, l + 2 rho> / N, less |l|^2 / N^2 on type A, as scaled integers."""
    parts = _root_label(descriptor, weight)
    lam, d = _scaled(parts, len(parts))
    root = descriptor.root
    big_n = root.rate_norm
    total = sum(v * v + d * r2 * v for v, r2 in zip(lam, root.rho2))
    if root.type is CharType.A:
        size = sum(lam)
        return Fraction(total * big_n - size * size, d * d * big_n * big_n)
    return Fraction(total, d * d * big_n)


def oracle_count_table(max_size: int, max_len: int) -> list[list[int]]:
    """table[j][s]: partitions of s into parts <= j (by conjugation, into at
    most j parts), for j <= min(max_len, max_size) and s <= max_size."""
    max_len = min(max_len, max_size)
    table = [[0] * (max_size + 1) for _ in range(max_len + 1)]
    for j in range(max_len + 1):
        table[j][0] = 1
    for parts_allowed in range(1, max_len + 1):
        for s in range(1, max_size + 1):
            table[parts_allowed][s] = table[parts_allowed - 1][s]
            if s >= parts_allowed:
                table[parts_allowed][s] += table[parts_allowed][s - parts_allowed]
    return table


def oracle_within_label_limit(max_size: int, length: int) -> bool:
    """At most min(MAX_LABELS, MAX_LABEL_ENTRIES // width) partitions of
    size <= max_size and at most ``length`` parts, counted size by size,
    with width = min(length, max_size) the parts they fill (1 at cap 0)."""
    width = min(length, max_size)
    limit = min(MAX_LABELS, MAX_LABEL_ENTRIES // max(width, 1))
    if max_size >= limit:
        return False
    rows = [[1] for _ in range(width + 1)]  # rows[j][s]: of s into parts <= j
    total = 1
    for s in range(1, max_size + 1):
        rows[0].append(0)
        for j in range(1, width + 1):
            rows[j].append(rows[j - 1][s] + (rows[j][s - j] if s >= j else 0))
        total += rows[width][s]
        if total > limit:
            return False
    return True


def oracle_fits_by_length(indexing: IndexingSetKind, max_size: int,
                          counts: list[int]) -> bool:
    """The table guard that bounded labels times the indexing length: the
    partitions of size <= max_size with at most ``indexing.length`` parts
    (``counts`` by size), with halfY's half block of size <= the half cap,
    at most min(MAX_LABELS, MAX_LABEL_ENTRIES // length)."""
    length = indexing.length
    total = sum(counts)
    if indexing.kind is WeightKind.halfY:
        half_cap = math.floor(2 * max_size - length) // 2
        total += sum(counts[:max(half_cap + 1, 0)])
    return total <= min(MAX_LABELS, MAX_LABEL_ENTRIES // length)


def _weyl_ratio(root: RootDatum, weight: Weight, thetas: list[float]) -> float:
    """The real part of det(f(z_i, l_j + rho_j)) / det(f(z_i, rho_j)),
    each entry one ``cmath.exp``: z^a, z^a - z^-a (B, C) or z^a + z^-a (D);
    type D doubles a label with a non-zero last part (both chiralities)."""
    n = len(thetas)
    rho2 = list(RootDatum(root.type, n).rho2)
    if root.type is CharType.A:
        rho2 = [v - rho2[-1] for v in rho2]
    parts2 = list(weight.parts2) + [0] * (n - weight.length)

    def det(exps2: list[int]) -> complex:
        mat = np.empty((n, n), dtype=complex)
        for j, a2 in enumerate(exps2):
            for i, th in enumerate(thetas):
                zp = cmath.exp(1j * (a2 / 2) * th)
                if root.type is CharType.A:
                    mat[i, j] = zp
                elif root.type is CharType.D:
                    mat[i, j] = zp + cmath.exp(-1j * (a2 / 2) * th)
                else:
                    mat[i, j] = zp - cmath.exp(-1j * (a2 / 2) * th)
        return complex(np.linalg.det(mat))

    total = det([p + r for p, r in zip(parts2, rho2)])
    if root.type is CharType.D and parts2[-1]:
        total *= 2.0
    return (total / det(rho2)).real


def _sine_ratio(root: RootDatum, weight: Weight, theta: float) -> float:
    """sin(D psi) / sin(psi) on SU(2) or SO(3), psi = <2 rho, v> theta / 2,
    after reducing psi to m pi + delta, |delta| <= pi/2."""
    v = (1, -1)[:root.rank]
    parts2 = weight.parts2 + (0,) * (root.rank - weight.length)
    a2 = sum((p + r) * s for p, r, s in zip(parts2, root.rho2, v))
    b2 = sum(r * s for r, s in zip(root.rho2, v))
    dim = a2 // b2
    psi = theta * (b2 / 2)
    r = math.atan2(math.sin(psi), math.cos(psi))
    m = round(r / math.pi)
    delta = r - m * math.pi
    sign = (-1) ** (m * (dim - 1))
    if delta == 0.0:
        return float(dim * sign)
    return sign * math.sin(dim * delta) / math.sin(delta)


def oracle_density(descriptor: SpaceDescriptor, point_spec: dict, t: float,
                   size_cap: int = 40) -> tuple[float, float]:
    """(sum, sum of |terms|) of D^lambda f(lambda) e^{-t B / 2} over the
    space's own labels, one exact label at a time: the integer labels of
    |lambda| <= size_cap at an alphabet (chi * D at the identity, every
    angle within 1e-12 of 0), and the rank-one labels (k), k <= size_cap,
    at an angle."""
    idx, root = indexing_set(descriptor), descriptor.root
    if "alphabet" in point_spec:
        thetas = [cmath.phase(complex(z)) for z in point_spec["alphabet"]]
        labels = [w for w in enumerate_by_size(idx, size_cap) if w.is_integer]
        if all(abs(a) <= 1e-12 for a in thetas):
            values = [float(_chirality(descriptor, w)
                            * dimension(descriptor, w)) for w in labels]
        else:
            values = [_weyl_ratio(root, w, thetas) for w in labels]
    else:
        labels = [idx.label((k,)) for k in range(size_cap + 1)]
        values = [_sine_ratio(root, w, point_spec["theta"]) for w in labels]
    total = scale = 0.0
    for w, value in zip(labels, values):
        term = (float(dimension(descriptor, w))
                * math.exp(-t * float(casimir_exponent(descriptor, w)) / 2.0)
                * value)
        total += term
        scale += abs(term)
    return total, scale
