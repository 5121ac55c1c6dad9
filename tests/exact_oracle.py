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
"""

from __future__ import annotations

import math
from fractions import Fraction

from cutofflab.partitions import (MAX_LABEL_ENTRIES, MAX_LABELS, IndexingSetKind,
                                  Weight, WeightKind)
from cutofflab.spaces import CharType, RootDatum, SpaceDescriptor


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
