"""Dimension formulas, Casimir exponents, and determinant-ratio characters."""

from __future__ import annotations

import cmath
import math
import time
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from cutofflab.errors import DegenerateAlphabet, InvalidRank, WeightKindMismatch
from cutofflab.partitions import (
    IndexingSetKind,
    Weight,
    WeightKind,
    enumerate_by_size,
)
from cutofflab.repchar import (
    CharType,
    casimir_exponent,
    dimension,
    schur,
    verify_square_identity,
)
from cutofflab.spaces import _GRASSMANN, _TABLE, Family, describe, indexing_set
from exact_oracle import oracle_casimir_exponent, oracle_dimension


def count_tableaux(shape: tuple[int, ...], n: int) -> int:
    """Semistandard fillings with entries 1..n: weakly increasing rows,
    strictly increasing columns.  Independent brute-force oracle."""
    rows = [r for r in shape if r > 0]
    if not rows:
        return 1
    cells = [(i, j) for i, r in enumerate(rows) for j in range(r)]

    def fill(pos: int, grid: dict) -> int:
        if pos == len(cells):
            return 1
        i, j = cells[pos]
        lo = 1
        if j > 0:
            lo = max(lo, grid[(i, j - 1)])
        if i > 0:
            lo = max(lo, grid[(i - 1, j)] + 1)
        total = 0
        for v in range(lo, n + 1):
            grid[(i, j)] = v
            total += fill(pos + 1, grid)
        grid.pop((i, j), None)
        return total

    return fill(0, {})


def partitions_up_to(size: int, max_len: int):
    def rec(total, max_part, length):
        if length == 0 or total == 0:
            yield ()
            return
        for first in range(min(total, max_part), 0, -1):
            for rest in rec(total - first, first, length - 1):
                yield (first,) + rest
    seen = set()
    for s in range(size + 1):
        for p in rec(s, s, max_len):
            seen.add(p)
    return sorted(seen)


# -- dimensions ------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4])
def test_unitary_dimension_counts_tableaux(n):
    d = describe("SU", n)
    idx = indexing_set(d)
    for shape in partitions_up_to(5, n - 1):
        w = Weight.of(shape + (0,) * (idx.length - len(shape)), idx.kind)
        assert dimension(d, w) == count_tableaux(shape, n), shape


@pytest.mark.parametrize("n", list(range(2, 11)))
def test_symplectic_column_dimension_is_catalan(n):
    d = describe("USp", n)
    w = Weight.of((1,) * n, WeightKind.Y)
    catalan = math.comb(2 * (n + 1), n + 1) // (n + 2)
    assert dimension(d, w) == catalan


@pytest.mark.parametrize("family,n,parts,expected", [
    ("SO", 11, (1, 0, 0, 0, 0), 11),
    ("SO", 10, (1, 0, 0, 0, 0), 10),
    ("SO", 11, (Fraction(1, 2),) * 5, 32),
    ("SO", 10, (Fraction(1, 2),) * 5, 16),
    ("SO", 9, (2, 0, 0, 0), 44),
    ("SU", 3, (2, 1), 8),
    ("SU", 4, (1, 1, 1), 4),
    ("USp", 3, (1, 0, 0), 6),
    ("USp", 3, (2, 0, 0), 21),
    ("USp", 3, (1, 1, 0), 14),
    # closed forms at rank 10^5: the adjoint n^2 - 1, the exterior square
    # n(n - 1)/2 and the symmetric square n(2n + 1)
    ("SU", 10 ** 5, (2,) + (1,) * (10 ** 5 - 2), 10 ** 10 - 1),
    ("SO", 10 ** 5, (1, 1), 10 ** 5 * (10 ** 5 - 1) // 2),
    ("USp", 10 ** 5, (2,), 10 ** 5 * (2 * 10 ** 5 + 1)),
])
def test_known_dimensions(family, n, parts, expected):
    d = describe(family, n)
    w = indexing_set(d).label(parts)
    assert dimension(d, w) == expected


def test_even_orthogonal_spin_pair_dimension():
    # for SO(2n) the half-label dimension covers one chirality: 2^(n-1)
    d = describe("SO", 12)
    w = Weight.of((Fraction(1, 2),) * 6, WeightKind.halfY)
    assert dimension(d, w) == 32


@pytest.mark.parametrize("family,n,q", [
    ("GrR", 11, 3), ("GrC", 6, 2), ("GrH", 5, 2), ("SO2n_Un", 5, None),
    ("SUn_SOn", 5, None), ("SU2n_USpn", 4, None), ("USpn_Un", 4, None),
])
def test_quotient_dimensions_are_positive_integers(family, n, q):
    d = describe(family, n, q)
    for w in enumerate_by_size(indexing_set(d), 6):
        dim = dimension(d, w)
        assert dim.denominator == 1 and dim >= 1


def test_group_dimensions_are_positive_integers():
    for family, n in [("SO", 11), ("SO", 10), ("SU", 4), ("USp", 3)]:
        d = describe(family, n)
        for w in enumerate_by_size(indexing_set(d), 6):
            dim = dimension(d, w)
            assert dim.denominator == 1 and dim >= 1


def test_dimension_checks_membership():
    d = describe("SU", 4)
    with pytest.raises(WeightKindMismatch):
        dimension(d, Weight.of((1, 0, 0), WeightKind.halfY))
    with pytest.raises(WeightKindMismatch):
        dimension(d, Weight.of((1, 0), WeightKind.Y))  # wrong length


# -- Casimir exponents -----------------------------------------------------


@pytest.mark.parametrize("family,n,parts,expected", [
    ("SO", 11, (1, 0, 0, 0, 0), Fraction(10, 11)),
    ("SO", 10, (1, 0, 0, 0, 0), Fraction(9, 10)),
    ("SO", 11, (Fraction(1, 2),) * 5, Fraction(5, 4)),
    ("SO", 10, (Fraction(1, 2),) * 5, Fraction(9, 8)),
    ("SU", 4, (1, 0, 0), Fraction(15, 16)),
    ("SU", 4, (2, 1, 1), Fraction(2)),
    ("USp", 3, (1, 0, 0), Fraction(7, 6)),
    ("GrC", 6, (1, 0), Fraction(2)),
    ("GrR", 11, (2, 0, 0), Fraction(2)),
])
def test_known_casimirs(family, n, parts, expected):
    q = {"GrC": 2, "GrR": 3}.get(family)
    d = describe(family, n, q)
    w = Weight.of(parts, indexing_set(d).kind)
    assert casimir_exponent(d, w) == expected


def test_odd_spin_exponent_is_quarter_rank():
    for n in (9, 11, 13):
        d = describe("SO", n)
        rank = n // 2
        w = Weight.of((Fraction(1, 2),) * rank, WeightKind.halfY)
        assert casimir_exponent(d, w) == Fraction(rank, 4)


@pytest.mark.parametrize("family,n", [("SO", 11), ("SU", 4), ("USp", 3)])
def test_casimir_strictly_increases_along_growth(family, n):
    d = describe(family, n)
    idx = indexing_set(d)
    for w in enumerate_by_size(IndexingSetKind(WeightKind.Y, idx.length), 8):
        b = Fraction(0)
        # growth step c raises every row with w_i >= c from c - 1 to c
        for c in range(1, int(max(w.parts)) + 1):
            grown = Weight.of([min(v, c) for v in w.parts], idx.kind)
            nxt = casimir_exponent(d, grown)
            assert nxt > b
            b = nxt


@pytest.mark.parametrize("family,n", [("SO", 10), ("SO", 11), ("SO", 13),
                                      ("USp", 3), ("USp", 7)])
def test_casimir_at_least_half_size(family, n):
    # even-rank orthogonal half-integer labels can undershoot by up to 1/8
    d = describe(family, n)
    for w in enumerate_by_size(indexing_set(d), 12):
        if not w.is_zero:
            slack = Fraction(1, 8) if (family == "SO" and n % 2 == 0
                                       and not w.is_integer) else 0
            assert casimir_exponent(d, w) >= w.size / 2 - slack


def test_complex_grassmannian_casimir_at_least_size():
    d = describe("GrC", 5, 2)
    for w in enumerate_by_size(indexing_set(d), 12):
        if not w.is_zero:
            assert casimir_exponent(d, w) >= w.size


# -- characters ------------------------------------------------------------


def perms_with_sign(r: int):
    from itertools import permutations
    base = tuple(range(r))
    for perm in permutations(base):
        inversions = sum(1 for a, b in combinations(range(r), 2)
                         if perm[a] > perm[b])
        yield perm, (-1) ** inversions


def perm_det(exps, thetas, mode: str) -> complex:
    """Determinant of (f(exps[i] * theta[j]))_ij expanded over permutations:
    an arithmetic route independent of LU factorization."""
    r = len(thetas)
    total = 0.0 + 0.0j
    for perm, sign in perms_with_sign(r):
        prod = complex(sign)
        for j in range(r):
            a = float(exps[perm[j]]) * thetas[j]
            if mode == "plain":
                prod *= cmath.exp(1j * a)
            elif mode == "diff":
                prod *= cmath.exp(1j * a) - cmath.exp(-1j * a)
            else:
                prod *= cmath.exp(1j * a) + cmath.exp(-1j * a)
        total += prod
    return total


def character_by_permutation_sum(ctype: CharType, lam, thetas) -> complex:
    r = len(thetas)
    lam = list(lam) + [Fraction(0)] * (r - len(lam))
    if ctype is CharType.A:
        num = [lam[i] + (r - 1 - i) for i in range(r)]
        den = [Fraction(r - 1 - i) for i in range(r)]
        return perm_det(num, thetas, "plain") / perm_det(den, thetas, "plain")
    if ctype is CharType.B:
        num = [lam[i] + (r - 1 - i) + Fraction(1, 2) for i in range(r)]
        den = [Fraction(2 * (r - 1 - i) + 1, 2) for i in range(r)]
        return perm_det(num, thetas, "diff") / perm_det(den, thetas, "diff")
    if ctype is CharType.C:
        num = [lam[i] + (r - i) for i in range(r)]
        den = [Fraction(r - i) for i in range(r)]
        return perm_det(num, thetas, "diff") / perm_det(den, thetas, "diff")
    num = [lam[i] + (r - 1 - i) for i in range(r)]
    den = [Fraction(r - 1 - i) for i in range(r)]
    total = perm_det(num, thetas, "sum")
    if lam[-1] != 0:
        total *= 2
    return total / perm_det(den, thetas, "sum")


@pytest.mark.parametrize("ctype,labels", [
    (CharType.A, [(1, 0, 0), (2, 1, 0), (3, 1, 1), (2, 2, 0)]),
    (CharType.B, [(1, 0, 0), (2, 1, 0), (Fraction(1, 2),) * 3,
                  (Fraction(5, 2), Fraction(3, 2), Fraction(1, 2))]),
    (CharType.C, [(1, 0, 0), (1, 1, 1), (3, 2, 0)]),
    (CharType.D, [(1, 0, 0), (2, 1, 0), (2, 1, 1), (Fraction(1, 2),) * 3]),
])
def test_characters_match_permutation_expansion(ctype, labels):
    rng = np.random.default_rng(17)
    for _ in range(5):
        thetas = rng.uniform(0.3, 2.8, size=3) * rng.choice([-1.0, 1.0], 3)
        z = [cmath.exp(1j * t) for t in thetas]
        for lam in labels:
            lam = [Fraction(v) for v in lam]
            got = schur(ctype, lam, z)
            want = character_by_permutation_sum(ctype, lam, list(thetas))
            assert abs(got - want) < 1e-8 * max(1.0, abs(want))


def test_near_confluent_width_two_approximates_dimension():
    eps = 1e-4
    z = [cmath.exp(1j * eps), cmath.exp(-1j * eps)]
    val = schur(CharType.A, [3, 0], z)  # cubic symmetric power of the plane
    assert abs(val - 4.0) < 1e-6


def test_identity_alphabet_is_degenerate():
    with pytest.raises(DegenerateAlphabet):
        schur(CharType.A, [1, 0, 0], [1.0, 1.0, 1.0])
    with pytest.raises(DegenerateAlphabet):
        schur(CharType.B, [1, 0, 0],
              [cmath.exp(1e-5j * k) for k in (1, 2, 3)])


def test_label_longer_than_alphabet():
    with pytest.raises(ValueError):
        schur(CharType.A, [1, 1, 1], [1.0, -1.0])


def test_type_a_character_is_symmetric_polynomial():
    rng = np.random.default_rng(7)
    thetas = rng.uniform(0.1, 2.0, size=3)
    z = [cmath.exp(1j * t) for t in thetas]
    lam = [2, 1, 0]
    base = schur(CharType.A, lam, z)
    for perm in ([z[1], z[0], z[2]], [z[2], z[0], z[1]]):
        assert abs(schur(CharType.A, lam, perm) - base) < 1e-9


def test_vector_characters_match_trace():
    rng = np.random.default_rng(3)
    thetas = rng.uniform(0.2, 2.5, size=3)
    z = [cmath.exp(1j * t) for t in thetas]
    # unitary: trace itself
    assert abs(schur(CharType.A, [1, 0, 0], z) - sum(z)) < 1e-9
    # symplectic / even orthogonal: eigenvalues come in conjugate pairs
    paired = sum(z) + sum(1 / w for w in z)
    assert abs(schur(CharType.C, [1, 0, 0], z) - paired) < 1e-9
    assert abs(schur(CharType.D, [1, 0, 0], z) - paired) < 1e-9
    # odd orthogonal: extra fixed eigenvalue 1
    assert abs(schur(CharType.B, [1, 0, 0], z) - (paired + 1)) < 1e-9


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_even_orthogonal_spinor_character_product(rank):
    # the two half-spin characters sum over all sign patterns of
    # (+-1/2, ..., +-1/2), which factors as prod_j (z_j^{1/2} + z_j^{-1/2})
    rng = np.random.default_rng(11 + rank)
    thetas = rng.uniform(0.2, 2.7, size=rank)
    z = [cmath.exp(1j * t) for t in thetas]
    got = schur(CharType.D, [Fraction(1, 2)] * rank, z)
    want = 1.0
    for t in thetas:
        want *= 2.0 * math.cos(t / 2.0)
    assert abs(got - want) < 1e-9 * max(1.0, abs(want))


def test_rank_two_even_orthogonal_closed_forms():
    # SO(4): the exterior square splits into the two chiralities, whose sum
    # is 2cos(a+b) + 2cos(a-b) + 2
    a, b = 0.7, 1.9
    z = [cmath.exp(1j * a), cmath.exp(1j * b)]
    want = 2 * math.cos(a + b) + 2 * math.cos(a - b) + 2
    assert abs(schur(CharType.D, [1, 1], z) - want) < 1e-9


@pytest.mark.parametrize("ctype", ["B", "C", "D"])
def test_square_identity_random_alphabets(ctype):
    rng = np.random.default_rng(42)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        thetas = rng.uniform(0.05, 3.0, size=n)
        z = [cmath.exp(1j * t) for t in thetas]
        assert verify_square_identity(ctype, n, z) < 1e-8


def test_square_identity_unitary_needs_det_one():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        thetas = rng.uniform(0.05, 3.0, size=n - 1)
        z = [cmath.exp(1j * t) for t in thetas]
        z.append(cmath.exp(-1j * sum(thetas)))
        assert verify_square_identity("A", n, z) < 1e-8
    with pytest.raises(ValueError):
        verify_square_identity("A", 3, [1j, 1j, 1j])


def test_square_identity_rank_floor():
    with pytest.raises(InvalidRank):
        verify_square_identity("C", 1, [1j])


def test_schur_accepts_weight_objects():
    z = [cmath.exp(1j * t) for t in (0.4, 1.1, 2.3)]
    w = Weight.of((2, 1, 0))
    assert schur(CharType.A, w, z) == schur(CharType.A, [2, 1, 0], z)


def _factorwise_product(lam, pairs):
    """Reference: multiply Fraction factors one by one, as the products once did."""
    out = Fraction(1)
    for num, den in pairs(lam):
        out *= Fraction(num) / den
    return out


@pytest.mark.parametrize("family,n,q", [
    ("SU", 6, None), ("SO", 9, None), ("SO", 10, None), ("USp", 4, None),
    ("GrR", 9, 3), ("GrC", 7, 2), ("GrH", 6, 2), ("SO2n_Un", 5, None),
    ("SUn_SOn", 5, None), ("SU2n_USpn", 3, None), ("USpn_Un", 4, None)])
def test_dimension_equals_the_factor_by_factor_product(family, n, q):
    from itertools import islice

    def type_a(lam):
        size = len(lam)
        return [(lam[i] - lam[j] + (j - i), j - i)
                for i in range(size) for j in range(i + 1, size)]

    def type_bcd(char_type):
        offset, strict = {CharType.B: (1, False), CharType.C: (2, False),
                          CharType.D: (0, True)}[char_type]

        def pairs(lam):
            r = len(lam)
            out = type_a(lam)
            for i in range(r):
                for j in range(i + 1 if strict else i, r):
                    shift = 2 * r + offset - (i + 1) - (j + 1)
                    out.append((lam[i] + lam[j] + shift, shift))
            return out
        return pairs

    desc = describe(family, n, q)
    for weight in islice(enumerate_by_size(indexing_set(desc), 8), 80):
        got = dimension(desc, weight)
        parts = list(weight.parts)
        if family in ("SU", "SUn_SOn", "SU2n_USpn", "GrC"):
            size = {"SU2n_USpn": 2 * n}.get(family, n)
            if family == "GrC":  # (l, 0, ..., 0, -l reversed)
                lam = (parts + [Fraction(0)] * (n - 2 * len(parts))
                       + [-v for v in reversed(parts)])
            else:
                lam = parts + [Fraction(0)] * (size - len(parts))
            want = _factorwise_product(lam, type_a)
        else:
            if family in ("SO", "GrR"):
                rank, ctype = n // 2, CharType.B if n % 2 else CharType.D
            else:
                rank = n
                ctype = CharType.D if family == "SO2n_Un" else CharType.C
            lam = parts + [Fraction(0)] * (rank - len(parts))
            want = _factorwise_product(lam, type_bcd(ctype))
        assert type(got) is Fraction and got == want


def _small_labels():
    """Every label of size <= 8 of the seven quotients at n = min_n .. 15,
    Grassmannians at every q, and of the three groups at n = min_n ..
    min_n + 8, with those of size <= 5 up to n = 40: 7,127 (descriptor,
    label) pairs."""
    out = []
    for family in Family:
        min_n = _TABLE[family].min_n
        group = family in (Family.SO, Family.SU, Family.USp)
        for n in range(min_n, 41 if group else 16):
            qs = [None]
            if family in _GRASSMANN:
                qs = range(1, n // 2 + 1)
            cap = 8 if n <= min_n + 8 or not group else 5
            for q in qs:
                desc = describe(family, n, q)
                out += [(desc, w)
                        for w in enumerate_by_size(indexing_set(desc), cap)]
    return out


def test_exact_dimension_and_rate_equal_the_scaled_fraction_route():
    labels = _small_labels()
    assert len(labels) == 7127
    # the empty zero block of SO(4)'s half label, and GrC at q = n / 2,
    # whose head and -l end meet with no zeros between them
    so4 = describe("SO", 4)
    assert (so4, indexing_set(so4).label((Fraction(1, 2),) * 2)) in labels
    assert any(d.family is Family.GrC and 2 * d.q == d.n for d, _ in labels)
    for desc, weight in labels:
        assert dimension(desc, weight) == oracle_dimension(desc, weight)
        assert (casimir_exponent(desc, weight)
                == oracle_casimir_exponent(desc, weight)), (desc, weight)


def test_exact_dimension_at_high_rank_equals_the_all_pairs_route():
    # the library reads a few runs per non-zero part, where the oracle
    # multiplies every one of the 45,000 pairs of USp(300)
    spent = 0.0
    adjoint = (2,) + (1,) * 298  # SU(300)'s adjoint, all but one part equal
    for family, n, heads in (("USp", 300, [(3, 1), (1, 1, 1)]),
                             ("SO", 301, [(3, 1), (2, 2)]),
                             ("SU", 300, [(3, 1), (2, 1, 1), adjoint])):
        desc = describe(family, n)
        for head in heads:
            weight = indexing_set(desc).label(head)
            start = time.perf_counter()
            dim = dimension(desc, weight)
            spent += time.perf_counter() - start
            assert dim == oracle_dimension(desc, weight), (desc, head)
    assert spent < 0.2  # every pair: about 3 s for one label on USp(300)


def test_adjoint_dimension_at_rank_one_thousand():
    # the adjoint (2, 1, ..., 1) is two runs and the zero block
    desc = describe("SU", 1000)
    weight = indexing_set(desc).label((2,) + (1,) * 998)
    start = time.perf_counter()
    assert dimension(desc, weight) == 1000 ** 2 - 1
    assert time.perf_counter() - start < 1.0
