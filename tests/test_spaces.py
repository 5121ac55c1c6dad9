"""Family catalog: constants, indexing sets, minimal weights, JSON round-trip."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from cutofflab.errors import InvalidRank, UnknownFamily
from cutofflab.partitions import WeightKind, enumerate_by_size
from cutofflab.repchar import casimir_exponent, dimension
from cutofflab.spaces import (Family, describe, indexing_set, matrix_side,
                              minimal_weight)

ALL_FAMILIES = [
    ("SO", 11, None), ("SU", 5, None), ("USp", 4, None),
    ("GrR", 11, 3), ("GrC", 6, 2), ("GrH", 5, 2),
    ("SO2n_Un", 5, None), ("SUn_SOn", 5, None),
    ("SU2n_USpn", 4, None), ("USpn_Un", 4, None),
]


# -- constants table -------------------------------------------------------


@pytest.mark.parametrize("family,beta,alpha,gamma_b,gamma_a,n0,c,C", [
    ("SO", 1, 2, 2, 2, 10, 36, 6),
    ("SU", 2, 2, 2, 4, 2, 8, 10),
    ("USp", 4, 2, 2, 2, 3, 5, 3),
    ("GrR", 1, 1, 1, 1, 10, 32, 2),
    ("GrC", 2, 1, 1, 2, 2, 32, 2),
    ("GrH", 4, 1, 1, 1, 3, 16, 2),
    ("SO2n_Un", 1, 1, 2, 1, 10, 8, 2),
    ("SUn_SOn", 2, 1, 2, 2, 2, 24, 8),
    ("SU2n_USpn", 2, 1, 2, 2, 2, 22, 8),
    ("USpn_Un", 4, 1, 2, 1, 3, 17, 2),
])
def test_constant_table(family, beta, alpha, gamma_b, gamma_a, n0, c, C):
    q = 2 if family in ("GrR", "GrC", "GrH") else None
    d = describe(family, max(n0, 5), q)
    assert (d.beta, d.alpha_cutoff, d.gamma_b, d.gamma_a) == \
        (beta, alpha, gamma_b, gamma_a)
    assert (d.n0, d.c_lower, d.C_upper) == (n0, c, C)


def test_describe_accepts_enum_and_string():
    assert describe(Family.USp, 3) == describe("USp", 3)


def test_unknown_family():
    with pytest.raises(UnknownFamily):
        describe("Sp", 3)


@pytest.mark.parametrize("family,n", [("SO", 2), ("SU", 1), ("USp", 1),
                                      ("GrR", 2), ("USpn_Un", 1)])
def test_rank_minimums(family, n):
    with pytest.raises(InvalidRank):
        describe(family, n, 1 if family == "GrR" else None)


def test_grassmannian_q_handling():
    assert describe("GrR", 9, 7).q == 2  # mirrored to n - q
    assert describe("GrC", 6, 3).q == 3
    with pytest.raises(InvalidRank):
        describe("GrR", 9, None)
    with pytest.raises(InvalidRank):
        describe("GrR", 9, 0)
    with pytest.raises(InvalidRank):
        describe("GrR", 9, 9)
    with pytest.raises(InvalidRank):
        describe("SO", 9, 2)


# -- derived attributes ----------------------------------------------------


def test_param_doubles_for_the_two_doubled_families():
    assert describe("SO2n_Un", 5).param == 10
    assert describe("SU2n_USpn", 4).param == 8
    assert describe("SO", 11).param == 11
    assert describe("GrH", 5, 2).param == 5


def test_matrix_size_and_field():
    def side(*args):
        desc = describe(*args)
        return matrix_side(desc.algebra, desc.param)

    assert side("SO", 11) == 11
    assert describe("SO", 11).field_tag == "real"
    assert side("USp", 3) == 6
    assert describe("USp", 3).field_tag == "complex"
    assert side("SU", 5) == 5
    assert describe("GrR", 11, 3).field_tag == "real"
    assert side("SO2n_Un", 5) == 10
    assert side("SU2n_USpn", 4) == 8
    assert side("USpn_Un", 4) == 8


def test_ambient_groups():
    assert describe("GrR", 11, 3).ambient_group() == describe("SO", 11)
    assert describe("GrC", 6, 2).ambient_group() == describe("SU", 6)
    assert describe("GrH", 5, 2).ambient_group() == describe("USp", 5)
    assert describe("SO2n_Un", 5).ambient_group() == describe("SO", 10)
    assert describe("SUn_SOn", 5).ambient_group() == describe("SU", 5)
    assert describe("SU2n_USpn", 4).ambient_group() == describe("SU", 8)
    assert describe("USpn_Un", 4).ambient_group() == describe("USp", 4)
    assert describe("SU", 5).ambient_group() == describe("SU", 5)


def test_drift_matches_vector_casimir():
    # the drift exponent is minus the Casimir of the defining representation
    for family, n, q in ALL_FAMILIES:
        d = describe(family, n, q)
        amb = d.ambient_group()
        lam, _, _ = minimal_weight(amb)
        assert d.drift_alpha == -casimir_exponent(amb, lam)


def test_str_forms():
    assert str(describe("GrR", 11, 3)) == "GrR(11,3)"
    assert str(describe("SO", 10)) == "SO(10)"


def test_json_round_trip(capsys):
    from cutofflab import cli

    d = describe("GrH", 5, 2)
    assert cli.main(["describe", "--family", "GrH", "--n", "5",
                     "--q", "2"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["family"] == "GrH" and parsed["n"] == 5 and parsed["q"] == 2
    assert parsed["drift_alpha"] == str(d.drift_alpha)
    assert parsed["is_group"] is False and parsed["beta"] == d.beta


# -- indexing sets ---------------------------------------------------------


@pytest.mark.parametrize("family,n,q,kind,length", [
    ("SO", 11, None, WeightKind.halfY, 5),
    ("SO", 10, None, WeightKind.halfY, 5),
    ("SU", 5, None, WeightKind.Y, 4),
    ("USp", 4, None, WeightKind.Y, 4),
    ("GrR", 11, 3, WeightKind.evenOrOddY, 3),
    ("GrC", 6, 2, WeightKind.Y, 2),
    ("GrH", 5, 2, WeightKind.doubledY, 4),
    ("SO2n_Un", 5, None, WeightKind.doubledY, 5),
    ("SUn_SOn", 5, None, WeightKind.evenY, 4),
    ("SU2n_USpn", 4, None, WeightKind.doubledY, 7),
    ("USpn_Un", 4, None, WeightKind.evenY, 4),
])
def test_indexing_sets(family, n, q, kind, length):
    idx = indexing_set(describe(family, n, q))
    assert idx.kind is kind and idx.length == length


# -- minimal weights -------------------------------------------------------


@pytest.mark.parametrize("family,n,q", ALL_FAMILIES)
def test_minimal_weight_consistency(family, n, q):
    d = describe(family, n, q)
    lam, a_min, b_min = minimal_weight(d)
    assert casimir_exponent(d, lam) == b_min
    dim = dimension(d, lam)
    if d.is_group:
        assert a_min == dim * dim
    else:
        assert a_min == dim


@pytest.mark.parametrize("family,n", [("SO", 11), ("SO", 10), ("SU", 5),
                                      ("USp", 4)])
def test_minimal_weight_is_brute_force_argmin_for_groups(family, n):
    d = describe(family, n)
    lam, _, b_min = minimal_weight(d)
    best = min(
        (casimir_exponent(d, w), (w.size, w.parts2), w)
        for w in enumerate_by_size(indexing_set(d), 4) if not w.is_zero)
    assert best[0] == b_min and best[2] == lam


# A_min and B_min in closed form, per family; GrR, GrC and GrH do not
# depend on q.  SO2n_Un(2) gives 6 = 2 * 3: its label (1, 1) is the type D
# weight of SO(4) with a non-zero last part, so both chirality pieces count.
_CLOSED_FORMS = {
    "SO": lambda n: (n * n, Fraction(n - 1, n)),
    "SU": lambda n: (n * n, Fraction(n * n - 1, n * n)),
    "USp": lambda n: (4 * n * n, Fraction(2 * n + 1, 2 * n)),
    "GrR": lambda n: (Fraction((n - 1) * (n + 2), 2), Fraction(2)),
    "GrC": lambda n: (n * n - 1, Fraction(2)),
    "GrH": lambda n: ((n - 1) * (2 * n + 1), Fraction(2)),
    "SO2n_Un": lambda n: (n * (2 * n - 1), Fraction(2 * (n - 1), n)),
    "SUn_SOn": lambda n: (Fraction(n * (n + 1), 2),
                          Fraction(2 * (n - 1) * (n + 2), n * n)),
    "SU2n_USpn": lambda n: (n * (2 * n - 1), Fraction((n - 1) * (2 * n + 1), n * n)),
    "USpn_Un": lambda n: (n * (2 * n + 1), Fraction(2 * (n + 1), n)),
}


@pytest.mark.parametrize("family", sorted(_CLOSED_FORMS))
def test_minimal_weight_matches_the_closed_forms(family):
    start = 3 if family in ("SO", "GrR") else 2
    for n in range(start, 26):
        qs = range(1, n // 2 + 1) if family.startswith("Gr") else (None,)
        for q in qs:
            _, a_min, b_min = minimal_weight(describe(family, n, q))
            assert (a_min, b_min) == _CLOSED_FORMS[family](n), (n, q)


@pytest.mark.parametrize("family,n,q,b_min", [
    ("GrR", 11, 3, Fraction(2)),
    ("GrC", 6, 2, Fraction(2)),
    ("GrH", 5, 2, Fraction(2)),
    ("SO2n_Un", 5, None, Fraction(8, 5)),
    ("SUn_SOn", 5, None, Fraction(56, 25)),
    ("SU2n_USpn", 4, None, Fraction(27, 16)),
    ("USpn_Un", 4, None, Fraction(5, 2)),
])
def test_minimal_weight_quotient_values(family, n, q, b_min):
    d = describe(family, n, q)
    _, _, b = minimal_weight(d)
    assert b == b_min
