"""Exceptional isomorphisms as a cross-row oracle: rows of the family table
that describe one space at low rank, with different label kinds, dimension
formulas and metric normalisations, must give one series once time is
rescaled.  Each side's exact terms (``series_terms``) are summed per exact
rate; the rates of the right-hand row, times the pair's time scale, must be
the left-hand row's, with equal summed A, below the first rate at which
either side's size cap leaves out a label.

SO(6) against SU(4) (Spin(6)) is the exception: the type D fold counts
every SO(6) label twice, although a label with last part 0 has no mirror,
so each SO(6) level lies between 1 and 2 times SU(4)'s.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction

import pytest

from cutofflab.heatseries import _term_table, series_terms
from cutofflab.spaces import describe

CAP = 40

# (left row, right row, time scale: left rates / right rates)
PAIRS = [
    (("GrC", 2, 1), ("GrR", 3, 1), Fraction(3)),           # S^2
    (("SUn_SOn", 2), ("GrR", 3, 1), Fraction(3)),          # S^2
    (("SO2n_Un", 2), ("GrR", 3, 1), Fraction(3, 2)),       # S^2
    (("GrH", 2, 1), ("GrR", 5, 1), Fraction(5, 2)),        # S^4
    (("SU2n_USpn", 2), ("GrR", 6, 1), Fraction(3, 2)),     # S^5
    (("SO2n_Un", 3), ("GrC", 4, 1), Fraction(2, 3)),       # CP^3
    (("USpn_Un", 2), ("GrR", 5, 2), Fraction(5, 2)),       # oriented 2-planes in R^5
    (("SO2n_Un", 4), ("GrR", 8, 2), Fraction(1)),          # oriented 2-planes in R^8
    (("SO", 3), ("SU", 2), Fraction(1, 3)),                # Spin(3)
    (("SO", 5), ("USp", 2), Fraction(2, 5)),               # Spin(5)
]


def _levels(row: tuple) -> dict[Fraction, Fraction]:
    """Summed exact A per exact rate B over the labels up to CAP."""
    out: dict[Fraction, Fraction] = defaultdict(Fraction)
    for term in series_terms(describe(*row), CAP):
        out[term.b_exp] += term.a_coeff
    return out


def _first_incomplete(row: tuple) -> float:
    """The least rate of a label past CAP, from the table at twice CAP:
    below it the levels up to CAP are complete."""
    table = _term_table(describe(*row), 2 * CAP)
    return float(table.b[table.labels.size2 > 2 * CAP].min())


def _matched(left: tuple, right: tuple, scale: Fraction) -> tuple[dict, dict]:
    """Both rows' complete levels in the left row's time, after checking
    the measured time scale, the ratio of the least rates."""
    ours, theirs = _levels(left), _levels(right)
    assert min(ours) / min(theirs) == scale
    # a float cut, lowered past its rounding: a level at the first
    # incomplete rate never enters
    cut = min(_first_incomplete(left),
              float(scale) * _first_incomplete(right)) * (1.0 - 1e-9)
    ours = {b: a for b, a in ours.items() if b < cut}
    theirs = {b * scale: a for b, a in theirs.items() if b * scale < cut}
    assert len(ours) >= 20
    return ours, theirs


@pytest.mark.parametrize("left,right,scale", PAIRS,
                         ids=[f"{a[0]}~{b[0]}" for a, b, _ in PAIRS])
def test_isomorphic_rows_give_one_series(left, right, scale):
    ours, theirs = _matched(left, right, scale)
    assert ours == theirs


def test_so6_counts_each_level_of_su4_once_to_twice():
    # the fold: a Spin(6) label with last part 0 has no mirror, yet SO(6)
    # counts it twice
    ours, theirs = _matched(("SO", 6), ("SU", 4), Fraction(2, 3))
    assert sorted(ours) == sorted(theirs)
    ratios = [ours[b] / theirs[b] for b in ours]
    assert all(1 <= ratio <= 2 for ratio in ratios)
    assert any(ratio > 1 for ratio in ratios)
