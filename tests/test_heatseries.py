"""Dominating series, certified tails, per-term sweeps, growth quotients,
and explicit densities."""

from __future__ import annotations

import cmath
import math
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from cutofflab.errors import (
    DegenerateAlphabet,
    HalfPartitionUnsupported,
    InvalidRank,
    InvalidTime,
    TooLarge,
    UnsupportedSpace,
)
from cutofflab import heatseries, partitions
from cutofflab.heatseries import (
    _exceeds,
    _term_table,
    density,
    dominating_series,
    eta_quotient,
    per_term_bound_sweep,
    per_term_exceeds,
    series_terms,
    t_zero,
    tv_upper_bound,
)
from cutofflab.partitions import (MAX_LABELS, Weight, WeightKind,
                                  enumerate_by_size)
from cutofflab.repchar import casimir_exponent, dimension, schur
from cutofflab.spaces import (FAMILY_NAMES, _TABLE, Family, _chirality,
                              describe, indexing_set, minimal_weight)
from exact_oracle import oracle_density
from label_oracle import oracle_labels
from table_oracle import oracle_series_sum

ALL_FAMILIES = [
    ("SO", 11, None), ("SO", 10, None), ("SU", 4, None), ("USp", 3, None),
    ("GrR", 11, 3), ("GrC", 5, 2), ("GrH", 4, 2), ("SO2n_Un", 5, None),
    ("SUn_SOn", 4, None), ("SU2n_USpn", 3, None), ("USpn_Un", 4, None),
]


# -- series terms ----------------------------------------------------------


@pytest.mark.parametrize("family,n,q", ALL_FAMILIES)
def test_terms_sorted_by_size_and_skip_trivial(family, n, q):
    d = describe(family, n, q)
    terms = series_terms(d, 6)
    sizes = [t.weight.size for t in terms]
    assert sizes == sorted(sizes)
    assert all(not t.weight.is_zero for t in terms)
    assert all(t.b_exp > 0 for t in terms)


@pytest.mark.parametrize("family,n,q", ALL_FAMILIES)
def test_term_coefficients(family, n, q):
    d = describe(family, n, q)
    factor_two = family == "SO" and n % 2 == 0
    for term in series_terms(d, 5):
        dim = dimension(d, term.weight)
        if d.is_group:
            expect = dim * dim * (2 if factor_two else 1)
        else:
            expect = dim
        assert term.a_coeff == expect
        assert term.b_exp == casimir_exponent(d, term.weight)


@pytest.mark.parametrize("family,n,q", ALL_FAMILIES)
def test_vectorized_table_matches_exact_terms(family, n, q):
    d = describe(family, n, q)
    labels = [w for w in oracle_labels(indexing_set(d), 8) if not w.is_zero]
    table = _term_table(d, 8)
    by_size = table.labels.by_size
    width = table.labels.width
    padded = np.pad(table.labels.rows(by_size),
                    ((0, 0), (0, indexing_set(d).length - width)))
    assert padded.tolist() == [list(w.parts2) for w in labels]
    assert table.labels.size2[by_size].tolist() == [2 * w.size for w in labels]
    assert table.labels.is_half[by_size].tolist() == [
        not w.is_integer for w in labels]
    terms = series_terms(d, 8)
    assert [term.weight for term in terms] == labels
    for i, term in zip(by_size, terms):
        log_a = (math.log(term.a_coeff.numerator)
                 - math.log(term.a_coeff.denominator))
        assert abs(log_a - table.log_a[i]) < 1e-10 * max(1.0, abs(log_a))
        assert abs(float(term.b_exp) - table.b[i]) < 1e-12


def test_leading_term_is_minimal_weight():
    for family, n, q in ALL_FAMILIES:
        d = describe(family, n, q)
        lam, a_min, b_min = minimal_weight(d)
        terms = series_terms(d, 6)
        first_b = min(t.b_exp for t in terms)
        assert first_b == b_min
        match = [t for t in terms if t.weight == lam]
        # even orthogonal series carry a uniform factor 2 on every label,
        # while a_min is the squared-mean coefficient of the single label
        even_so = family == "SO" and n % 2 == 0
        assert len(match) == 1
        assert match[0].a_coeff == a_min * (2 if even_so else 1)


# -- dominating series and tails ------------------------------------------


def test_report_brackets_the_true_value():
    # partial at a larger cap must stay below partial + tail at the small cap
    for family, n, q, t_mult in [("USp", 3, None, 1.4), ("SU", 4, None, 1.3),
                                 ("SO", 11, None, 1.5), ("GrC", 5, 2, 1.6),
                                 ("SO2n_Un", 5, None, 1.5)]:
        d = describe(family, n, q)
        t = t_mult * t_zero(d)
        small = dominating_series(d, t, size_cap=12)
        big = dominating_series(d, t, size_cap=30)
        assert big.partial_sum >= small.partial_sum - 1e-15
        assert big.partial_sum <= small.total + 1e-12
        assert big.tail_bound <= small.tail_bound


def test_partial_sum_decreases_in_time():
    d = describe("SO2n_Un", 6)
    tz = t_zero(d)
    totals = [dominating_series(d, mult * tz).total
              for mult in (1.1, 1.5, 2.5)]
    assert totals[0] > totals[1] > totals[2]


def test_below_cutoff_reports_infinite_tail():
    d = describe("SO", 11)
    report = dominating_series(d, 0.5 * t_zero(d))
    assert math.isinf(report.tail_bound)
    assert tv_upper_bound(d, 0.5 * t_zero(d)) == 1.0


def test_unproven_rank_reports_infinite_tail():
    d = describe("SO", 8)
    report = dominating_series(d, 3.0 * t_zero(d))
    assert math.isinf(report.tail_bound)
    assert report.partial_sum > 0.0


def test_term_tables_of_one_family_share_their_label_block():
    # USp(n) labels n parts; at cap 40 every n >= 40 reads the store's 40
    # levels, and USp(39) the first 39 of the same store
    tables = [_term_table(describe("USp", n), 40) for n in (41, 45, 39)]
    stores = [table.labels.parts[0].store for table in tables]
    assert stores[0] is stores[1] is stores[2]
    assert [table.labels.parts[0].last for table in tables] == [40, 40, 39]
    assert [indexing_set(describe("USp", n)).pad(
        table.labels.rows([7])[0].tolist()).length
        for n, table in zip((41, 45), tables)] == [41, 45]
    assert not tables[0].labels.size2.flags.writeable


def test_cap_below_the_first_label_gives_an_empty_sum():
    # the first non-trivial SUn_SOn label (2,0,0,0) has size 2
    report = dominating_series(describe("SUn_SOn", 5), 2.0, size_cap=1)
    assert report.terms_used == 0
    assert report.partial_sum == 0.0
    assert math.isfinite(report.tail_bound)


# one space per family, and SO(1000), whose log A passes 300 at cap 40
LEVEL_SPACES = [
    ("SO", 10, None), ("SU", 6, None), ("USp", 5, None), ("GrR", 16, 4),
    ("GrC", 14, 5), ("GrH", 12, 3), ("SO2n_Un", 12, None),
    ("SUn_SOn", 10, None), ("SU2n_USpn", 10, None), ("USpn_Un", 9, None),
    ("SO", 1000, None),
]


@pytest.mark.parametrize("family,n,q", LEVEL_SPACES)
def test_level_sum_equals_the_per_label_oracle(family, n, q):
    d = describe(family, n, q)
    table = _term_table(d, 40)
    t0 = t_zero(d)
    for t in (0.001, 0.5 * t0, 0.9 * t0, 1.0005 * t0, 1.1 * t0, 2.0 * t0):
        want = oracle_series_sum(table.log_a, table.b, t)
        got = dominating_series(d, t, size_cap=40).partial_sum
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), t
    if n == 1000:
        assert table.log_a.max() > 300.0


@pytest.mark.parametrize("family,n,q,cap", [
    *[(f, n, q, 40) for f, n, q in LEVEL_SPACES], ("SUn_SOn", 5, None, 1)])
def test_levels_are_the_distinct_rates_in_ascending_order(family, n, q, cap):
    table = _term_table(describe(family, n, q), cap)
    rates, log_a = table.levels
    assert np.array_equal(rates, np.unique(table.b))
    assert np.all(np.diff(rates) > 0.0)
    assert len(rates) == len(log_a) <= len(table.b)
    # each level's log of its labels' summed A, about the level's largest
    level = np.searchsorted(rates, table.b)
    top = np.full(len(rates), -np.inf)
    np.maximum.at(top, level, table.log_a)
    sums = np.bincount(level, weights=np.exp(table.log_a - top[level]),
                       minlength=len(rates))
    assert np.allclose(log_a, top + np.log(sums), rtol=1e-15, atol=1e-13)


def test_size_caps_are_checked_only_when_the_series_reaches_them(monkeypatch):
    d = describe("USp", 3)
    t0 = t_zero(d)
    counted = []
    sums = partitions._label_sums
    monkeypatch.setattr(partitions, "_label_sums",
                        lambda cap: counted.append(cap) or sums(cap))
    partitions.label_table_fits.cache_clear()
    caps, checked = [], []
    for m in (2.0, 1.3, 1.02):  # the series stops at cap 40, 80 and 200
        caps.append(dominating_series(d, m * t0).size_cap)
        checked.append(list(counted))
    assert caps == [40, 80, 200]
    assert checked == [[40], [40, 80], [40, 80, 160, 200]]
    assert heatseries._cap_schedule(d) == [40, 80, 160, 200]
    assert heatseries._cap_schedule(describe("USp", 5)) == [40]


def test_type_a_tail_at_the_entry_limit():
    # at cap 40 the horizon doubles from 400 to 25,600: SU(1147)'s 1,146
    # stages write 29,995,977 entries and pass (the zero gap then gives no
    # certificate), SU(1148)'s 1,147 write 30,022,725 and are refused
    steps = heatseries._su_steps(describe("SU", 1148), 1.0)
    with pytest.raises(TooLarge, match="30022725 entries"):
        heatseries._su_dp_tail(steps, 40)
    steps = heatseries._su_steps(describe("SU", 1147), 0.0)
    assert heatseries._su_dp_tail(steps, 40) == math.inf


def test_time_must_be_positive():
    d = describe("USp", 3)
    with pytest.raises(ValueError):
        dominating_series(d, 0.0)
    with pytest.raises(ValueError):
        dominating_series(d, 1.0, size_cap=0)


@pytest.mark.parametrize("t", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_series_and_bounds_reject_times_outside_the_domain(t):
    d = describe("SO", 11)
    with pytest.raises(InvalidTime):
        dominating_series(d, t)
    with pytest.raises(InvalidTime):
        tv_upper_bound(d, t)


@pytest.mark.parametrize("family,n,q,s_target,power", [
    ("USp", 3, None, 36.0, 1.0),
    ("SO", 11, None, 144.0, 1.0),
    ("SO", 10, None, 144.0, 1.0),
    ("SU", 4, None, 400.0, 2.0),
    ("GrR", 11, 3, 16.0, 0.5),
    ("GrC", 5, 2, 16.0, 1.0),
    ("GrH", 4, 2, 16.0, 0.5),
    ("SO2n_Un", 5, None, 16.0, 0.5),
    ("SUn_SOn", 4, None, 256.0, 1.0),
    ("SU2n_USpn", 3, None, 256.0, 1.0),
    ("USpn_Un", 4, None, 16.0, 0.5),
])
def test_series_beats_family_chain_constant_at_unit_eps(family, n, q,
                                                        s_target, power):
    d = describe(family, n, q)
    eps = 1.0
    t = (1.0 + eps) * d.alpha_cutoff * math.log(d.param)
    report = dominating_series(d, t)
    assert math.isfinite(report.tail_bound)
    assert report.total <= s_target / d.param ** (power * eps)


def test_tv_bound_examples():
    d = describe("SO", 11)
    tv = tv_upper_bound(d, 4.0 * math.log(11))
    assert tv <= 6.0 / math.sqrt(11.0)
    assert 0.0 < tv < 0.1
    # just past cut-off the certified sum still exceeds 4, so the bound caps at 1
    assert tv_upper_bound(d, 2.05 * math.log(11)) == 1.0


# -- per-term sweep --------------------------------------------------------


def test_sweep_vector_maxima():
    sw = per_term_bound_sweep(describe("USp", 3), 40)
    assert abs(sw.max_value - 6.0 * 3.0 ** (-7.0 / 6.0)) < 1e-12
    assert sw.argmax.parts == (1, 0, 0)
    assert sw.max_value <= 8.0 / 3.0
    assert sw.certified

    sw = per_term_bound_sweep(describe("SU", 2), 40)
    assert abs(sw.max_value - 2.0 ** 0.25) < 1e-12
    assert sw.certified

    sw = per_term_bound_sweep(describe("SO", 11), 40)
    assert abs(sw.max_integer - 11.0 ** (1.0 / 11.0)) < 1e-12
    assert sw.argmax_integer.parts == (1, 0, 0, 0, 0)
    assert sw.max_half is not None and sw.max_half <= 11.0 / 5.0
    assert sw.certified


def test_sweep_even_orthogonal_constants():
    sw = per_term_bound_sweep(describe("SO", 10), 40)
    assert abs(sw.max_integer - 10.0 ** 0.1) < 1e-12
    assert sw.max_integer <= 4.0 / 3.0
    assert sw.max_half <= 48.0 / 15.0
    assert sw.certified


def test_sweep_quotient_below_one():
    sw = per_term_bound_sweep(describe("GrC", 6, 2), 30)
    assert sw.max_value <= 1.0
    assert sw.max_half is None


@pytest.mark.parametrize("family,n,first,dual", [
    ("SU", 7, (1,), (1,) * 6),
    ("SU2n_USpn", 10, (1, 1), (1,) * 18),
])
def test_sweep_ties_go_to_the_first_label_in_size_order(family, n, first, dual):
    # a type A label and its dual have equal dimension and rate, so their
    # values differ by rounding alone
    d = describe(family, n)
    idx = indexing_set(d)
    a, b = idx.label(first), idx.label(dual)
    assert dimension(d, a) == dimension(d, b)
    assert casimir_exponent(d, a) == casimir_exponent(d, b)
    sw = per_term_bound_sweep(d, 40)
    assert sw.argmax == sw.argmax_integer == a
    assert math.isclose(sw.max_value, _exact_value(d, a), rel_tol=1e-12)


@pytest.mark.parametrize("family,n,labels", [
    ("SU", 7, [(1,), (1,) * 6]),
    ("SU2n_USpn", 10, [(1, 1), (1,) * 18]),
    ("SO", 10, [(1,), (Fraction(1, 2),) * 5]),
])
def test_sweep_reports_the_maximum_and_checks_every_tied_label(
        monkeypatch, family, n, labels):
    d = describe(family, n)
    table = heatseries._term_table(d, 40)
    values = np.exp(table.log_dim - table.b * math.log(d.param))
    checked = []

    def spy(desc, weight, bound, val):
        checked.append(weight)
        return real(desc, weight, bound, val)

    real = heatseries._exceeds
    monkeypatch.setattr(heatseries, "_exceeds", spy)
    sw = per_term_bound_sweep(d, 40)
    half = table.labels.is_half
    assert sw.max_integer == float(values[~half].max())
    assert sw.max_value == float(values.max())
    idx = indexing_set(d)
    assert checked == [idx.label(parts) for parts in labels]


def test_sweep_rank_floors():
    with pytest.raises(InvalidRank):
        per_term_bound_sweep(describe("SO", 8))
    with pytest.raises(InvalidRank):
        per_term_bound_sweep(describe("USp", 2))
    with pytest.raises(ValueError):
        per_term_bound_sweep(describe("USp", 3), size_cap=1)


def test_sweep_json_shape(capsys):
    import json

    from cutofflab import cli

    for family, n, half in (("SO", 11, True), ("USp", 5, False)):
        assert cli.main(["bound-sweep", "--family", family, "--n", str(n),
                         "--cap", "20"]) == 0
        out = json.loads(capsys.readouterr().out)
        sweep = per_term_bound_sweep(describe(family, n), 20)
        assert out["argmax_weight"] == str(sweep.argmax)
        assert {"space", "max_value", "argmax_weight", "certified",
                "max_integer", "argmax_integer", "size_cap"} <= set(out)
        # the half fields appear exactly where the labels have half parts
        assert ({"max_half", "argmax_half"} <= set(out)) is half
        assert (sweep.max_half is not None) is half


def test_a_huge_time_warns_of_no_overflow():
    import warnings

    from cutofflab.cutoff import profile

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for family, n, q in (("SO", 10, None), ("SU", 5, None),
                             ("GrR", 12, 3), ("USpn_Un", 5, None)):
            d = describe(family, n, q)
            report = dominating_series(d, 1e308)
            assert report.partial_sum == 0.0
            assert math.isfinite(report.tail_bound)
            assert tv_upper_bound(d, 1e308) < 1e-150
            assert [p.upper for p in profile(d, [1.0, 1e308])][1] < 1e-150
        for family, n, angles in (("SO", 5, (0.3, 1.1)),
                                  ("SU", 3, (0.1, 0.5, -0.6)),
                                  ("USp", 2, (0.4, 1.3))):
            alphabet = [cmath.exp(1j * a) for a in angles]
            assert density(describe(family, n), {"alphabet": alphabet},
                           1e308) == 1.0
        assert density(describe("SU", 2), {"theta": 0.3}, 1e308) == 1.0


def test_the_command_line_prints_nothing_on_stderr_at_a_huge_time():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "cutofflab.cli", "tv-bound", "--family", "SO",
         "--n", "10", "--t", "1e308"], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert '"certified": true' in proc.stdout


def _per_term_sweep_spaces(family: str) -> list:
    """n from the proven rank to 13 past it, with q in {1, 2, n // 2} on
    the Grassmannians, each space once (q and n - q are one space)."""
    start = _TABLE[Family(family)].proven_min_n
    out = {}
    for n in range(start, start + 14):
        for q in ({1, 2, n // 2} if family.startswith("Gr") else {None}):
            if q is None or q < n:
                desc = describe(family, n, q)
                out[str(desc)] = desc
    return list(out.values())


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_per_term_constants_hold_on_every_family(family):
    # each argmax of a cap-40 sweep against the row's constants, exactly
    spaces = _per_term_sweep_spaces(family)
    assert len(spaces) >= 14
    for desc in spaces:
        sweep = per_term_bound_sweep(desc, 40)
        const_int, const_half = desc.per_term
        assert not per_term_exceeds(desc, sweep.argmax_integer, const_int), (
            str(desc), str(sweep.argmax_integer))
        if sweep.argmax_half is not None:
            assert const_half is not None, str(desc)
            assert not per_term_exceeds(desc, sweep.argmax_half,
                                        const_half), (
                str(desc), str(sweep.argmax_half))


def _exact_value(d, w) -> float:
    """D^lambda * param^{-B}, rounded from the exact D and B."""
    dim = dimension(d, w)
    return math.exp(math.log(dim.numerator) - math.log(dim.denominator)
                    - float(casimir_exponent(d, w)) * math.log(d.param))


def test_per_term_exact_comparison_on_rational_value():
    # label with integer decay exponent: the per-term value is exactly 15/16
    d = describe("SU", 4)
    w = Weight.of((2, 1, 1), WeightKind.Y)
    assert casimir_exponent(d, w) == 2
    assert dimension(d, w) == 15
    value = Fraction(15, 16)
    assert not per_term_exceeds(d, w, value)
    assert per_term_exceeds(d, w, value - Fraction(1, 10**15))
    assert not per_term_exceeds(d, w, value + Fraction(1, 10**15))
    assert abs(_exact_value(d, w) - 15.0 / 16.0) < 1e-14


def test_per_term_float_filter_far_from_bound():
    d = describe("SO", 11)
    w = Weight.of((1, 0, 0, 0, 0), WeightKind.halfY)
    assert per_term_exceeds(d, w, Fraction(11, 10))
    assert not per_term_exceeds(d, w, Fraction(5, 4))


@pytest.mark.parametrize("family,n", [("SO", 11), ("SO", 12), ("USp", 5),
                                      ("SU", 6)])
def test_sweep_prefilter_on_the_table_value_decides_like_the_exact_value(
        family, n, monkeypatch):
    d = describe(family, n)
    sweep = per_term_bound_sweep(d, 40)
    exact_calls = []

    def counted(desc, weight):
        exact_calls.append(weight)
        return dimension(desc, weight)

    for w, val in ((sweep.argmax_integer, sweep.max_integer),
                   (sweep.argmax_half, sweep.max_half)):
        if w is None:
            continue
        for factor in (0.5, 1 - 1e-5, 1 - 1e-9, 1 + 1e-9, 1 + 1e-5, 2.0):
            bound = Fraction(val * factor)
            want = per_term_exceeds(d, w, bound)
            with monkeypatch.context() as m:
                m.setattr(heatseries, "dimension", counted)
                exact_calls.clear()
                assert _exceeds(d, w, bound, val) is want, factor
            # the exact dimension only inside the 1e-6 margin
            assert len(exact_calls) == (abs(factor - 1) < 1e-6), factor


# -- growth-step quotients -------------------------------------------------


def test_eta_first_step_gives_param_root():
    for n in (11, 25):
        d = describe("SO", n)
        zero = Weight.zero(n // 2, WeightKind.halfY)
        got = eta_quotient(d, zero, 1, 1)
        assert abs(got - n ** (1.0 / n)) < 1e-12


def test_eta_symplectic_first_steps_bounded():
    for n in (3, 6, 12):
        d = describe("USp", n)
        zero = Weight.zero(n, WeightKind.Y)
        assert eta_quotient(d, zero, 1, 1) <= 2.0
        assert eta_quotient(d, zero, 2, 1) <= 7.0 / 3.0
        assert eta_quotient(d, zero, 1, 12) < 1.0


def test_eta_matches_explicit_ratio():
    d = describe("SU", 4)
    base = Weight.of((1, 1, 0), WeightKind.Y)
    t0 = t_zero(d)
    grown = Weight.of((2, 2, 0), WeightKind.Y)
    rho = dimension(d, grown) / dimension(d, base)
    delta = casimir_exponent(d, grown) - casimir_exponent(d, base)
    expect = float(rho) * math.exp(-t0 * float(delta) / 2.0)
    assert abs(eta_quotient(d, base, 2, 1) - expect) < 1e-12


def test_eta_rejects_bad_bases():
    d = describe("SO", 11)
    half = Weight.of((Fraction(1, 2),) * 5, WeightKind.halfY)
    with pytest.raises(HalfPartitionUnsupported):
        eta_quotient(d, half, 1, 1)
    stepped = Weight.of((2, 1, 0, 0, 0), WeightKind.halfY)
    with pytest.raises(ValueError):
        eta_quotient(d, stepped, 2, 1)
    zero = Weight.zero(5, WeightKind.halfY)
    with pytest.raises(ValueError):
        eta_quotient(d, zero, 0, 1)
    with pytest.raises(ValueError):
        eta_quotient(d, zero, 1, 0)


@pytest.mark.parametrize("t", [-1.0, math.nan, math.inf, -math.inf])
def test_eta_rejects_times_outside_the_domain(t):
    d = describe("SO", 11)
    zero = Weight.zero(5, WeightKind.halfY)
    with pytest.raises(InvalidTime):
        eta_quotient(d, zero, 1, 1, t0=t)
    # at t = 0 the quotient is the bare dimension ratio
    assert eta_quotient(d, zero, 1, 1, t0=0.0) == 11.0


# -- densities -------------------------------------------------------------


def test_circle_density_value_and_mass():
    val = density("circle", {"theta": 0.0}, 2.0, 60)
    expect = 1.0 + 2.0 * sum(math.exp(-k * k) for k in range(1, 61))
    assert abs(val - expect) < 1e-14
    thetas = np.linspace(0.0, 2.0 * math.pi, 2001)
    vals = [density("circle", {"theta": th}, 0.7, 60) for th in thetas]
    mass = np.trapezoid(vals, thetas) / (2.0 * math.pi)
    assert abs(mass - 1.0) < 1e-6


def test_su2_alphabet_and_angle_routes_agree():
    d = describe("SU", 2)
    for theta, t in [(0.7, 1.3), (2.1, 0.8), (0.05, 2.5)]:
        z = [cmath.exp(1j * theta), cmath.exp(-1j * theta)]
        a = density(d, {"alphabet": z}, t, 60)
        b = density(d, {"theta": theta}, t, 60)
        assert abs(a - b) < 1e-9


def test_so3_angle_density_long_time_limit():
    d = describe("SO", 3)
    assert abs(density(d, {"theta": 0.3}, 100.0, 40) - 1.0) < 1e-9
    assert density(d, {"theta": 0.0}, 0.5, 80) > 10.0


def test_so3_angle_form_equals_the_alphabet_form():
    d = describe("SO", 3)
    for theta, t in [(0.7, 1.3), (2.1, 0.8), (0.05, 2.5), (3.0, 0.2),
                     (-1.4, 0.6), (5.9, 0.05)]:
        a = density(d, {"alphabet": [cmath.exp(1j * theta)]}, t, 60)
        b = density(d, {"theta": theta}, t, 60)
        assert abs(a - b) < 1e-12, (theta, t)
    assert density(d, {"theta": 2.1}, 0.8) > 0.0  # was -0.519


def _weyl_mass(space: str, t: float, form: str) -> float:
    """Haar mass of the density by Weyl's integration formula, on an even
    periodic grid, where the trapezoid rule is exact for trigonometric
    polynomials of degree below the point count: weight (2/pi) sin^2 on
    SU(2) and (1 - cos)/pi on SO(3), over [0, pi].  The angle form's grid
    holds 0 and pi; the alphabet form's, where the denominator vanishes
    there, is shifted by half a step."""
    d = describe(space, 2 if space == "SU" else 3)
    shift = 0.5 if form == "alphabet" else 0.0
    thetas = (np.arange(512) + shift) * (2.0 * math.pi / 512)
    if form == "theta":
        vals = np.array([density(d, {"theta": th}, t) for th in thetas])
    else:
        vals = np.array([density(d, {"alphabet": [cmath.exp(1j * th)]}, t)
                         for th in thetas])
    weight = 2.0 * np.sin(thetas) ** 2 if space == "SU" else 1.0 - np.cos(thetas)
    return float(np.mean(vals * weight))


@pytest.mark.parametrize("space,form", [("SU", "theta"), ("SO", "theta"),
                                        ("SO", "alphabet")])
@pytest.mark.parametrize("t", [0.2, 0.7, 2.5])
def test_rank_one_densities_have_unit_haar_mass(space, form, t):
    assert abs(_weyl_mass(space, t, form) - 1.0) < 1e-9


def test_su2_angle_density_is_continuous_at_pi():
    d = describe("SU", 2)
    for t in (0.1, 0.3, 1.0):
        at_pi = density(d, {"theta": math.pi}, t)
        # sum |terms| at pi, where |chi_k| = k + 1: the sum itself cancels
        scale = sum((k + 1) ** 2 * math.exp(-k * (k + 2) * t / 8.0)
                    for k in range(41))
        for theta in (math.pi - 1e-6, math.pi + 1e-6, -math.pi + 1e-6,
                      3.0 * math.pi - 1e-6, math.pi - 1e-8, math.pi + 1e-8):
            value = density(d, {"theta": theta}, t)
            assert abs(value - at_pi) < 1e-15 * scale, (theta, t)
    # -I lies in the class theta = pi: chi_k(-I) = (-1)^k (k + 1)
    terms = [(-1) ** k * (k + 1) ** 2 * math.exp(-k * (k + 2) * 0.3 / 8.0)
             for k in range(41)]
    scale = sum(abs(v) for v in terms)  # the sum cancels to about 3e-15
    assert abs(density(d, {"theta": math.pi}, 0.3) - sum(terms)) < 1e-15 * scale


@pytest.mark.parametrize("space,pole,t", [
    ("SU", math.pi, 0.1), ("SU", math.pi, 1.0), ("SO", 2.0 * math.pi, 0.1),
    ("SO", 2.0 * math.pi, 1.0)])
def test_rank_one_densities_keep_their_digits_near_a_pole(space, pole, t):
    d = describe(space, 2 if space == "SU" else 3)
    at_pole = density(d, {"theta": pole}, t)
    offsets = (1e-6, 1e-8) if space == "SU" else (1e-8,)
    for offset in offsets:
        for theta in (pole - offset, pole + offset):
            value = density(d, {"theta": theta}, t)
            assert abs(value - at_pole) <= 1e-6 * abs(at_pole), (theta, t)


@pytest.mark.parametrize("space", ["SU", "SO"])
@pytest.mark.parametrize("theta", [1e15, 1e17, 1e308])
def test_rank_one_densities_at_huge_angles_equal_the_exact_reduction(
        space, theta):
    # theta reduced mod 2 pi in 400 digits: a float reduction by m * pi
    # loses every digit of the angle once ulp(psi) passes pi
    d = describe(space, 2 if space == "SU" else 3)
    root = d.root
    b2 = sum(r * s for r, s in zip(root.rho2, (1, -1)[:root.rank]))
    for t in (0.5, 1.0):
        scale = density(d, {"theta": 0.0}, t)  # every term at its largest
        with mpmath.workdps(400):
            psi = mpmath.mpf(theta) * b2 / 2
            want = mpmath.mpf(0)
            for w in enumerate_by_size(indexing_set(d), 40):
                if not w.is_integer:
                    continue
                dim, b = dimension(d, w), casimir_exponent(d, w)
                dim = mpmath.mpf(dim.numerator) / dim.denominator
                b = mpmath.mpf(b.numerator) / b.denominator
                want += (dim * mpmath.exp(-t * b / 2)
                         * mpmath.sin(dim * psi) / mpmath.sin(psi))
        value = density(d, {"theta": theta}, t)
        assert abs(value - float(want)) <= 1e-15 * scale, (t, value, want)


def test_group_density_near_cutoff_is_positive():
    d = describe("USp", 3)
    z = [cmath.exp(1j * t) for t in (0.4, 1.2, 2.2)]
    val = density(d, {"alphabet": z}, 2.0 * t_zero(d), 20)
    assert val > 0.0


def test_so_alphabet_density_sums_integer_labels_only():
    # the half labels index representations of Spin(n), not of SO(n)
    d = describe("SO", 5)
    z = [cmath.exp(1j * a) for a in (0.4, 1.9)]
    want = 0.0
    for w in oracle_labels(indexing_set(d), 12):
        if w.is_integer:
            b = float(casimir_exponent(d, w))
            want += (float(dimension(d, w)) * math.exp(-0.6 * b / 2.0)
                     * schur("B", list(w.parts), z).real)
    assert density(d, {"alphabet": z}, 0.6, 12) == pytest.approx(want,
                                                                rel=1e-12)


_ALPHABET = (0.3, 0.9, -1.4, 2.0, 2.6)  # a regular class at every rank <= 5


@pytest.mark.parametrize("space,point,cap", [
    *[((family, n, None), {"alphabet": angles[:rank]}, cap)
      for family, n, rank, cap in (("SO", 5, 2, 40), ("SO", 6, 3, 40),
                                   ("SO", 10, 5, 16), ("SO", 11, 5, 16),
                                   ("USp", 5, 5, 16), ("SU", 3, 3, 40))
      for angles in (_ALPHABET, (0.0,) * 5)],
    *[((family, n, None), {"theta": theta}, 40)
      for family, n in (("SU", 2), ("SO", 3))
      for theta in (0.0, math.pi, 1e17, 1e308)],
], ids=str)
def test_density_equals_the_exact_oracle(space, point, cap):
    # the engine reads D and B from the term table and each character from
    # one batched routine; the oracle sums exact labels one at a time
    d = describe(*space)
    if "alphabet" in point:
        point = {"alphabet": [cmath.exp(1j * a) for a in point["alphabet"]]}
    for t in (1.0, 2.0):
        want, scale = oracle_density(d, point, t, cap)
        assert abs(density(d, point, t, cap) - want) <= 1e-13 * scale


def test_alphabet_density_at_the_identity_takes_the_character_limit():
    # Weyl's ratio is 0/0 at the identity; its limit is chi * D^lambda, and
    # angles of 2 pi (whose sine rounds to -2.4e-16) name the same class
    so3 = describe("SO", 3)
    for t in (0.3, 1.0, 2.5):
        for angle in (0.0, 2.0 * math.pi, -4.0 * math.pi):
            at_id = density(so3, {"alphabet": [cmath.exp(1j * angle)]}, t)
            assert at_id == pytest.approx(density(so3, {"theta": 0.0}, t),
                                          rel=1e-12, abs=0.0)
    for family, n in (("SU", 3), ("SO", 4), ("USp", 2)):
        d = describe(family, n)
        want = 0.0
        for w in enumerate_by_size(indexing_set(d), 12):
            if w.is_integer:
                dim = dimension(d, w)
                want += (float(_chirality(d, w) * dim * dim)
                         * math.exp(-0.7 * float(casimir_exponent(d, w)) / 2.0))
        ones = [1.0] * d.root.rank
        assert density(d, {"alphabet": ones}, 0.7, 12) == pytest.approx(
            want, rel=1e-12, abs=0.0)


def test_alphabet_density_at_another_singular_class_names_it():
    # two equal eigenvalues away from the identity: Weyl's ratio stays 0/0
    with pytest.raises(DegenerateAlphabet,
                       match=r"class of eigenvalue angles \(1.5, 1.5, 0\) "
                             "is singular"):
        density(describe("SU", 3), {"alphabet": [cmath.exp(1.5j)] * 2 + [1.0]},
                1.0)


def test_identity_density_matches_series_at_half_time():
    # p_t(e) = sum D^2 e^{-tB/2}, the series at t/2 plus the trivial label,
    # on groups with no fold and no half labels
    for family, n in (("SU", 3), ("SU", 5), ("USp", 2), ("USp", 4)):
        d = describe(family, n)
        ones = [1.0] * d.root.rank
        for t in (0.5, 1.0, 2.0):
            rho = density(d, {"alphabet": ones}, t)
            ser = dominating_series(d, t / 2.0, size_cap=40)
            assert math.isclose(rho, 1.0 + ser.partial_sum, rel_tol=1e-13,
                                abs_tol=0.0), (str(d), t)


@pytest.mark.parametrize("family,n,expected", [
    ("GrR", 9, [1, 9, 44, 156]),
    ("GrC", 6, [1, 35, 405, 2695]),
    ("GrH", 5, [1, 44, 780, 8250]),
])
def test_rank_one_multiplicities_match_closed_forms(family, n, expected):
    d = describe(family, n, 1)
    idx = indexing_set(d)
    for k, want in enumerate(expected):
        parts = ((k, k) if family == "GrH" else (k,))
        w = Weight.of(parts + (0,) * (idx.length - len(parts)), idx.kind)
        assert dimension(d, w) == want


def test_density_error_paths():
    with pytest.raises(UnsupportedSpace):
        density("torus", {"theta": 0.1}, 1.0)
    d = describe("GrC", 6, 2)
    with pytest.raises(UnsupportedSpace):
        density(d, {"alphabet": [1j, -1j]}, 1.0)
    with pytest.raises(UnsupportedSpace):  # a rank-one quotient has no form
        density(describe("GrC", 6, 1), {"theta": 0.5}, 1.0)
    with pytest.raises(UnsupportedSpace):
        density(describe("SU", 3), {}, 1.0)
    with pytest.raises(ValueError):
        density("circle", {"theta": 0.0}, 0.0)
    with pytest.raises(ValueError):
        density(describe("SU", 3), {"alphabet": [1j, -1j]}, 1.0)  # wrong size


@pytest.mark.parametrize("space,point,cap,message", [
    ("circle", {"theta": math.nan}, 40, "angle theta must be finite"),
    ("SO", {"theta": math.inf}, 40, "angle theta must be finite"),
    ("SU", {"alphabet": [1.0, complex(math.nan, math.nan)]}, 40,
     "alphabet eigenvalues must be finite"),
    ("SU", {"alphabet": [1.0, complex(math.inf, 0.0)]}, 40,
     "alphabet eigenvalues must be finite"),
    ("circle", {"theta": 1.0}, -5, "size_cap must be >= 0"),
    ("SO", {"theta": 1.0}, -5, "size_cap must be >= 0"),
])
def test_density_rejects_points_and_caps_outside_the_domain(space, point, cap,
                                                            message):
    desc = {"circle": "circle", "SO": describe("SO", 3),
            "SU": describe("SU", 2)}[space]
    with pytest.raises(ValueError, match=message):
        density(desc, point, 1.0, size_cap=cap)


@pytest.mark.parametrize("space,point", [
    ("circle", {"theta": 1.0}),
    ("SO", {"theta": 1.0}),
    ("SU", {"theta": 1.0}),
])
def test_density_loop_forms_refuse_a_cap_above_the_label_limit(space, point):
    desc = {"circle": "circle", "SO": describe("SO", 3),
            "SU": describe("SU", 2)}[space]
    for cap in (MAX_LABELS, 10 ** 9):
        with pytest.raises(TooLarge, match="gives more than 300000 labels"):
            density(desc, point, 1.0, size_cap=cap)


@pytest.mark.parametrize("family", ["SO", "USp"])
def test_a_tail_just_above_t0_is_finite_without_any_count(monkeypatch, family):
    # at 1.0005 t0 the partition tail is finite and large: no partition is
    # counted on the way, and the bound stays vacuous
    from cutofflab import partitions

    d = describe(family, 29)
    t0 = t_zero(d)
    tv_upper_bound(d, 2.0 * t0)  # the label guard counts, once per cap:
    heatseries._cap_schedule(d)  # the series' first, then the schedule's

    def counting(max_size, max_len):
        raise AssertionError(f"counted partitions up to {max_size}")

    monkeypatch.setattr(partitions, "partition_counts", counting)
    start = time.perf_counter()
    assert math.isfinite(heatseries._tail_bound(d, 1.0005 * t0, 40, t0))
    assert time.perf_counter() - start < 0.1
    assert tv_upper_bound(d, 1.0005 * t0) == 1.0


@pytest.mark.parametrize("family,n,q", [
    ("SO", 10, None), ("SO", 11, None), ("USp", 5, None), ("GrR", 16, 4),
    ("GrC", 14, 5), ("GrH", 12, 3), ("SO2n_Un", 12, None),
    ("USpn_Un", 9, None)])
def test_partition_tails_count_no_partitions(monkeypatch, family, n, q):
    # the label guard counts partitions; the tail of a family off type A
    # sums them through its recurrence alone
    from cutofflab import partitions

    d = describe(family, n, q)
    t0 = t_zero(d)
    first = tv_upper_bound(d, 1.3 * t0)  # the guard counts, once per cap:
    heatseries._cap_schedule(d)  # the series' first, then the schedule's

    def counting(max_size, max_len):
        raise AssertionError(f"counted partitions up to {max_size}")

    monkeypatch.setattr(partitions, "partition_counts", counting)
    for ratio in (1.01, 1.2, 1.5, 2.0):
        assert 0.0 < tv_upper_bound(d, ratio * t0) <= 1.0
    assert tv_upper_bound(d, 1.3 * t0) == first
