"""The upper bound along a time grid: ``profile`` and ``tv_upper_bound``
equal, bit for bit, the per-time route that reads the term table at every
time (``table_oracle``), while a time with no tail certificate reads no
table at all, and a long grid holds one row of the table at a time."""

from __future__ import annotations

import functools
import math
import tracemalloc

import numpy as np
import pytest

from cutofflab import cli, heatseries
from cutofflab.cutoff import ProfilePoint, lower_bound, profile
from cutofflab.errors import InvalidTime, TooLarge
from cutofflab.heatseries import (_cap_schedule, dominating_series, t_zero,
                                  tv_upper_bound)
from cutofflab.spaces import _GRASSMANN, _TABLE, Family, describe
from table_oracle import oracle_series_report, oracle_upper_bound

# every family at its n0 and at n0 + 5 (q = 1, then 2), then the two
# largest tables the series reads at cap 40: SO(1000)'s log A passes 300,
# and GrR(1000,1) escalates
SPACES = [(family.value, _TABLE[family].n0 + step,
           1 + step // 5 if family in _GRASSMANN else None)
          for family in Family for step in (0, 5)] + [
    ("SO", 1000, None), ("GrR", 1000, 1)]


def _grid(t0: float) -> list:
    """41 times on 0.25 .. 2.5 t0, then t0 (1 -+ 1e-4): just above t0 the
    tail is far above the sum, so the cap escalates as far as a table fits."""
    return ([t0 * (0.25 + 2.25 * i / 40) for i in range(41)]
            + [t0 * (1.0 - 1e-4), t0 * (1.0 + 1e-4)])


def _hex(points: list) -> list:
    return [(p.t.hex(), p.lower.hex(), p.upper.hex()) for p in points]


def _per_time(d, times) -> list:
    """The profile one time at a time: the lower bound, then the upper."""
    return [ProfilePoint(t, lower_bound(d, t), oracle_upper_bound(d, t))
            for t in map(float, times)]


@pytest.mark.parametrize("family,n,q", SPACES)
def test_the_profile_equals_the_per_time_route(family, n, q):
    d = describe(family, n, q)
    grid = _grid(t_zero(d))
    want = [oracle_upper_bound(d, t) for t in grid]
    assert [tv_upper_bound(d, t).hex() for t in grid] == [w.hex() for w in want]
    assert _hex(profile(d, grid)) == _hex(_per_time(d, grid))
    for t in grid[::8] + grid[41:]:
        report = dominating_series(d, t)
        got = (report.partial_sum, report.tail_bound, report.terms_used,
               report.size_cap)
        want_report = oracle_series_report(d, t)
        assert [type(v) for v in got] == [float, float, int, int]
        assert [float(v).hex() for v in got] == [
            float(v).hex() for v in want_report], t
    assert dominating_series(d, grid[-1]).size_cap == _cap_schedule(d)[-1]


@pytest.mark.parametrize("family,n,q", [("SO", 8, None), ("GrR", 9, 2),
                                        ("SO2n_Un", 4, None)])
def test_below_the_proven_rank_every_upper_bound_is_one(family, n, q):
    d = describe(family, n, q)
    assert d.n < d.proven_min_n
    grid = _grid(t_zero(d))
    points = profile(d, grid)
    assert [p.upper for p in points] == [1.0] * len(grid)
    assert _hex(points) == _hex(_per_time(d, grid))


@pytest.mark.parametrize("make", [
    lambda t0: [2.0 * t0, 0.5 * t0, 2.0 * t0, 1.3 * t0, 0.5 * t0, t0],
    lambda t0: [1.7 * t0],
    lambda t0: [],
    lambda t0: np.linspace(0.25 * t0, 2.5 * t0, 41),
    lambda t0: (t0 * (0.3 + 0.1 * i) for i in range(20)),
], ids=["unsorted-with-duplicates", "single", "empty", "ndarray", "generator"])
def test_every_grid_shape_equals_the_per_time_route(make):
    d = describe("USp", 3)  # escalates up to cap 200 near t0
    t0 = t_zero(d)
    got, want = profile(d, make(t0)), _per_time(d, make(t0))
    assert _hex(got) == _hex(want)
    assert all(type(v) is float for p in got for v in (p.t, p.lower, p.upper))


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("at", [0, 20, 41])
def test_an_invalid_time_anywhere_raises_as_the_per_time_route(bad, at):
    d = describe("GrC", 14, 5)
    grid = _grid(t_zero(d))
    grid[at] = bad
    with pytest.raises(InvalidTime) as want:
        _per_time(d, grid)
    with pytest.raises(InvalidTime) as got:
        profile(d, grid)
    assert str(got.value) == str(want.value)
    with pytest.raises(InvalidTime):
        tv_upper_bound(d, bad)


def test_a_type_a_rank_past_the_tail_ceiling_raises_too_large(capsys):
    d = describe("SU", 5000)
    grid = _grid(t_zero(d))
    with pytest.raises(TooLarge) as want:
        _per_time(d, grid)
    with pytest.raises(TooLarge) as got:
        profile(d, grid)
    assert str(got.value) == str(want.value)
    assert "type A tail" in str(got.value)
    capsys.readouterr()
    assert cli.main(["profile", "--family", "SU", "--n", "5000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {got.value}\n"


def test_the_first_time_that_fails_decides_the_error():
    # the grid runs time by time, the lower bound before the upper: a time
    # past t0 refuses SU(5000)'s type A tail before a later invalid time is
    # reached, and an invalid time before it is refused first
    d = describe("SU", 5000)
    grid = _grid(t_zero(d))
    late, early = list(grid), list(grid)
    late[41] = early[10] = math.nan
    with pytest.raises(TooLarge):
        profile(d, late)
    with pytest.raises(InvalidTime):
        profile(d, early)


def _spy(monkeypatch, name: str) -> list:
    """Record the arguments of every call of a heatseries function."""
    calls = []
    real = getattr(heatseries, name)
    monkeypatch.setattr(heatseries, name,
                        lambda *args: calls.append(args) or real(*args))
    return calls


@pytest.mark.parametrize("family,n,q", [("SO", 10, None), ("GrH", 12, 3),
                                        ("SU", 6, None), ("SO", 8, None)])
def test_a_time_without_certificate_reads_no_table(monkeypatch, family, n, q):
    d = describe(family, n, q)
    t0 = t_zero(d)
    times = (0.25 * t0, 0.999 * t0, t0)
    if d.n < d.proven_min_n:
        times += (2.0 * t0,)
    reads = _spy(monkeypatch, "_term_table")
    for t in times:
        assert tv_upper_bound(d, t) == 1.0
    assert [p.upper for p in profile(d, times)] == [1.0] * len(times)
    assert reads == []
    # the series at the same time still reports its partial sum, at cap 40
    report = dominating_series(d, 0.5 * t0)
    want = oracle_series_report(d, 0.5 * t0)
    assert math.isinf(report.tail_bound) and report.size_cap == 40
    assert report.partial_sum.hex() == want[0].hex()
    assert set(reads) == {(d, 40)}


def test_a_profile_sums_only_its_certified_times(monkeypatch):
    d = describe("SO", 10)
    t0 = t_zero(d)
    grid = _grid(t0)
    tails = _spy(monkeypatch, "_tail_bound")
    reads = _spy(monkeypatch, "_term_table")
    profile(d, grid)
    # every time after t0, at each cap its series reaches: one tail and
    # one table read (and sum) per cap
    assert sorted({t for _, t, _, _ in tails}) == sorted(
        t for t in grid if t > t0)
    assert [(desc, cap) for desc, _, cap, _ in tails] == reads


@pytest.mark.parametrize("family,n,q,sizes", [
    ("SO", 10, None, 2), ("SO", 1001, None, 2), ("USp", 5, None, 1),
    ("GrR", 14, 3, 1)])
def test_each_tail_bound_runs_one_partition_tail_pass(monkeypatch, family, n,
                                                      q, sizes):
    # SO(n)'s integer and half labels share one pass, whose half size is
    # below 0 at SO(1001); the other families have one tail
    d = describe(family, n, q)
    passes = _spy(monkeypatch, "_partition_tails")
    tails = _spy(monkeypatch, "_tail_bound")
    profile(d, _grid(t_zero(d)))
    assert tails and len(passes) == len(tails)
    assert [len(beyonds) for _, beyonds, _ in passes] == [sizes] * len(tails)


def test_the_series_reports_each_time_at_its_own_cap():
    d = describe("USp", 3)
    t0 = t_zero(d)
    grid = [2.0 * t0, 1.3 * t0, 1.02 * t0, 0.5 * t0]
    reports = [dominating_series(d, t) for t in grid]
    assert [r.size_cap for r in reports] == [40, 80, 200, 40]
    for t, r in zip(grid, reports):
        want = oracle_series_report(d, t)
        assert (r.partial_sum.hex(), r.tail_bound.hex(), r.terms_used) == (
            want[0].hex(), want[1].hex(), want[2])
    # a fixed cap: every time summed at it, certified or not
    for t in grid:
        r, want = dominating_series(d, t, size_cap=20), oracle_series_report(
            d, t, size_cap=20)
        assert (r.partial_sum.hex(), r.tail_bound.hex(), r.size_cap) == (
            want[0].hex(), want[1].hex(), 20)


def test_a_long_grid_holds_one_table_row_at_a_time(monkeypatch):
    d = describe("SO", 10)
    t0 = t_zero(d)
    grid = np.linspace(0.25 * t0, 2.5 * t0, 20_000)
    # one block of every time's row would take 320 MB
    assert len(grid) * len(heatseries._term_table(d, 40).b) * 8 > 300e6
    # the scalar tails keep nothing past a call: they are memoised by the
    # first run so that the traced run takes seconds, not tens of seconds
    monkeypatch.setattr(heatseries, "_tail_bound",
                        functools.lru_cache(maxsize=None)(heatseries._tail_bound))
    first = profile(d, grid)
    tracemalloc.start()
    try:
        points = profile(d, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 20,000 points and their inputs, and one row of cap 40's levels
    assert peak < 8e6
    assert _hex(points) == _hex(first)
    sample = list(range(0, len(grid), 997)) + [len(grid) - 1]
    assert _hex([points[i] for i in sample]) == _hex(
        _per_time(d, grid[sample]))
