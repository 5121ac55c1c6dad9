"""End-to-end tests of the command-line interface."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from cutofflab import cli, moments
from cutofflab.verification import CheckResult


def _run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def test_describe_reports_the_table_constants(capsys):
    code, out = _run(capsys, "describe", "--family", "USp", "--n", "3")
    payload = json.loads(out)
    assert code == 0
    assert payload["beta"] == 4
    assert payload["alpha_cutoff"] == 2
    assert payload["c_lower"] == 5
    assert payload["C_upper"] == 3
    assert payload["matrix_size"] == 6


def test_tv_bound_after_cut_off_beats_the_chain_constant(capsys):
    code, out = _run(capsys, "tv-bound", "--family", "SO", "--n", "11",
                     "--eps", "1")
    payload = json.loads(out)
    assert code == 0
    assert payload["certified"] is True
    assert payload["tv_upper"] <= 6.0 / math.sqrt(11.0)


def test_profile_csv_has_a_monotone_upper_column(capsys):
    code, out = _run(capsys, "profile", "--family", "SU", "--n", "8",
                     "--format", "csv")
    lines = out.strip().split("\n")
    assert code == 0
    assert lines[0] == "t,lower,upper"
    uppers = [float(line.split(",")[2]) for line in lines[1:]]
    assert len(uppers) == 41
    assert all(a >= b - 1e-12 for a, b in zip(uppers, uppers[1:]))


def test_identical_argv_gives_identical_bytes(capsys):
    argv = ("estimate", "--family", "SU", "--n", "3", "--statistic", "trace",
            "--t", "0.4", "--paths", "48", "--seed", "9")
    _, first = _run(capsys, *argv, "--threads", "1")
    _, second = _run(capsys, *argv, "--threads", "3")
    assert first == second


def test_usage_errors_exit_with_code_two(capsys):
    assert cli.main(["series", "--family", "SO", "--n", "7"]) == 2
    capsys.readouterr()
    assert cli.main(["tv-bound", "--family", "SO", "--n", "7",
                     "--t", "1", "--eps", "1"]) == 2
    capsys.readouterr()
    assert cli.main(["moment", "--family", "SU", "--n", "3",
                     "--pattern", "bogus", "--t", "1"]) == 2
    capsys.readouterr()
    assert cli.main(["no-such-verb"]) == 2
    capsys.readouterr()
    # library domain errors (ValueError) map to exit 2 as well
    assert cli.main(["bound-sweep", "--family", "SO", "--n", "11",
                     "--cap", "1"]) == 2
    assert capsys.readouterr().err == "error: size_cap must be >= 2\n"


@pytest.mark.parametrize("argv", [
    ("tv-bound", "--family", "SO", "--n", "11", "--t", "-1"),
    ("tv-bound", "--family", "SO", "--n", "11", "--t", "nan"),
    ("tv-bound", "--family", "SO", "--n", "11", "--t", "inf"),
    ("series", "--family", "SO", "--n", "11", "--t", "nan"),
    ("moment", "--family", "SO", "--n", "5", "--pattern", "1.1,1.1",
     "--t", "nan"),
    ("moment", "--family", "SO", "--n", "5", "--pattern", "1.1,1.1",
     "--t", "-1"),
], ids=" ".join)
def test_times_outside_the_domain_exit_with_code_two(capsys, argv):
    assert cli.main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: time must be finite")


def test_non_finite_json_values_never_reach_stdout(capsys, monkeypatch):
    monkeypatch.setattr(cli, "tv_upper_bound", lambda desc, t: math.nan)
    assert cli.main(["tv-bound", "--family", "SO", "--n", "11",
                     "--eps", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_moment_verb_matches_the_library(capsys):
    code, out = _run(capsys, "moment", "--family", "SO", "--n", "4",
                     "--pattern", "1.1,1.1", "--t", "0.7")
    payload = json.loads(out)
    want = complex(moments.moment("so", 4, [(0, 0), (0, 0)], 0.7))
    assert code == 0
    assert abs(payload["value_re"] - want.real) < 1e-14
    assert payload["value_im"] == 0.0


def test_eigentable_verb_verifies_a_table(capsys):
    code, out = _run(capsys, "eigentable", "--family", "SU", "--n", "4",
                     "--k", "1", "--l", "1")
    payload = json.loads(out)
    assert code == 0
    assert payload["verified"] is True


def test_eigentable_verb_answers_at_large_rank(capsys):
    code, out = _run(capsys, "eigentable", "--family", "SO", "--n", "100",
                     "--k", "4")
    assert code == 0
    assert json.loads(out)["verified"] is True


@pytest.mark.parametrize("argv", [
    ("--family", "SO", "--n", "1001", "--k", "4"),  # 1001^4 > 10^12
    ("--family", "SU", "--n", "708", "--k", "2", "--l", "2"),  # 2n^2 - 2 > 10^6
])
def test_eigentable_verb_refuses_past_the_float_bounds(capsys, argv):
    code = cli.main(["eigentable", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_eigentable_failure_reports_claimed_and_computed(capsys, monkeypatch):
    real = moments.verify_eigentable

    def broken(algebra, n, k, l=0):
        report = real(algebra, n, k, l)
        entry = moments.EigenEntry(report.entries[0].eigenvalue,
                                   claimed_mult=999,
                                   computed_mult=report.entries[0].computed_mult,
                                   max_residual=report.entries[0].max_residual)
        return moments.EigenReport(report.algebra, report.n, report.k,
                                   report.l, (entry,) + report.entries[1:],
                                   report.dims_match, False)

    monkeypatch.setattr(cli._moments, "verify_eigentable", broken)
    code, out = _run(capsys, "eigentable", "--family", "SU", "--n", "4",
                     "--k", "1", "--l", "1")
    payload = json.loads(out)
    assert code == 1
    assert payload["failures"][0]["claimed"] == 999
    assert "computed" in payload["failures"][0]
    assert "tolerance" in payload["failures"][0]


def test_zonal_expansion_coefficients_sum_to_one(capsys):
    from fractions import Fraction

    code, out = _run(capsys, "zonal-expansion", "--family", "GrH",
                     "--n", "3", "--q", "1")
    payload = json.loads(out)
    assert code == 0
    total = sum(Fraction(term["coefficient"]) for term in payload["terms"])
    assert total == 1


def test_zonal_expansion_rejects_groups(capsys):
    assert cli.main(["zonal-expansion", "--family", "SU", "--n", "3"]) == 2
    capsys.readouterr()


def test_simulate_csv_layout_and_determinism(capsys):
    argv = ("simulate", "--family", "SO", "--n", "4", "--t", "0.5",
            "--paths", "5", "--seed", "2", "--format", "csv")
    code, first = _run(capsys, *argv)
    _, second = _run(capsys, *argv)
    lines = first.strip().split("\n")
    assert code == 0
    assert lines[0] == "path,omega_re,omega_im"
    assert len(lines) == 6
    assert first == second


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("family,n,t", [("SO", 4, "0"), ("SO", 4, "0.7"),
                                        ("GrC", 5, "1.3")])
def test_simulate_streams_the_bytes_of_the_whole_text(capsys, tmp_path, fmt,
                                                      family, n, t):
    # the whole text as it was written before rows were streamed
    from cutofflab import sampler
    from cutofflab.spaces import describe

    q = 2 if family == "GrC" else None
    desc = describe(family, n, q)
    space = ["--family", family, "--n", str(n)] + (["--q", "2"] if q else [])
    for paths in (1, 2, 7, 300):
        config = sampler.SimulationConfig(paths=paths, seed=3, step_size=0.05)
        values = sampler._values_for_range(desc, "omega", float(t), config,
                                           0, paths, None)
        rows = [(i, float(v.real), float(v.imag)) for i, v in enumerate(values)]
        if fmt == "csv":
            want = "".join(cli._csv_lines(("path", "omega_re", "omega_im"),
                                          rows))
        else:
            want = cli._json_text({
                "space": str(desc), "t": float(t), "seed": 3,
                "omega": [{"path": p, "re": re, "im": im} for p, re, im in rows]})
        argv = ["simulate", *space, "--t", t, "--paths", str(paths),
                "--seed", "3", "--format", fmt]
        code, out = _run(capsys, *argv)
        assert code == 0
        assert out == want, paths
        target = tmp_path / f"{paths}.{fmt}"
        assert cli.main([*argv, "--out", str(target)]) == 0
        assert target.read_text() == want


@pytest.mark.parametrize("argv,message", [
    (("--t", "1", "--steps", "0"), "--steps must be >= 1"),
    (("--t", "1", "--steps", "-3"), "--steps must be >= 1"),
    (("--t", "nan", "--steps", "2"), "time must be finite with t >= 0"),
    (("--t", "-1", "--steps", "2"), "time must be finite with t >= 0"),
    (("--t", "1", "--steps", "2"), "step size must lie in (0, 0.05]"),
    (("--t", "5e-324", "--steps", "2"), "gives a step that underflows to 0"),
    (("--t", "1", "--steps", "100001"), "--steps 100001 exceeds the limit 100000"),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else None)
def test_simulate_argument_errors_exit_with_code_two(capsys, argv, message):
    assert cli.main(["simulate", "--family", "SU", "--n", "3", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("paths", ["1", "0"])
def test_estimate_refuses_fewer_than_two_paths(capsys, paths):
    # one path has a mean but no standard error
    code = cli.main(["estimate", "--family", "SO", "--n", "4", "--t", "1",
                     "--statistic", "trace", "--paths", paths])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert ("error: --paths must be >= 2: one path has no standard error"
            in captured.err)


def test_an_overflowing_partial_sum_prints_as_inf(capsys):
    # far below cut-off the largest SO(100000) terms pass the float range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = _run(capsys, "series", "--family", "SO", "--n", "100000",
                         "--t", "0.0001")
    payload = json.loads(out)
    assert code == 0
    assert payload["partial_sum"] == "inf"
    assert payload["tail_bound"] == "inf"
    assert payload["size_cap"] == 40


def test_simulate_at_time_zero_gives_the_identity_rows(capsys):
    argv = ("simulate", "--family", "SU", "--n", "3", "--t", "0",
            "--paths", "3", "--format", "csv")
    code, out = _run(capsys, *argv)
    assert code == 0
    assert out == "path,omega_re,omega_im\n0,3,0\n1,3,0\n2,3,0\n"
    code, with_steps = _run(capsys, *argv, "--steps", "4")
    assert code == 0
    assert with_steps == out


STEP_TIMES = ("0.3", "0.5", "0.7", "1", "1.3", "2.9", "3.7")


def test_simulate_steps_gives_the_sampler_that_many_steps(capsys, monkeypatch):
    # t / steps rounds down on 39 of these 1,393 pairs, where ceil(t / step),
    # the count simulate_endpoints runs, was steps + 1; a step size past
    # 0.05 is refused as before
    seen = []

    def record(desc, statistic, t, config, start, stop, threshold):
        seen.append((t, config.step_size))
        return np.zeros(stop - start, dtype=complex)

    monkeypatch.setattr(cli._sampler, "_values_for_range", record)
    for t in STEP_TIMES:
        for steps in range(1, 200):
            seen.clear()
            code, _ = _run(capsys, "simulate", "--family", "SO", "--n", "3",
                           "--t", t, "--paths", "1", "--steps", str(steps))
            if float(t) / steps > 0.05:
                assert code == 2, (t, steps)
                continue
            assert code == 0, (t, steps)
            [(time_, step)] = seen
            assert math.ceil(time_ / step) == steps, (t, steps)
            # the nearest such step: one ulp less gives steps + 1
            assert step == float(t) / steps or math.ceil(
                time_ / math.nextafter(step, 0.0)) == steps + 1, (t, steps)


@pytest.mark.parametrize("t,steps", [("0.5", 49), ("2.9", 59), ("3.7", 104),
                                     ("0.3", 7)])
def test_simulate_runs_the_steps_asked_for(capsys, monkeypatch, t, steps):
    from cutofflab import sampler

    calls = []
    real = sampler._expm_antisymmetric
    monkeypatch.setattr(sampler, "_expm_antisymmetric",
                        lambda xi: calls.append(1) or real(xi))
    code, _ = _run(capsys, "simulate", "--family", "SO", "--n", "3", "--t", t,
                   "--paths", "1", "--steps", str(steps))
    assert code == 0
    assert len(calls) == steps


# the float t / steps is 0.05 at 29 steps on the fourth time, yet ceil(t /
# 0.05) is 30; it is above 0.05 at 41 steps on the last, where ceil(t / 0.05)
# is 41: the count the sampler runs decides, not the step t / steps
@pytest.mark.parametrize("t", ["1", "0.3", "2.9", "1.4500000000000002",
                               "2.0500000000000003"])
def test_too_few_steps_name_the_least_count(capsys, monkeypatch, t):
    seen = []

    def record(desc, statistic, time_, config, start, stop, threshold):
        seen.append(math.ceil(time_ / config.step_size))
        return np.zeros(stop - start, dtype=complex)

    monkeypatch.setattr(cli._sampler, "_values_for_range", record)
    least = math.ceil(float(t) / 0.05)
    argv = ["simulate", "--family", "SO", "--n", "3", "--t", t, "--paths", "1"]
    assert cli.main([*argv, "--steps", str(least - 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: --steps {least - 1} is too few for --t {float(t)!r}: the "
        f"step size must lie in (0, 0.05], so --steps must be at least "
        f"{least}\n")
    assert cli.main([*argv, "--steps", str(least)]) == 0
    assert seen == [least]


@pytest.mark.parametrize("t", ["5000.001", "1e308"])
def test_too_few_steps_past_the_step_limit_name_the_limit(capsys, t):
    code = cli.main(["simulate", "--family", "SO", "--n", "3", "--t", t,
                     "--steps", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.endswith("so --t needs more than 100000 steps, the "
                                 "limit\n")


def test_circle_density_matches_the_theta_series(capsys):
    code, out = _run(capsys, "density", "--family", "circle", "--n", "1",
                     "--t", "0.5", "--theta", "0.3")
    payload = json.loads(out)
    want = 1.0 + sum(2.0 * math.exp(-k * k * 0.25) * math.cos(0.3 * k)
                     for k in range(1, 41))
    assert code == 0
    assert abs(payload["density"] - want) < 1e-12


def test_estimate_without_time_uses_the_uniform_measure(capsys):
    code, out = _run(capsys, "estimate", "--family", "SU", "--n", "3",
                     "--statistic", "abs_trace_sq", "--paths", "64",
                     "--seed", "4", "--threads", "1")
    payload = json.loads(out)
    assert code == 0
    assert payload["t"] is None
    assert payload["mean"] > 0.0


def test_out_flag_writes_the_same_bytes(capsys, tmp_path):
    target = tmp_path / "report.json"
    argv = ("describe", "--family", "SO", "--n", "9")
    code, stdout_text = _run(capsys, *argv)
    assert code == 0
    code = cli.main(list(argv) + ["--out", str(target)])
    capsys.readouterr()
    assert code == 0
    assert target.read_text() == stdout_text


def test_eta_emits_the_requested_number_of_steps(capsys):
    code, out = _run(capsys, "eta", "--family", "USp", "--n", "4",
                     "--l", "2", "--cap", "4")
    payload = json.loads(out)
    assert code == 0
    assert [row["k"] for row in payload["quotients"]] == [1, 2, 3, 4]
    assert all(row["eta"] > 0.0 for row in payload["quotients"])


def test_verify_all_exit_code_tracks_the_results(capsys, monkeypatch):
    good = [CheckResult("alpha", True, {}, 0.1),
            CheckResult("beta", True, {}, 0.2)]
    monkeypatch.setattr(cli._verification, "run_all",
                        lambda threads=1: good)
    code, out = _run(capsys, "verify-all", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "check,result,seconds"
    assert "alpha,pass" in out

    bad = good + [CheckResult("gamma", False, {"why": "off"}, 0.3)]
    monkeypatch.setattr(cli._verification, "run_all",
                        lambda threads=1: bad)
    code, out = _run(capsys, "verify-all")
    payload = json.loads(out)
    assert code == 1
    assert payload["all_passed"] is False
    assert payload["checks"][2]["passed"] is False


def test_verify_all_writes_one_rounding_to_json_and_csv(capsys, monkeypatch):
    results = [CheckResult("alpha", True, {"worst": 0.5}, 0.12345),
               CheckResult("beta", False, {"case": "x"}, 2.0)]
    monkeypatch.setattr(cli._verification, "run_all",
                        lambda threads=1: results)
    code, out = _run(capsys, "verify-all")
    assert code == 1
    assert json.loads(out) == {
        "all_passed": False,
        "checks": [{"name": "alpha", "passed": True, "detail": {"worst": 0.5},
                    "elapsed_seconds": 0.123},
                   {"name": "beta", "passed": False, "detail": {"case": "x"},
                    "elapsed_seconds": 2.0}]}
    code, out = _run(capsys, "verify-all", "--format", "csv")
    assert code == 1
    assert out == "check,result,seconds\nalpha,pass,0.123\nbeta,FAIL,2\n"


def test_a_failing_eigen_table_check_reports_plain_data(capsys, monkeypatch):
    from cutofflab import verification

    real = moments.verify_eigentable

    def broken(algebra, n, k, l=0):
        report = real(algebra, n, k, l)
        first = report.entries[0]
        entry = moments.EigenEntry(first.eigenvalue, claimed_mult=999,
                                   computed_mult=first.computed_mult,
                                   max_residual=first.max_residual)
        return moments.EigenReport(report.algebra, report.n, report.k,
                                   report.l, (entry,) + report.entries[1:],
                                   report.dims_match, False)

    monkeypatch.setattr(verification._moments, "verify_eigentable", broken)
    result = verification.run_check("eigen-tables")
    assert not result.passed
    assert result.detail["case"] == "so n=4 k=2 l=0"
    assert result.detail["failures"] == [{
        "eigenvalue": str(real("so", 4, 2).entries[0].eigenvalue),
        "claimed": 999,
        "computed": real("so", 4, 2).entries[0].computed_mult,
        "residual": real("so", 4, 2).entries[0].max_residual}]
    # the detail goes through the writer as it is
    monkeypatch.setattr(cli._verification, "run_all",
                        lambda threads=1: [result])
    code, out = _run(capsys, "verify-all")
    assert code == 1
    assert json.loads(out)["checks"][0]["detail"] == json.loads(
        json.dumps(result.detail))


@pytest.mark.parametrize("verb", [
    ("estimate", "--family", "SO", "--n", "3", "--t", "1", "--statistic",
     "trace"),
    ("verify-all",),
], ids=lambda v: v[0])
@pytest.mark.parametrize("threads", ["0", "-1"])
def test_thread_counts_below_one_exit_with_code_two(capsys, verb, threads):
    code = cli.main([*verb, "--threads", threads])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: threads must be positive\n"


@pytest.mark.parametrize("argv,message", [
    (("moment", "--family", "SO", "--n", "3", "--pattern", "1.4", "--t", "1"),
     "index 3 out of range for dimension 3"),
    (("moment", "--family", "USp", "--n", "2", "--pattern", "5.1",
      "--t", "1"), "index 4 out of range for dimension 4"),
    (("simulate", "--family", "SO", "--n", "3", "--t", "1", "--paths", "0"),
     "need at least one path"),
    (("eta", "--family", "SO", "--n", "10", "--l", "6"),
     "layer index 6 out of range: need 1 <= l <= 5"),
    (("eta", "--family", "SO", "--n", "10", "--l", "0"),
     "layer index 0 out of range: need 1 <= l <= 5"),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else None)
def test_inputs_the_library_refuses_exit_with_its_message(capsys, argv,
                                                          message):
    assert cli.main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_threads_default_to_one(monkeypatch):
    # no environment variable picks the count: only --threads does
    monkeypatch.setenv("CUTOFFLAB_THREADS", "3")
    parser = cli._build_parser()
    for verb in (["verify-all"], ["estimate", "--family", "SU", "--n", "3",
                                  "--statistic", "trace"]):
        assert parser.parse_args(verb).threads == 1
        assert parser.parse_args([*verb, "--threads", "2"]).threads == 2


@pytest.mark.parametrize("argv", [
    ("eta", "--family", "SO", "--n", "11", "--t", "nan", "--cap", "2",
     "--format", "csv"),
    ("eta", "--family", "SO", "--n", "11", "--t", "-1", "--cap", "2",
     "--format", "csv"),
    ("eta", "--family", "SO", "--n", "11", "--t", "nan", "--cap", "2"),
    ("eta", "--family", "SO", "--n", "11", "--t", "inf", "--cap", "2"),
], ids=" ".join)
def test_growth_quotient_times_outside_the_domain_exit_with_code_two(capsys, argv):
    assert cli.main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: time must be finite")


@pytest.mark.parametrize("ends", [
    ("--t-max", "inf"),
    ("--t-min", "nan"),
    ("--t-min", "1", "--t-max", "nan"),
], ids=" ".join)
def test_profile_rejects_non_finite_grid_ends(capsys, ends):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning before the error
        code = cli.main(["profile", "--family", "SO", "--n", "10", *ends])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "need finite 0 < --t-min < --t-max" in captured.err


@pytest.mark.parametrize("argv,message", [
    (("--family", "SU", "--n", "2", "--theta", "nan"),
     "error: angle theta must be finite"),
    (("--family", "SU", "--n", "2", "--theta", "inf"),
     "error: angle theta must be finite"),
    (("--family", "SU", "--n", "2", "--alphabet", "0.1,nan"),
     "alphabet angles must be finite"),
    (("--family", "SU", "--n", "2", "--alphabet", "0.1,inf"),
     "alphabet angles must be finite"),
    (("--family", "circle", "--n", "1", "--theta", "1", "--cap", "-5"),
     "error: size_cap must be >= 0"),
    (("--family", "SO", "--n", "3", "--theta", "1", "--cap", "-5"),
     "error: size_cap must be >= 0"),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else None)
def test_density_outside_the_domain_exits_with_code_two(capsys, argv, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning before the error
        code = cli.main(["density", "--t", "1", *argv])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("family,n,identity,theta", [
    ("SO", 3, "0", ("--theta", "0")),
    ("SU", 3, "0,0,0", None),
    ("SO", 4, "6.283185307179586,0", None),
])
def test_density_at_the_identity_class_is_finite(capsys, family, n, identity,
                                                 theta):
    code, out = _run(capsys, "density", "--family", family, "--n", str(n),
                     "--t", "1", "--alphabet", identity)
    value = json.loads(out)["density"]
    assert code == 0 and math.isfinite(value) and value > 1.0
    if theta is not None:
        _, by_angle = _run(capsys, "density", "--family", family, "--n",
                           str(n), "--t", "1", *theta)
        assert value == pytest.approx(json.loads(by_angle)["density"],
                                      rel=1e-12, abs=0.0)


def test_density_at_another_singular_class_exits_with_code_two(capsys):
    code = cli.main(["density", "--family", "SU", "--n", "3", "--t", "1",
                     "--alphabet", "0,0,1.5"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "the class of eigenvalue angles (0, 0, 1.5) is singular" in captured.err


@pytest.mark.parametrize("family,n,theta", [
    ("SU", "2", "1e308"), ("SO", "3", "1e308"),
    ("SU", "2", "1.7976931348623157e308"),
])
def test_density_at_a_huge_angle_is_finite(capsys, family, n, theta):
    # psi = theta * (b2 / 2) stays finite where b2 * theta did not
    code, out = _run(capsys, "density", "--family", family, "--n", n,
                     "--t", "0.5", "--theta", theta)
    assert code == 0 and math.isfinite(json.loads(out)["density"])


def test_estimate_refuses_a_nan_threshold(capsys):
    code = cli.main(["estimate", "--family", "SO", "--n", "3", "--statistic",
                     "indicator", "--threshold", "nan", "--t", "0.1",
                     "--paths", "4"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: the indicator threshold must not be NaN\n"


def test_describe_names_the_given_q_when_out_of_range(capsys):
    assert cli.main(["describe", "--family", "GrC", "--n", "6",
                     "--q", "9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "q=9 out of range for GrC(6)" in captured.err


def test_eta_rejects_a_base_longer_than_the_labels(capsys):
    assert cli.main(["eta", "--family", "SO", "--n", "10",
                     "--base", "2,1,1,1,1,1,1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'2,1,1,1,1,1,1' has 7 parts" in captured.err
    assert "SO(10) have 5" in captured.err


@pytest.mark.parametrize("cap", ["1000", "1000000000"])
@pytest.mark.parametrize("argv", [
    ("series", "--family", "SO", "--n", "10", "--t", "5"),
    ("bound-sweep", "--family", "SO", "--n", "40"),
    ("density", "--family", "SO", "--n", "10", "--t", "1",
     "--alphabet", "0.1,0.5,0.9,1.3,1.7"),
], ids=lambda v: v[0])
def test_size_caps_above_the_label_limit_exit_with_code_two(capsys, argv, cap):
    start = time.perf_counter()
    code = cli.main([*argv, "--cap", cap])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"error: size cap {cap} gives more than 300000 labels" in captured.err
    assert elapsed < 1.0  # the label count stops at the limit


def test_half_labels_count_toward_the_label_limit(capsys):
    # SO(7) at cap 200: 234,073 integer and 227,239 half labels
    code = cli.main(["series", "--family", "SO", "--n", "7", "--t", "5",
                     "--cap", "200"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error: size cap 200 gives more than 300000 labels" in captured.err


@pytest.mark.parametrize("argv,message", [
    (("simulate", "--family", "SO", "--n", "4", "--t", "1",
      "--paths", "100000000"), "100000000 paths exceed the limit 1000000"),
    (("estimate", "--family", "SO", "--n", "4", "--t", "1", "--statistic",
      "trace", "--paths", "1000000000", "--threads", "1"),
     "1000000000 paths exceed the limit 1000000"),
    (("density", "--family", "circle", "--n", "1", "--t", "1", "--theta",
      "1", "--cap", "1000000000"),
     "size cap 1000000000 gives more than 300000 labels"),
    (("eta", "--family", "SO", "--n", "10", "--cap", "1000000000"),
     "--cap 1000000000 exceeds the limit 300000"),
], ids=lambda v: v[0] if isinstance(v, tuple) else "")
def test_path_counts_and_loop_caps_above_their_limits_exit_with_code_two(
        capsys, argv, message):
    start = time.perf_counter()
    code = cli.main(list(argv))
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err
    assert elapsed < 1.0


@pytest.mark.parametrize("verb", [
    ("simulate", "--t", "1e308"),
    ("estimate", "--statistic", "trace", "--t", "1e308"),
    ("simulate", "--t", "5000.001"),
    ("estimate", "--statistic", "trace", "--t", "5000.001"),
], ids=lambda v: " ".join(v))
def test_step_counts_above_the_limit_exit_with_code_two(capsys, verb):
    argv = [*verb, "--family", "SO", "--n", "3", "--paths", "2"]
    start = time.perf_counter()
    code = cli.main(argv)
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: t = ")
    assert "needs more than 100000 steps" in captured.err
    assert elapsed < 1.0


@pytest.mark.parametrize("argv,message", [
    (("profile", "--family", "SO", "--n", "10", "--points", "1000000000"),
     "--points 1000000000 exceeds the limit 300000"),
    (("series", "--family", "SO", "--n", "100000", "--t", "40", "--cap", "80"),
     "size cap 80 gives more than 300000 labels of length 50000, or more "
     "than 30000000 parts"),
], ids=lambda v: v[0] if isinstance(v, tuple) else "")
def test_tables_too_wide_or_grids_too_long_exit_with_code_two(capsys, argv,
                                                               message):
    start = time.perf_counter()
    code = cli.main(list(argv))
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err
    assert elapsed < 1.0  # refused before any array is allocated


@pytest.mark.parametrize("argv", [
    ("tv-bound", "--family", "SU", "--n", "100000", "--eps", "0.5"),
    ("series", "--family", "SU", "--n", "100000", "--t", "40"),
    ("tv-bound", "--family", "SUn_SOn", "--n", "100000", "--eps", "0.5"),
    ("tv-bound", "--family", "SU2n_USpn", "--n", "100000", "--eps", "0.5"),
], ids=lambda v: "-".join(v[:3:2]))
def test_type_a_tails_past_the_entry_limit_exit_with_code_two(capsys, argv):
    start = time.perf_counter()
    code = cli.main(list(argv))
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "increment stages writes" in captured.err
    assert "more than 30000000" in captured.err
    assert elapsed < 1.0  # refused before the DP and the table


def test_tv_bound_at_rank_fifty_thousand_is_certified(capsys):
    # the cap-40 table is 40 parts wide at any rank, so the guard passes it
    start = time.perf_counter()
    code, out = _run(capsys, "tv-bound", "--family", "SO", "--n", "100000",
                     "--eps", "0.5")
    elapsed = time.perf_counter() - start
    payload = json.loads(out)
    assert code == 0
    assert payload["certified"] is True
    assert 0.0 < payload["tv_upper"] < 0.01
    assert elapsed < 10.0


def test_simulate_values_do_not_depend_on_the_chunking(capsys):
    from cutofflab import cutoff, sampler, spaces

    code, out = _run(capsys, "simulate", "--family", "GrC", "--n", "4",
                     "--q", "1", "--t", "0.1", "--paths", "300", "--seed", "4")
    assert code == 0
    desc = spaces.describe("GrC", 4, 1)
    config = sampler.SimulationConfig(paths=300, seed=4)
    whole = cutoff.omega_value(desc, sampler.simulate_endpoints(
        desc, 0.1, config, range(300)))  # one stack, beyond one chunk
    assert [row["re"] for row in json.loads(out)["omega"]] == whole.tolist()


@pytest.mark.parametrize("argv", [
    ("--family", "SO", "--n", "10", "--t", "4.605170185988093"),
    ("--family", "SO", "--n", "10", "--t", "4.605170190593262"),
    ("--family", "GrC", "--n", "14", "--q", "5", "--t", "2.639057332254316"),
], ids=lambda v: " ".join(v))
def test_tv_bound_just_above_the_cut_off_is_uncertified_at_once(capsys, argv):
    # the first two times are the float after 2 log 10 and 2 log 10 (1 + 1e-9);
    # their tail horizons would pass the doubling cap, so no certificate exists
    start = time.perf_counter()
    code, out = _run(capsys, "tv-bound", *argv)
    elapsed = time.perf_counter() - start
    payload = json.loads(out)
    assert code == 0
    assert payload["tv_upper"] == 1.0 and payload["certified"] is False
    assert elapsed < 1.0


def test_library_errors_print_one_line_without_usage(capsys):
    code = cli.main(["estimate", "--family", "SO", "--n", "4", "--t", "1",
                     "--statistic", "trace", "--paths", "1000000000"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "usage:" not in err


@pytest.mark.parametrize("argv", [
    ("tv-bound", "--family", "SO", "--n", "10", "--eps", "1"),
    ("bound-sweep", "--family", "SO", "--n", "10"),
    ("density", "--family", "circle", "--n", "1", "--t", "1", "--theta", "1"),
    ("moment", "--family", "SU", "--n", "3", "--pattern", "1.1", "--t", "1"),
    ("eigentable", "--family", "SO", "--n", "3", "--k", "2"),
    ("estimate", "--family", "SO", "--n", "4", "--statistic", "trace"),
], ids=lambda v: v[0])
def test_verbs_without_a_csv_form_refuse_the_format_flag(capsys, argv):
    code = cli.main([*argv, "--format", "csv"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "unrecognized arguments: --format csv" in captured.err


@pytest.mark.parametrize("argv,keep", [
    # 400 kB of rows, more than a pipe holds: the reader leaves after 16 bytes
    (("simulate", "--family", "SO", "--n", "3", "--t", "0.1", "--paths",
      "5000"), 16),
    # a few hundred bytes, which only the last flush writes: the reader has
    # gone before the process starts
    (("describe", "--family", "SO", "--n", "5"), 0),
], ids=["simulate-after-16-bytes", "describe-before-any"])
def test_a_closed_stdout_exits_with_code_two_and_no_traceback(argv, keep):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    read, write = os.pipe()
    if not keep:
        os.close(read)
    proc = subprocess.Popen([sys.executable, "-m", "cutofflab.cli", *argv],
                            stdout=write, stderr=subprocess.PIPE, env=env)
    os.close(write)
    if keep:
        with open(read, "rb", buffering=0) as out:
            out.read(keep)
    err = proc.communicate(timeout=120)[1].decode()
    assert proc.returncode == 2
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err == "error: stdout was closed before the output ended\n"
