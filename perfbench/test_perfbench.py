"""Tests of the benchmark itself: seeding, output checks and tracing.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _cheap_cold_plan(seed: int, count: int = 12):
    """The first ``count`` quotient ops of a certify-cold plan: the same
    code paths as the full list at a fraction of its cost."""
    plan = workloads.generate("certify-cold", seed)
    plan.ops = [op for op in plan.ops
                if op.family not in ("SO", "SU", "USp")][:count]
    return plan


def _run_once(plan, recorder=None):
    workloads.prepare(plan)
    loop = run.run_loop(plan, workloads, seconds=0.0, passes=1,
                        recorder=recorder)
    return loop, run.evaluate(plan, workloads, loop)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_ops_and_other_seed_other_ops(workload):
    ops = workloads.generate(workload, 7).ops
    assert ops == workloads.generate(workload, 7).ops
    assert ops != workloads.generate(workload, 8).ops


def test_certify_cold_never_repeats_a_descriptor():
    for seed in range(5):
        plan = workloads.generate("certify-cold", seed)
        descriptors = [(op.family, op.n, op.q) for op in plan.ops]
        assert len(descriptors) == len(set(descriptors))
        assert len(plan.ops) >= run.MIN_OPS


def test_generated_times_are_finite_and_positive():
    for workload in workloads.WORKLOADS:
        plan = workloads.generate(workload, 3)
        for op in plan.ops:
            if op.t is not None:
                assert 0.0 < op.t < float("inf")
            if op.kind == "tv":
                assert op.extra[0] > 0.0


@pytest.mark.parametrize("make_plan", [
    lambda seed: _cheap_cold_plan(seed),
    lambda seed: workloads.generate("moments-mix", seed),
])
def test_same_seed_same_digest(make_plan):
    first = _run_once(make_plan(5))[1]
    second = _run_once(make_plan(5))[1]
    assert first["failed"] == 0
    assert first["digest"] == second["digest"]


def test_wrong_reference_counts_as_failure():
    plan = workloads.generate("moments-mix", 4)
    plan.ops = plan.ops[:6]
    workloads.prepare(plan)
    plan.ops[2].ref += 1e-6
    loop = run.run_loop(plan, workloads, seconds=0.0, passes=1)
    assert run.evaluate(plan, workloads, loop)["failed"] == 1


def test_wrong_monte_carlo_reference_counts_as_failure():
    plan = workloads.generate("montecarlo", 4)
    plan.ops = [op for op in plan.ops if op.t is None][:2]
    workloads.prepare(plan)
    plan.ops[0].ref = 2.0  # E|tr g|^2 under Haar is 1
    loop = run.run_loop(plan, workloads, seconds=0.0, passes=1)
    assert run.evaluate(plan, workloads, loop)["failed"] == 1


def test_exception_counts_as_failure():
    plan = _cheap_cold_plan(4, count=2)
    workloads.prepare(plan)
    plan.ops[0].kind = "no-such-op"
    loop = run.run_loop(plan, workloads, seconds=0.0, passes=1)
    assert run.evaluate(plan, workloads, loop)["failed"] == 1


def _check_self_times(recorder, loop):
    layers = recorder.self_times()
    assert all(self_s >= -1e-9 for _, self_s in layers.values())
    assert sum(self_s for _, self_s in layers.values()) <= loop["wall"]
    return layers


@pytest.mark.parametrize("make_plan", [
    lambda seed: _cheap_cold_plan(seed),
    lambda seed: workloads.generate("moments-mix", seed),
])
def test_traced_self_times_fit_in_the_wall_time(make_plan):
    recorder = spans.Recorder()
    recorder.install()
    try:
        loop, quality = _run_once(make_plan(2), recorder)
    finally:
        recorder.uninstall()
    assert quality["failed"] == 0
    layers = _check_self_times(recorder, loop)
    assert sum(calls for calls, _ in layers.values()) > 0


def test_tracing_uninstalls_cleanly():
    import cutofflab
    from cutofflab import heatseries
    before = (cutofflab.tv_upper_bound, heatseries.enumerate_by_size)
    recorder = spans.Recorder()
    recorder.install()
    assert heatseries.enumerate_by_size is not before[1]
    recorder.uninstall()
    assert (cutofflab.tv_upper_bound, heatseries.enumerate_by_size) == before


def test_profile_pool_stays_cached_through_the_loop():
    plan = workloads.generate("profile-warm", 1)
    workloads.prepare(plan)
    recorder = spans.Recorder()
    recorder.install()
    try:
        loop = run.run_loop(plan, workloads, seconds=0.0, passes=1,
                            recorder=recorder)
    finally:
        recorder.uninstall()
    layers = _check_self_times(recorder, loop)
    assert layers["partitions.enumerate_by_size"][0] == 0
    assert layers["heatseries.dominating_series"][0] > 0


def test_runner_fails_without_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "montecarlo",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_metric_names_and_units_match_the_benchmark_spec():
    import json
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layer = spans.Recorder().metrics(1.0, 1.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_, unit) in layer.items()}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_host_speed_scales_by_the_nearest_kernel_samples():
    import hostspeed
    speed = hostspeed.Speed()
    speed.at = [0.0, 0.1, 10.0]
    speed.took = [1.0, 3.0, 5.0]
    assert speed.scale(0.05, 0.06) == hostspeed.REF_S / 2.0
    # no sample within the window: the nearest ones on either side
    assert speed.scale(5.0, 5.2) == hostspeed.REF_S / 4.0
