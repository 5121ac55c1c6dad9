"""Benchmark runner for cutofflab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``.
With ``--trace 0`` the run prints the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a traced run.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it describe the run and its environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# pinned before numpy is imported, here and in every child process
PINNED_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in PINNED_ENV:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE / "out"

MIN_OPS = 100        # p90 then has ten samples beyond it
SETUP_SAMPLES = 3    # fresh processes timed for setup_s
CHILD_TIMEOUT = 150  # seconds

END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms",
    "latency_p90_ms": "ms", "success_rate": "share", "peak_rss_mb": "MB",
    "bound_mean": "1", "certified_share": "share",
}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal role of child processes
    p.add_argument("--role", choices=("main", "setup", "plain"),
                   default="main", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _setup(workload: str, seed: int, started: float):
    """Import the library, generate the inputs and warm up.  Returns the
    plan, the workloads module and the set-up time since ``started``."""
    if not (SRC / "cutofflab" / "__init__.py").is_file():
        sys.exit(f"run.py: no cutofflab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads  # imports cutofflab
    if workload not in workloads.WORKLOADS:
        sys.exit(f"run.py: unknown workload {workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    plan = workloads.generate(workload, seed)
    workloads.prepare(plan)
    return plan, workloads, time.perf_counter() - started


def _setup_sample(setup_s: float) -> dict:
    """A set-up time, and the same scaled to the reference host speed by
    kernel samples taken right after it in the same process: a process's
    speed differs from its parent's."""
    import hostspeed
    took = statistics.median(hostspeed.burst())
    return {"setup_s": setup_s, "scaled": setup_s * hostspeed.REF_S / took}


def run_loop(plan, workloads, seconds: float, passes: int = 0,
             recorder=None) -> dict:
    """The timed closed loop.  Runs the op list once, or with
    ``plan.repeat`` until ``seconds`` have passed and at least MIN_OPS ops
    have run, or exactly ``passes`` passes when given.  The host-speed
    kernel runs between ops (see hostspeed.py).  Outputs are checked after
    the loop."""
    import hostspeed
    speed = hostspeed.Speed()
    spans, results = [], []
    done = 0
    speed.sample()
    start = time.perf_counter()
    while True:
        for op in plan.ops:
            if speed.due():
                speed.sample()
            if recorder is not None:
                recorder.op = len(results)
            t0 = time.perf_counter()
            try:
                out, err = workloads.execute(op), None
            except Exception as exc:  # counted as a failed op
                out, err = None, exc
            spans.append((t0, time.perf_counter()))
            if recorder is not None:
                recorder.op = -1
            results.append((op, out, err))
        done += 1
        if not plan.repeat:
            break
        if passes:
            if done >= passes:
                break
        elif (time.perf_counter() - start >= seconds
              and len(results) >= MIN_OPS):
            break
    wall = time.perf_counter() - start
    speed.sample()
    # each op's wall time, scaled to the reference host speed
    scaled = [(end - t0) * speed.scale(t0, end) for t0, end in spans]
    return {"latencies": [end - t0 for t0, end in spans], "scaled": scaled,
            "results": results, "wall": wall, "passes": done}


def evaluate(plan, workloads, loop: dict) -> dict:
    """Output checks, quality metrics and the digest of the op list's first
    pass."""
    failed = 0
    bounds = []
    digest = hashlib.sha256()
    for pos, (op, out, err) in enumerate(loop["results"]):
        ok = err is None
        if ok:
            try:
                ok = workloads.check(op, out)
            except Exception:
                ok = False
            bounds += workloads.certified_bounds(op, out)
        failed += not ok
        if pos < len(plan.ops):
            text = repr(err) if err is not None else workloads.output_repr(op, out)
            digest.update(text.encode() + b"\n")
    return {
        "attempted": len(loop["results"]),
        "failed": failed,
        "digest": digest.hexdigest(),
        # workloads without bound ops report the vacuous bound, fully certified
        "bound_mean": statistics.fmean(bounds) if bounds else 1.0,
        "certified_share": (sum(ub < 1.0 for ub in bounds) / len(bounds)
                            if bounds else 1.0),
    }


def _child(args, role: str) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--role", role]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"run.py: {role} child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _environment(cpu: int) -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "pinned_cpu": cpu,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            **{var: os.environ[var] for var in PINNED_ENV}}


def _timings(latencies, setup_times) -> dict:
    lat_ms = [1e3 * x for x in latencies]
    return {"setup_s": statistics.median(setup_times),
            "ops_per_s": 1e3 * len(lat_ms) / sum(lat_ms),
            "latency_p50_ms": statistics.median(lat_ms),
            "latency_p90_ms": statistics.quantiles(lat_ms, n=10)[8]}


def _end_to_end(loop, quality, setups) -> dict:
    values = {
        **_timings(loop["scaled"], [s["scaled"] for s in setups]),
        "success_rate": 1.0 - quality["failed"] / quality["attempted"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "bound_mean": quality["bound_mean"],
        "certified_share": quality["certified_share"],
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]}
            for k, v in values.items()}


def _pin_cpu() -> int:
    """Keep this process and its children on one CPU, the last one allowed:
    otherwise the scheduler moves the loop between CPUs that the host loads
    unequally."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def main(argv=None) -> int:
    started = time.perf_counter()
    args = _parse(argv)
    cpu = _pin_cpu()
    if not (args.seconds > 0 and math.isfinite(args.seconds)):
        sys.exit("run.py: --seconds must be a positive number")
    sys.path.insert(0, str(HERE))

    if args.role == "setup":
        _, _, setup_s = _setup(args.workload, args.seed, started)
        print(json.dumps(_setup_sample(setup_s)))
        return 0

    if args.role == "main" and args.trace == 1:
        # the untraced reference runs first, in a fresh process of its own
        plain = _child(args, "plain")
        plan, workloads, _ = _setup(args.workload, args.seed, started)
        import spans
        recorder = spans.Recorder()
        recorder.install()
        try:
            loop = run_loop(plan, workloads, args.seconds,
                            passes=plain["passes"], recorder=recorder)
        finally:
            recorder.uninstall()
        quality = evaluate(plan, workloads, loop)
        OUT_DIR.mkdir(exist_ok=True)
        recorder.write(OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
        layer = recorder.metrics(sum(loop["scaled"]), plain["scaled_s"])
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        info = {"workload": args.workload, "seed": args.seed, "trace": 1,
                "passes": loop["passes"], "traced_wall_s": loop["wall"],
                "untraced_wall_s": plain["wall"], "digest": quality["digest"]}
    else:
        plan, workloads, setup_s = _setup(args.workload, args.seed, started)
        if args.role == "main":
            setups = [_setup_sample(setup_s)] + [
                _child(args, "setup") for _ in range(SETUP_SAMPLES - 1)]
        loop = run_loop(plan, workloads, args.seconds)
        if args.role == "plain":
            print(json.dumps({"passes": loop["passes"], "wall": loop["wall"],
                              "scaled_s": sum(loop["scaled"])}))
            return 0
        quality = evaluate(plan, workloads, loop)
        metrics = _end_to_end(loop, quality, setups)
        info = {"workload": args.workload, "seed": args.seed, "trace": 0,
                "passes": loop["passes"], "loop_wall_s": loop["wall"],
                "latency_samples": len(loop["latencies"]),
                "unscaled": _timings(loop["latencies"],
                                     [s["setup_s"] for s in setups]),
                "setup_samples": setups, "digest": quality["digest"]}

    info["environment"] = _environment(cpu)
    print(json.dumps(info))
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": quality["failed"] == 0,
                      "attempted": quality["attempted"],
                      "failed": quality["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
