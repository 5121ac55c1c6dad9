"""Record the benchmark's baseline and check that it is steady.

    python3 perfbench/baseline.py

Runs every workload on seeds 1-10, twice over as two sets, then one traced
run per workload and one ``verify-all`` pass, whose per-check ``elapsed`` is
informational.  For every end-to-end metric it checks the two sets against
the metric's bound in BENCHMARK.json: each set's spread, the distance
between the first and third quartiles as a share of the median, must stay
within the bound (setup_s is exempt), and the second set's median must not
be worse than the first's by more than the bound.  Writes
perfbench/baseline.json and exits non-zero when a check fails.  Runs are
made one after another, never side by side.
"""

from __future__ import annotations

import csv
import io
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("certify-cold", "profile-warm", "moments-mix", "montecarlo")
SEEDS = tuple(range(1, 11))
SETS = 2

# (workloads, metric, expected, what the layer table predicts).  "== 0"
# means the layer does no work in the timed loop of those workloads.
PREDICTIONS = (
    (("profile-warm", "moments-mix", "montecarlo"),
     "partitions.enumerate_by_size.calls", "== 0",
     "no label enumeration outside certify-cold's timed loop"),
    (("moments-mix", "montecarlo"), "heatseries.dominating_series.calls",
     "== 0", "heatseries does no work in moments-mix and montecarlo"),
    (("certify-cold", "profile-warm", "montecarlo"), "moments.moment.calls",
     "== 0", "the moment engine runs only in moments-mix"),
    (("certify-cold", "profile-warm", "moments-mix"),
     "sampler.simulate_endpoints.calls", "== 0",
     "the sampler runs only in montecarlo"),
    (("certify-cold", "profile-warm", "moments-mix"),
     "sampler.haar_sample.calls", "== 0",
     "the sampler runs only in montecarlo"),
    (("certify-cold",), "partitions.enumerate_by_size.calls", "> 0",
     "every certify-cold op builds its own label table"),
    (("certify-cold", "profile-warm"), "repchar.dimension.calls", "> 0",
     "exact dimensions run in the sweep tests and the lower bounds"),
    (("profile-warm",), "cutoff.lower_bound.calls", "> 0",
     "profiles evaluate the Chebyshev lower bound"),
    (("moments-mix",), "moments.moment_generator.calls", "> 0",
     "moments-mix assembles generators on first touch"),
    (("moments-mix",), "moments.generator_reuse", "> 0",
     "moments-mix reuses assembled generators"),
    (("montecarlo",), "cutoff.omega_value.calls", "> 0",
     "montecarlo evaluates the observable per path"),
)


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        sys.exit(f"baseline.py: {' '.join(cmd)} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return {"info": json.loads(lines[0]), "result": json.loads(lines[-1])}


def _summary(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def _holds(value: float, expected: str) -> bool:
    op, ref = expected.split()
    return value == float(ref) if op == "==" else value > float(ref)


def _verify_all() -> list:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "cutofflab.cli", "verify-all", "--threads", "1",
         "--format", "csv"], cwd=ROOT, env=env, capture_output=True,
        text=True, timeout=1800)
    rows = csv.DictReader(io.StringIO(proc.stdout))
    return [{"check": r["check"], "result": r["result"],
             "elapsed_s": float(r["seconds"])} for r in rows]


def _set(seconds: int) -> dict:
    """Every workload on every seed: run counts, metric summaries and the
    environment of the set's first run."""
    out = {"workloads": {}}
    for workload in WORKLOADS:
        started = time.time()
        runs = [_run(workload, seed, seconds, 0) for seed in SEEDS]
        out.setdefault("environment", runs[0]["info"]["environment"])
        runs = [r["result"] for r in runs]
        out["workloads"][workload] = {
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "end_to_end": {
                name: {"unit": m["unit"],
                       **_summary([r["metrics"][name]["value"] for r in runs])}
                for name, m in runs[0]["metrics"].items()},
        }
        print(f"{workload}: {len(runs)} runs in {time.time() - started:.0f} s",
              file=sys.stderr)
    return out


def _agreement(spec: dict, sets: list) -> dict:
    """Each end-to-end metric's spreads and cross-set median change against
    its bound.  A change is signed so that positive is worse."""
    out = {}
    for workload in WORKLOADS:
        rows = {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first, second = (s["workloads"][workload]["end_to_end"][name]
                             for s in sets)
            sign = 1.0 if metric["better"] == "lower" else -1.0
            change = sign * (second["median"] - first["median"]) / first["median"]
            spreads = [first["spread"], second["spread"]]
            held = change <= bound and (
                name == "setup_s" or max(spreads) <= bound)
            rows[name] = {"bound": bound, "spreads": spreads,
                          "median_change": change, "held": held}
        out[workload] = rows
    return out


def _traced(seconds: int) -> dict:
    out = {}
    for workload in WORKLOADS:
        traced = _run(workload, SEEDS[0], seconds, 1)
        layers = {k: v["value"] for k, v in traced["result"]["metrics"].items()}
        out[workload] = {
            "seed": SEEDS[0],
            "failed": traced["result"]["failed"],
            "per_layer": traced["result"]["metrics"],
            "predictions": [
                {"metric": metric, "expected": expected, "why": why,
                 "value": layers[metric],
                 "held": _holds(layers[metric], expected)}
                for wls, metric, expected, why in PREDICTIONS
                if workload in wls],
        }
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    sets = [_set(seconds) for _ in range(SETS)]
    agreement = _agreement(spec, sets)
    held = all(row["held"] for rows in agreement.values()
               for row in rows.values())
    record = {
        "run_seconds": seconds, "seeds": list(SEEDS),
        "agreement_held": held, "agreement": agreement, "sets": sets,
        "traced": _traced(seconds),
        "verify_all_informational": _verify_all(),
    }
    (HERE / "baseline.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0 if held else 1


if __name__ == "__main__":
    sys.exit(main())
