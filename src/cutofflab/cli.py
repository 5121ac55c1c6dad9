"""Command-line surface: one verb per library operation.

Every verb prints machine-readable JSON (default) or CSV to stdout or
``--out``; identical argv and seed produce byte-identical output.  Exit
codes: 0 success, 1 failed verification, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from . import cutoff as _cutoff
from . import moments as _moments
from . import sampler as _sampler
from . import verification as _verification
from .errors import CutoffLabError, TooLarge, require_time
from .heatseries import (density, dominating_series, eta_quotient,
                         per_term_bound_sweep, t_zero, tv_upper_bound)
from .partitions import MAX_LABELS, Weight
from .repchar import casimir_exponent
from .spaces import (FAMILY_NAMES, describe, indexing_set, matrix_side,
                     minimal_weight)

_EXIT_OK, _EXIT_FAILED, _EXIT_USAGE = 0, 1, 2


def _json_text(payload) -> str:
    # a non-finite float raises here instead of printing NaN or Infinity
    return json.dumps(payload, sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


def _csv_lines(header: Sequence[str], rows: Iterable[Sequence]) -> Iterator[str]:
    """The CSV text of the header and the rows, one line at a time."""
    def cell(v) -> str:
        if isinstance(v, float):
            return "%.12g" % v
        return str(v)

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    yield buffer.getvalue()
    for row in rows:
        buffer.seek(0)
        buffer.truncate()
        writer.writerow([cell(v) for v in row])
        yield buffer.getvalue()


def _write(args: argparse.Namespace, payload: dict,
           table: Optional[tuple] = None) -> None:
    """A verb's output: the payload as indented JSON, or, under ``--format
    csv``, the table's header and rows, or without a table the payload as
    one row under its sorted keys."""
    if getattr(args, "format", "json") == "json":
        _emit(_json_text(payload), args.out)
        return
    if table is None:
        keys = sorted(payload)
        table = (keys, [[payload[k] for k in keys]])
    _emit(_csv_lines(*table), args.out)


def _columns(records: Sequence[dict], *names: str) -> tuple:
    """A table of the named fields of each record, in order."""
    return names, [[record[name] for name in names] for record in records]


def _or_inf(value: float):
    """A float, or "inf" where it is not finite: a sum past the float range
    or a missing tail certificate."""
    return value if math.isfinite(value) else "inf"


def _emit(text: str | Iterable[str], out: Optional[str]) -> None:
    """Write the text, or its pieces as they are produced."""
    pieces = [text] if isinstance(text, str) else text
    if out is None:
        sys.stdout.writelines(pieces)
    else:
        with open(out, "w") as handle:
            handle.writelines(pieces)


def _space(args: argparse.Namespace):
    return describe(args.family, args.n, getattr(args, "q", None))


def _parse_weight(parser: argparse.ArgumentParser, desc, text: str) -> Weight:
    idx = indexing_set(desc)
    try:
        parts = [Fraction(tok) for tok in text.split(",")]
    except ValueError:
        parser.error(f"cannot parse weight {text!r}")
    if len(parts) > idx.length:
        parser.error(f"weight {text!r} has {len(parts)} parts, but the labels "
                     f"of {desc} have {idx.length}")
    return idx.label(parts)


def _parse_pattern(parser: argparse.ArgumentParser, text: str) -> list[tuple]:
    """``--pattern`` grammar: comma-separated ``row.col`` factors, 1-based,
    with a ``*`` suffix marking a conjugated factor."""
    items = []
    for token in text.split(","):
        token = token.strip()
        conj = token.endswith("*")
        if conj:
            token = token[:-1]
        try:
            row_text, col_text = token.split(".")
            row, col = int(row_text), int(col_text)
        except ValueError:
            parser.error(f"cannot parse pattern factor {token!r}")
        if row < 1 or col < 1:
            parser.error("pattern indices are 1-based")
        items.append((row - 1, col - 1, True) if conj else (row - 1, col - 1))
    if not items:
        parser.error("empty pattern")
    return items


def _add_space_flags(sub: argparse.ArgumentParser, families=None) -> None:
    sub.add_argument("--family", required=True,
                     choices=list(families or FAMILY_NAMES))
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--q", type=int, default=None)


def _add_output_flags(sub: argparse.ArgumentParser, with_csv: bool = False) -> None:
    """``--out`` on every verb; ``--format`` only on verbs that write CSV."""
    if with_csv:
        sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--out", default=None)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cutofflab",
        description="Cut-off profiles, heat-kernel series, exact moments, "
                    "and Monte Carlo estimates on compact groups and "
                    "symmetric spaces.")
    subs = parser.add_subparsers(dest="verb", required=True)

    sub = subs.add_parser("describe", help="table constants of one space")
    _add_space_flags(sub)
    _add_output_flags(sub, with_csv=True)

    sub = subs.add_parser("series", help="dominating series with tail bound")
    _add_space_flags(sub)
    sub.add_argument("--t", type=float, required=True)
    sub.add_argument("--cap", type=int, default=None)
    _add_output_flags(sub, with_csv=True)

    sub = subs.add_parser("tv-bound",
                          help="total-variation upper bound at a time")
    _add_space_flags(sub)
    sub.add_argument("--t", type=float, default=None)
    sub.add_argument("--eps", type=float, default=None,
                     help="evaluate at (1+eps) times the cut-off time")
    _add_output_flags(sub)

    sub = subs.add_parser("bound-sweep",
                          help="per-term maxima at the cut-off time")
    _add_space_flags(sub)
    sub.add_argument("--cap", type=int, default=40)
    _add_output_flags(sub)

    sub = subs.add_parser("eta", help="growth-step dimension quotients")
    _add_space_flags(sub)
    sub.add_argument("--l", type=int, default=1, help="width of the grown block")
    sub.add_argument("--cap", type=int, default=10,
                     help="number of growth steps")
    sub.add_argument("--base", default=None,
                     help="comma-separated base weight (default: zero)")
    sub.add_argument("--t", type=float, default=None,
                     help="time (default: cut-off time)")
    _add_output_flags(sub, with_csv=True)

    sub = subs.add_parser("density", help="heat-kernel density at a point")
    _add_space_flags(sub, families=list(FAMILY_NAMES) + ["circle"])
    sub.add_argument("--t", type=float, required=True)
    sub.add_argument("--theta", type=float, default=None)
    sub.add_argument("--alphabet", default=None,
                     help="comma-separated eigenvalue angles")
    sub.add_argument("--cap", type=int, default=40)
    _add_output_flags(sub)

    sub = subs.add_parser("moment", help="joint moment of matrix entries")
    _add_space_flags(sub, families=("SO", "SU", "USp"))
    sub.add_argument("--pattern", required=True,
                     help="e.g. '1.1,2.2' or '1.2,1.2*' (1-based, * = conjugate)")
    sub.add_argument("--t", type=float, required=True)
    _add_output_flags(sub)

    sub = subs.add_parser("eigentable",
                          help="verify a tabulated eigen-structure")
    _add_space_flags(sub, families=("SO", "SU", "USp"))
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--l", type=int, default=0)
    _add_output_flags(sub)

    sub = subs.add_parser("zonal-expansion",
                          help="squared minimal zonal function in the zonal basis")
    _add_space_flags(sub)
    _add_output_flags(sub, with_csv=True)

    sub = subs.add_parser("simulate", help="endpoint statistics of heat-flow paths")
    _add_space_flags(sub)
    sub.add_argument("--t", type=float, required=True)
    sub.add_argument("--paths", type=int, default=100)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--steps", type=int, default=None,
                     help="time steps (default: t / 0.05, rounded up)")
    _add_output_flags(sub, with_csv=True)

    sub = subs.add_parser("estimate", help="Monte Carlo estimate of a statistic")
    _add_space_flags(sub)
    sub.add_argument("--statistic", required=True,
                     choices=list(_sampler.STATISTICS))
    sub.add_argument("--t", type=float, default=None,
                     help="time (omit for the uniform measure)")
    sub.add_argument("--paths", type=int, default=1000)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--threshold", type=float, default=None)
    sub.add_argument("--threads", type=int, default=1)
    _add_output_flags(sub)

    sub = subs.add_parser("profile",
                          help="lower/upper distance profile on a time grid")
    _add_space_flags(sub)
    sub.add_argument("--t-min", type=float, default=None)
    sub.add_argument("--t-max", type=float, default=None)
    sub.add_argument("--points", type=int, default=41)
    _add_output_flags(sub, with_csv=True)

    sub = subs.add_parser("verify-all", help="run the full verification suite")
    sub.add_argument("--threads", type=int, default=1)
    _add_output_flags(sub, with_csv=True)

    return parser


# -- verb implementations --------------------------------------------------


def _run_describe(parser, args) -> int:
    desc = _space(args)
    weight, a_min, b_min = minimal_weight(desc)
    _write(args, {
        "family": desc.family.value,
        "n": desc.n,
        "q": desc.q,
        "beta": desc.beta,
        "alpha_cutoff": desc.alpha_cutoff,
        "n0": desc.n0,
        "c_lower": desc.c_lower,
        "C_upper": desc.C_upper,
        "gamma_b": desc.gamma_b,
        "gamma_a": desc.gamma_a,
        "drift_alpha": str(desc.drift_alpha),
        "is_group": desc.is_group,
        "param": desc.param,
        "matrix_size": matrix_side(desc.algebra, desc.param),
        "t_cutoff": t_zero(desc),
        "minimal_weight": str(weight),
        "a_min": str(a_min),
        "b_min": str(b_min),
    })
    return _EXIT_OK


def _run_series(parser, args) -> int:
    desc = _space(args)
    report = dominating_series(desc, args.t, size_cap=args.cap)
    _write(args, {"t": report.t, "partial_sum": _or_inf(report.partial_sum),
                  "tail_bound": _or_inf(report.tail_bound),
                  "terms_used": report.terms_used,
                  "size_cap": report.size_cap})
    return _EXIT_OK


def _run_tv_bound(parser, args) -> int:
    desc = _space(args)
    if (args.t is None) == (args.eps is None):
        parser.error("give exactly one of --t and --eps")
    t = args.t if args.t is not None else (1.0 + args.eps) * t_zero(desc)
    value = tv_upper_bound(desc, t)
    payload = {"space": str(desc), "t": t, "tv_upper": value,
               "certified": value < 1.0}
    if args.eps is not None:
        payload["eps"] = args.eps
    _write(args, payload)
    return _EXIT_OK


def _run_bound_sweep(parser, args) -> int:
    desc = _space(args)
    sweep = per_term_bound_sweep(desc, size_cap=args.cap)
    payload = {"space": str(desc), "max_value": sweep.max_value,
               "argmax_weight": str(sweep.argmax),
               "certified": sweep.certified,
               "max_integer": sweep.max_integer,
               "argmax_integer": str(sweep.argmax_integer),
               "size_cap": sweep.size_cap}
    if sweep.max_half is not None:  # the labels have half parts
        payload["max_half"] = sweep.max_half
        payload["argmax_half"] = str(sweep.argmax_half)
    _write(args, payload)
    return _EXIT_OK


def _run_eta(parser, args) -> int:
    desc = _space(args)
    idx = indexing_set(desc)
    if args.base is not None:
        base = _parse_weight(parser, desc, args.base)
    else:
        base = Weight.zero(idx.length, idx.kind)
    if args.cap < 1:
        parser.error("--cap must be >= 1")
    if args.cap > MAX_LABELS:
        raise TooLarge(f"--cap {args.cap} exceeds the limit {MAX_LABELS}")
    quotients = [{"k": k, "eta": eta_quotient(desc, base, args.l, k, t0=args.t)}
                 for k in range(1, args.cap + 1)]
    _write(args, {"space": str(desc), "base": str(base), "l": args.l,
                  "quotients": quotients},
           _columns(quotients, "k", "eta"))
    return _EXIT_OK


def _run_density(parser, args) -> int:
    desc = "circle" if args.family == "circle" else _space(args)
    if (args.theta is None) == (args.alphabet is None):
        parser.error("give exactly one of --theta and --alphabet")
    if args.theta is not None:
        point = {"theta": args.theta}
    else:
        try:
            angles = [float(tok) for tok in args.alphabet.split(",")]
        except ValueError:
            parser.error(f"cannot parse alphabet {args.alphabet!r}")
        if not all(math.isfinite(a) for a in angles):
            parser.error(f"alphabet angles must be finite: {args.alphabet!r}")
        point = {"alphabet": [complex(math.cos(a), math.sin(a))
                              for a in angles]}
    value = density(desc, point, args.t, size_cap=args.cap)
    _write(args, {"space": str(desc), "t": args.t, "density": value})
    return _EXIT_OK


def _run_moment(parser, args) -> int:
    desc = _space(args)
    pattern = _parse_pattern(parser, args.pattern)
    value = complex(_moments.moment(desc.algebra, args.n, pattern, args.t))
    _write(args, {"space": str(desc), "pattern": args.pattern, "t": args.t,
                  "value_re": value.real, "value_im": value.imag})
    return _EXIT_OK


def _run_eigentable(parser, args) -> int:
    desc = _space(args)
    report = _moments.verify_eigentable(desc.algebra, args.n, args.k, args.l)
    payload = {"algebra": report.algebra, "n": report.n, "k": report.k,
               "l": report.l, "dims_match": report.dims_match,
               "verified": report.verified,
               "entries": [{"eigenvalue": str(e.eigenvalue),
                            "claimed_mult": e.claimed_mult,
                            "computed_mult": e.computed_mult,
                            "max_residual": e.max_residual}
                           for e in report.entries]}
    if not report.verified:
        payload["failures"] = [
            {"claimed": e.claimed_mult, "computed": e.computed_mult,
             "eigenvalue": str(e.eigenvalue), "tolerance": e.tolerance,
             "residual": e.max_residual}
            for e in report.entries if not e.verified]
    _write(args, payload)
    return _EXIT_OK if report.verified else _EXIT_FAILED


def _run_zonal_expansion(parser, args) -> int:
    desc = _space(args)
    expansion = _moments.zonal_square_expansion(desc)
    terms = [{"weight": str(weight), "coefficient": str(expansion[weight]),
              "decay_rate": str(casimir_exponent(desc, weight))}
             for weight in sorted(expansion, key=lambda w: (w.size, w.parts2))]
    _write(args, {"space": str(desc), "terms": terms},
           _columns(terms, "weight", "coefficient", "decay_rate"))
    return _EXIT_OK


def _run_simulate(parser, args) -> int:
    desc = _space(args)
    step, limit = _sampler._MAX_STEP, _sampler._MAX_STEP_COUNT
    if args.steps is not None and args.steps < 1:
        parser.error("--steps must be >= 1")
    if args.steps is not None and args.steps > limit:
        raise TooLarge(f"--steps {args.steps} exceeds the limit {limit}")
    require_time(args.t, allow_zero=True)
    # at t = 0 every path stays at the identity, whatever the steps
    if args.steps and args.t > 0:
        # the sampler runs ceil(t / step) steps, at least ceil(t / largest)
        ratio = args.t / step
        if ratio > args.steps:
            raise ValueError(
                f"--steps {args.steps} is too few for --t {args.t!r}: the "
                f"step size must lie in (0, {step}], so " + (
                    f"--t needs more than {limit} steps, the limit"
                    if ratio > limit else
                    f"--steps must be at least {math.ceil(ratio)}"))
        step = min(args.t / args.steps, step)
        if not step:
            raise ValueError(f"--t {args.t!r} over --steps {args.steps} gives "
                             "a step that underflows to 0: take fewer steps")
        # one step too many where t / steps rounds down: step up to the first
        # size that gives the count asked, at most the largest
        while math.ceil(args.t / step) > args.steps:
            step = math.nextafter(step, math.inf)
    config = _sampler.SimulationConfig(paths=args.paths, seed=args.seed,
                                       step_size=step)
    # chunk by chunk, as in estimate: memory grows with one value per path
    values = _sampler._values_for_range(desc, "omega", args.t, config,
                                        0, args.paths, None)
    if args.format == "csv":
        _emit(_csv_lines(("path", "omega_re", "omega_im"), _omega_rows(values)),
              args.out)
    else:
        _emit(_omega_json(desc, args, values), args.out)
    return _EXIT_OK


def _omega_rows(values: np.ndarray) -> Iterator[tuple[int, float, float]]:
    """(path, re, im) for each value, converted a slice at a time."""
    step = 1 << 16
    for lo in range(0, len(values), step):
        part = values[lo:lo + step]
        yield from zip(range(lo, lo + len(part)), part.real.tolist(),
                       part.imag.tolist())


def _omega_json(desc, args: argparse.Namespace,
                values: np.ndarray) -> Iterator[str]:
    """The text of _json_text({"space", "t", "seed", "omega": [{"path",
    "re", "im"}, ...]}), one path at a time: the frame is that of a
    one-element list, and each element is written as json.dumps writes it
    at that depth (keys sorted, floats by repr)."""
    if not np.isfinite(values).all():
        raise ValueError("Out of range float values are not JSON compliant")
    frame = _json_text({"space": str(desc), "t": args.t, "seed": args.seed,
                        "omega": [None]})
    head, tail = frame.split("\n    null\n")
    yield head + "\n"
    entry = '    {\n      "im": %r,\n      "path": %d,\n      "re": %r\n    }'
    for path, re, im in _omega_rows(values):
        yield ("" if path == 0 else ",\n") + entry % (im, path, re)
    yield "\n" + tail


def _run_estimate(parser, args) -> int:
    desc = _space(args)
    if args.paths < 2:
        parser.error("--paths must be >= 2: one path has no standard error")
    config = _sampler.SimulationConfig(paths=args.paths, seed=args.seed,
                                       threads=args.threads)
    estimate = _sampler.estimate(desc, args.statistic, args.t, config,
                                 threshold=args.threshold)
    mean = estimate.mean
    _write(args, {"space": str(desc), "seed": args.seed,
                  "statistic": estimate.statistic, "t": estimate.t,
                  "mean": ({"re": mean.real, "im": mean.imag}
                           if isinstance(mean, complex) else mean),
                  "std_error": estimate.std_error,
                  "n_samples": estimate.n_samples})
    return _EXIT_OK


def _run_profile(parser, args) -> int:
    desc = _space(args)
    t0 = t_zero(desc)
    t_min = args.t_min if args.t_min is not None else 0.25 * t0
    t_max = args.t_max if args.t_max is not None else 2.5 * t0
    if not (math.isfinite(t_max) and 0.0 < t_min < t_max):
        parser.error("need finite 0 < --t-min < --t-max")
    if args.points < 2:
        parser.error("--points must be >= 2")
    if args.points > MAX_LABELS:
        raise TooLarge(f"--points {args.points} exceeds the limit {MAX_LABELS}")
    grid = np.linspace(t_min, t_max, args.points)
    points = [dataclasses.asdict(p) for p in _cutoff.profile(desc, grid)]
    header = [f.name for f in dataclasses.fields(_cutoff.ProfilePoint)]
    _write(args, {"space": str(desc), "points": points},
           _columns(points, *header))
    return _EXIT_OK


def _run_verify_all(parser, args) -> int:
    checks = [{"name": r.name, "passed": r.passed, "detail": r.detail,
               "elapsed_seconds": round(r.elapsed, 3)}
              for r in _verification.run_all(threads=args.threads)]
    passed = all(c["passed"] for c in checks)
    _write(args, {"checks": checks, "all_passed": passed},
           (("check", "result", "seconds"),
            [(c["name"], "pass" if c["passed"] else "FAIL",
              c["elapsed_seconds"]) for c in checks]))
    return _EXIT_OK if passed else _EXIT_FAILED


_RUNNERS = {
    "describe": _run_describe,
    "series": _run_series,
    "tv-bound": _run_tv_bound,
    "bound-sweep": _run_bound_sweep,
    "eta": _run_eta,
    "density": _run_density,
    "moment": _run_moment,
    "eigentable": _run_eigentable,
    "zonal-expansion": _run_zonal_expansion,
    "simulate": _run_simulate,
    "estimate": _run_estimate,
    "profile": _run_profile,
    "verify-all": _run_verify_all,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        code = _RUNNERS[args.verb](parser, args)
        sys.stdout.flush()  # a closed reader shows here, not at exit
        return code
    except SystemExit as exit_:
        return int(exit_.code or 0)
    except BrokenPipeError:
        # the reader closed stdout: point it at the null device, so that the
        # interpreter's last flush of what is still buffered prints nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.stderr.write("error: stdout was closed before the output ended\n")
        return _EXIT_USAGE
    except (CutoffLabError, ValueError) as exc:
        # the library raises ValueError for out-of-domain arguments, and
        # _json_text for a non-finite value: both are domain errors
        sys.stderr.write(f"error: {exc}\n")
        return _EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
