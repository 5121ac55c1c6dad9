"""Built-in verification suite.

Twelve independent cross-checks tie the tabulated constants, closed forms,
and bounds to brute-force or Monte Carlo oracles.  ``run_all`` executes them
in order and reports one result per check; the command-line ``verify-all``
verb prints them and exits non-zero when any check fails.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

import numpy as np

from . import cutoff as _cutoff
from . import moments as _moments
from . import sampler as _sampler
from .errors import DegenerateAlphabet, InvalidRank
from .heatseries import (_fold, dominating_series, per_term_bound_sweep,
                         per_term_exceeds, series_terms, t_zero)
from .partitions import Weight, enumerate_by_size
from .repchar import dimension, verify_square_identity
from .spaces import (_TABLE, Family, SpaceDescriptor, describe, indexing_set,
                     minimal_weight)

__all__ = ["CheckResult", "CHECK_NAMES", "run_all", "run_check"]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one verification check."""

    name: str
    passed: bool
    detail: dict
    elapsed: float


# -- 1: special-unitary dimensions against tableau counting ----------------


def _tableau_count(shape: tuple[int, ...], n: int) -> int:
    """Number of semistandard fillings with entries in 1..n: row-weakly and
    column-strictly increasing."""
    if not shape:
        return 1

    def rows(above: tuple[int, ...], length: int) -> Iterable[tuple[int, ...]]:
        def fill(pos: int, prev: int) -> Iterable[tuple[int, ...]]:
            if pos == length:
                yield ()
                return
            lo = max(prev, above[pos] + 1 if pos < len(above) else 1)
            for v in range(lo, n + 1):
                for rest in fill(pos + 1, v):
                    yield (v,) + rest

        return fill(0, 1)

    def count(row_idx: int, above: tuple[int, ...]) -> int:
        if row_idx == len(shape):
            return 1
        return sum(count(row_idx + 1, row)
                   for row in rows(above, shape[row_idx]))

    return count(0, (0,) * shape[0])


def _check_su_dimensions() -> tuple[bool, dict]:
    checked = 0
    for n in range(2, 6):
        desc = describe("SU", n)
        idx = indexing_set(desc)
        for weight in enumerate_by_size(idx, 6):
            shape = tuple(int(p) for p in weight.parts if p)
            want = _tableau_count(shape, n)
            got = dimension(desc, weight)
            if got != want:
                return False, {"n": n, "shape": list(shape),
                               "dimension": str(got), "tableaux": want}
            checked += 1
    return True, {"labels_checked": checked}


# -- 2: symplectic one-column dimensions are Catalan numbers ---------------


def _check_catalan() -> tuple[bool, dict]:
    values = {}
    for n in range(3, 11):
        desc = describe("USp", n)
        idx = indexing_set(desc)
        got = dimension(desc, Weight.of((1,) * n, idx.kind))
        want = math.comb(2 * (n + 1), n + 1) // (n + 2)
        values[n] = int(got)
        if got != want:
            return False, {"n": n, "dimension": str(got), "catalan": want}
    return True, {"dimensions": values}


# -- 3: tabulated minimal weights against brute-force argmin ---------------


def _check_minimal_weights() -> tuple[bool, dict]:
    cases = []
    for family in ("SO", "SU", "USp"):
        n0 = _TABLE[Family(family)].n0
        cases += [(family, n0), (family, n0 + 3)]
    for family, n in cases:
        desc = describe(family, n)
        weight, a_min, b_min = minimal_weight(desc)
        terms = series_terms(desc, 6)
        brute_b = min(term.b_exp for term in terms)
        argmins = [term for term in terms if term.b_exp == brute_b]
        if brute_b != b_min or weight not in [t.weight for t in argmins]:
            return False, {"family": family, "n": n,
                           "table_weight": str(weight), "table_b": str(b_min),
                           "brute_b": str(brute_b),
                           "brute_argmin": [str(t.weight) for t in argmins]}
        for term in argmins:
            if term.a_coeff != _fold(desc) * a_min:
                return False, {"family": family, "n": n,
                               "series_coeff": str(term.a_coeff),
                               "table_a": str(a_min)}
    return True, {"cases": [f"{f}({n})" for f, n in cases]}


# -- 4: per-term bounds at the cut-off time --------------------------------


def _sweep_clause(cases: list[SpaceDescriptor], bound: Fraction,
                  integer_only: bool) -> dict:
    worst = -math.inf
    worst_desc = worst_weight = None
    for desc in cases:
        sweep = per_term_bound_sweep(desc, size_cap=40)
        value = sweep.max_integer if integer_only else sweep.max_value
        arg = sweep.argmax_integer if integer_only else sweep.argmax
        if value > worst:
            worst, worst_desc, worst_weight = value, desc, arg
    exceeded = per_term_exceeds(worst_desc, worst_weight, bound)
    return {"bound": str(bound), "max": worst, "at": str(worst_desc),
            "argmax": str(worst_weight), "holds": not exceeded}


def per_term_clauses() -> dict[str, dict]:
    """The four per-term clauses, reported individually."""
    usp = [describe("USp", n) for n in range(3, 13)]
    so_odd = [describe("SO", 2 * n + 1) for n in range(5, 13)]
    so_even = [describe("SO", 2 * n) for n in range(5, 13)]
    su = [describe("SU", n) for n in range(2, 13)]
    clauses = {
        "usp-14/3": _sweep_clause(usp, Fraction(14, 3), False),
        "usp-refined-8/3": _sweep_clause(usp, Fraction(8, 3), False),
        "so-odd-integer-11/10": _sweep_clause(so_odd, Fraction(11, 10), True),
        "so-even-integer-4/3": _sweep_clause(so_even, Fraction(4, 3), True),
        "su-3/2": _sweep_clause(su, Fraction(3, 2), False),
    }
    refined = clauses["usp-refined-8/3"]
    refined["argmax_is_2_1"] = refined["argmax"].startswith("2,1,0")
    refined["holds"] = refined["holds"] and refined["argmax_is_2_1"]
    return clauses


def _check_per_term_bounds() -> tuple[bool, dict]:
    clauses = per_term_clauses()
    return all(c["holds"] for c in clauses.values()), clauses


# -- 5: dominating-series chains -------------------------------------------


def _series_cases() -> list[SpaceDescriptor]:
    out = []
    for family in Family:
        n0 = _TABLE[family].n0
        for n in (n0, n0 + 3, n0 + 6):
            q = n // 2 if family.value.startswith("Gr") else None
            out.append(describe(family, n, q))
    return out


def _series_target(desc: SpaceDescriptor, eps: float) -> float:
    return (4.0 * desc.C_upper ** 2
            / float(desc.param) ** (desc.gamma_a * eps / 2))


def _check_series_chains() -> tuple[bool, dict]:
    worst_ratio, worst_case = 0.0, None
    count = 0
    for desc in _series_cases():
        for eps in (0.5, 1.0):
            t = (1.0 + eps) * t_zero(desc)
            report = dominating_series(desc, t)
            target = _series_target(desc, eps)
            if not math.isfinite(report.tail_bound):
                return False, {"case": str(desc), "eps": eps,
                               "error": "no tail certificate"}
            ratio = report.total / target
            count += 1
            if ratio > worst_ratio:
                worst_ratio, worst_case = ratio, (str(desc), eps)
            if ratio > 1.0:
                return False, {"case": str(desc), "eps": eps,
                               "total": report.total, "target": target}
    return True, {"cases": count, "worst_ratio": worst_ratio,
                  "worst_case": list(worst_case)}


# -- 6: closed-form moments against the moment engine ----------------------


def _check_moment_forms() -> tuple[bool, dict]:
    worst, worst_case = 0.0, None
    compared = 0
    for algebra in ("so", "su", "usp"):
        ranks = range(4, 7) if algebra == "so" else range(3, 7)
        for n in (*ranks, 16, 40, 100):
            for name in _moments.closed_form_names(algebra):
                try:
                    _moments.pattern_monomials(algebra, n, name)
                except InvalidRank:
                    continue  # the pattern's indices do not fit at rank n
                for t in (0.1, 1.0, 3.0):
                    closed = _moments.closed_form_value(algebra, n, name, t)
                    value = _moments.generator_moment(algebra, n, name, t)
                    dev = abs(value - closed)
                    compared += 1
                    if dev > worst:
                        worst, worst_case = dev, [algebra, n, name, t]
                    if dev > 1e-9:
                        return False, {"case": [algebra, n, name, t],
                                       "closed_form": closed,
                                       "engine": repr(value),
                                       "deviation": dev}
    return True, {"compared": compared, "worst_deviation": worst,
                  "worst_case": worst_case}


# -- 7: eigen-structure tables ---------------------------------------------


def _check_eigen_tables() -> tuple[bool, dict]:
    ranks = (4, 5, 16, 40, 100)
    cases = ([("so", n, k, 0) for k in (2, 4) for n in ranks]
             + [("su", n, k, k) for k in (1, 2) for n in ranks]
             + [("usp", n, 2, 0) for n in ranks]
             + [("usp", n, 4, 0) for n in (3, 4, 16, 40, 100)])
    summaries = []
    for algebra, n, k, l in cases:
        report = _moments.verify_eigentable(algebra, n, k, l)
        label = f"{algebra} n={n} k={k} l={l}"
        if not report.verified:  # a residual past tolerance or a count off
            return False, {"case": label, "dims_match": report.dims_match,
                           "failures": [
                               {"eigenvalue": str(e.eigenvalue),
                                "claimed": e.claimed_mult,
                                "computed": e.computed_mult,
                                "residual": e.max_residual}
                               for e in report.entries if not e.verified]}
        summaries.append({"case": label, "distinct": len(report.entries),
                          "max_residual": max(e.max_residual
                                              for e in report.entries)})
    return True, {"tables": summaries}


# -- 8: squared zonal functions, series vs moment engine -------------------


_ZONAL_CASES = [("GrR", (10, 5), (13, 6)), ("GrC", (2, 1), (5, 2)),
                ("GrH", (3, 1), (6, 3)), ("SO2n_Un", (10, None), (13, None)),
                ("SUn_SOn", (2, None), (5, None)),
                ("SU2n_USpn", (2, None), (5, None)),
                ("USpn_Un", (3, None), (6, None))]


def _check_zonal_squares() -> tuple[bool, dict]:
    worst, worst_case = 0.0, None
    for family, *pairs in _ZONAL_CASES:
        for n, q in pairs:
            desc = describe(family, n, q)
            expansion = _moments.zonal_square_expansion(desc)
            if sum(expansion.values()) != 1:
                return False, {"case": str(desc), "error": "sum != 1"}
            lam, a_min, _ = minimal_weight(desc)
            zero = [w for w in expansion if w.is_zero]
            if len(zero) != 1 or expansion[zero[0]] != Fraction(1) / a_min:
                degenerate = desc.family.name in ("GrC", "GrH") and n == 2
                if not degenerate:
                    return False, {"case": str(desc),
                                   "error": "constant term != 1/dimension"}
            for t in (0.2, 1.0, 2.0):
                series = _cutoff.zonal_square_series(desc, t)
                engine = _cutoff.zonal_square_via_moments(desc, t)
                dev = abs(series - engine)
                if dev > worst:
                    worst, worst_case = dev, [str(desc), t]
                if dev > 1e-9:
                    return False, {"case": str(desc), "t": t,
                                   "series": series, "engine": engine}
    return True, {"worst_deviation": worst, "worst_case": worst_case}


# -- 9: character square identities on random alphabets --------------------


def _is_regular(char_type: str, values: np.ndarray, margin: float) -> bool:
    extended = list(values)
    if char_type != "A":
        extended += [z.conjugate() for z in values]
    if char_type == "B":
        extended.append(1.0 + 0.0j)
    for i, a in enumerate(extended):
        for b in extended[i + 1:]:
            if abs(a - b) < margin:
                return False
    return True


def _check_square_identities() -> tuple[bool, dict]:
    rng = np.random.default_rng(20260823)
    worst = {"A": 0.0, "B": 0.0, "C": 0.0, "D": 0.0}
    for char_type in ("A", "B", "C", "D"):
        done = 0
        while done < 100:
            n = int(rng.integers(2, 7))
            thetas = rng.uniform(0.15, math.pi - 0.15, size=n)
            values = np.exp(1j * thetas)
            if char_type == "A":
                values[-1] = 1.0 / np.prod(values[:-1])
            if not _is_regular(char_type, values, 0.2):
                continue  # redraw
            try:
                residual = verify_square_identity(char_type, n, list(values))
            except DegenerateAlphabet:
                continue  # redraw
            worst[char_type] = max(worst[char_type], residual)
            if residual > 1e-10:
                return False, {"type": char_type, "n": n,
                               "residual": residual}
            done += 1
    return True, {"worst_residuals": worst}


# -- 10: variance caps over the pre-cut-off window -------------------------


def _variance_cases() -> list[SpaceDescriptor]:
    out = []
    for family in Family:
        n0 = _TABLE[family].n0
        for n in (n0, n0 + 5):
            q = n // 2 if family.value.startswith("Gr") else None
            out.append(describe(family, n, q))
    return out


def _check_variance_windows() -> tuple[bool, dict]:
    worst_margin, worst_case = math.inf, None
    for desc in _variance_cases():
        lo, hi = _cutoff.certified_window(desc)
        for t in np.linspace(lo, hi, 50):
            _, var = _cutoff.mean_variance(desc, float(t))
            cap = _cutoff.variance_cap(desc, float(t))
            margin = cap - var
            if margin < worst_margin:
                worst_margin, worst_case = margin, [str(desc), float(t)]
            if var > cap + 1e-9:
                return False, {"case": str(desc), "t": float(t),
                               "variance": var, "cap": cap}
    return True, {"smallest_margin": worst_margin,
                  "at": worst_case}


# -- 11: Monte Carlo concordance -------------------------------------------


def _check_monte_carlo(threads: int) -> tuple[bool, dict]:
    checks = []
    config = _sampler.SimulationConfig(paths=20_000, seed=2026,
                                       threads=threads)

    su5 = describe("SU", 5)
    est = _sampler.estimate(su5, "trace", 1.0, config)
    target = 5.0 * math.exp(-12.0 / 25.0)
    checks.append(("su5-heat-trace", est, target))

    est = _sampler.estimate(su5, "abs_trace_sq", None, config)
    checks.append(("su5-uniform-trace-square", est, 1.0))

    so6 = describe("SO", 6)
    est = _sampler.estimate(so6, "entry_sq", 1.0, config)
    checks.append(("so6-entry-square",
                   est, _moments.closed_form_value("so", 6, "ii^2", 1.0)))

    detail = {}
    passed = True
    for name, est, target in checks:
        deviation = abs(complex(est.mean) - target)
        ok = deviation <= 4.0 * est.std_error
        passed = passed and ok
        detail[name] = {"estimate": repr(est.mean), "target": target,
                        "std_error": est.std_error,
                        "deviation_in_se": deviation / est.std_error,
                        "holds": ok}
    return passed, detail


# -- 12: distance profile for the orthogonal family ------------------------


def _check_profiles() -> tuple[bool, dict]:
    detail = {}
    for n in (10, 20):
        desc = describe("SO", n)
        log_n = math.log(n)
        t_low, t_high = 1.6 * log_n, 4.0 * log_n
        grid = np.linspace(t_low, t_high, 30)
        points = _cutoff.profile(desc, grid)
        uppers = [p.upper for p in points]
        monotone = all(a >= b - 1e-12 for a, b in zip(uppers, uppers[1:]))
        # the paper's bounds at the grid's ends: eps = 0.2 and eps = 1
        floor = 1.0 - desc.c_lower / n ** (desc.gamma_b * 0.2)
        ceiling = desc.C_upper / math.sqrt(n ** (desc.gamma_a * 1.0 / 2))
        lower_ok = points[0].lower >= floor - 1e-12
        upper_ok = points[-1].upper <= ceiling + 1e-12
        detail[f"SO({n})"] = {
            "lower_at_early_time": points[0].lower,
            "lower_floor": floor,
            "upper_at_late_time": points[-1].upper,
            "upper_ceiling": ceiling,
            "upper_nonincreasing": monotone,
        }
        if not (monotone and lower_ok and upper_ok):
            return False, detail
    return True, detail


# -- driver ----------------------------------------------------------------


_CHECKS: list[tuple[str, Callable[..., tuple[bool, dict]]]] = [
    ("su-dimensions-vs-tableaux", _check_su_dimensions),
    ("catalan-symplectic", _check_catalan),
    ("minimal-weight-argmin", _check_minimal_weights),
    ("per-term-bounds", _check_per_term_bounds),
    ("series-chains", _check_series_chains),
    ("moment-generator-vs-closed-forms", _check_moment_forms),
    ("eigen-tables", _check_eigen_tables),
    ("zonal-square-consistency", _check_zonal_squares),
    ("character-square-identities", _check_square_identities),
    ("variance-window-bounds", _check_variance_windows),
    ("monte-carlo-concordance", _check_monte_carlo),
    ("profile-bounds", _check_profiles),
]

CHECK_NAMES = tuple(name for name, _ in _CHECKS)


def run_check(name: str, threads: int = 1) -> CheckResult:
    """Run a single named check."""
    for check_name, func in _CHECKS:
        if check_name == name:
            start = time.perf_counter()
            if name == "monte-carlo-concordance":
                passed, detail = func(threads)
            else:
                passed, detail = func()
            return CheckResult(name, passed, detail,
                               time.perf_counter() - start)
    raise ValueError(f"unknown check {name!r}")


def run_all(threads: int = 1) -> list[CheckResult]:
    """Run every check in order, returning one result per check."""
    # the sampler's config refuses a bad thread count before any check runs
    _sampler.SimulationConfig(threads=threads)
    return [run_check(name, threads=threads) for name in CHECK_NAMES]
