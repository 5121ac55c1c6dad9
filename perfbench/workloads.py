"""Seeded workloads for the cutofflab benchmark: op generation, set-up,
execution and output checks.

Every workload is a closed loop: one op at a time in one process, with the
sampler's ``threads`` left at its default of 1.  ``certify-cold`` runs its
op list once, because no descriptor may repeat.  The other workloads repeat
one identical round until the run's time is up, so each repetition does the
same work and the quality metrics do not depend on how many rounds fit into
a run.

Why these four workloads:

* ``certify-cold`` -- certified upper bounds and per-term sweeps on
  distinct descriptors, so no op can reuse a label table: label enumeration
  and table building dominate.  Array-native label tables must show their
  gain here.
* ``profile-warm`` -- full lower/upper profiles on a small fixed pool whose
  tables are built during set-up: enumeration is absent from the timed
  loop, and tail certificates, vectorised sums and lower bounds dominate.
  A change that speeds up cold builds but slows warm evaluation shows here.
* ``moments-mix`` -- named moments through the tensor generator and squared
  zonal functions through the moment engine.  The cycle touches more
  generator keys than the library's generator cache holds, so each cycle
  pays first-touch assembly once per key and reuses it for the other
  patterns of the key.  The heat-kernel series does no work here.
* ``montecarlo`` -- Monte Carlo estimates under the heat flow and under Haar
  measure: the only workload that drives the sampler.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import cutofflab
from cutofflab import cutoff as _cutoff
from cutofflab import moments as _moments

WORKLOADS = ("certify-cold", "profile-warm", "moments-mix", "montecarlo")

# tolerances of the output checks
SWEEP_RTOL = 1e-9     # sweep maximum against the exact dimension and rate
MOMENT_ATOL = 1e-9    # generator against closed form / zonal series
MC_SE_BAND = 5.0      # Monte Carlo estimate against the exact value
MONOTONE_RTOL = 1e-9  # slack for the upper bound along a profile


@dataclass
class Op:
    """One call into the library with its inputs and its reference value.
    ``family`` holds the algebra name for ``moment`` ops."""

    kind: str
    family: str
    n: int
    q: Optional[int] = None
    t: Optional[float] = None
    extra: tuple = ()
    ref: Any = None
    desc: Any = field(default=None, repr=False, compare=False)


@dataclass
class Plan:
    """The ops of one workload.  With ``repeat`` the list is a round that
    starts over until the run's time is up."""

    workload: str
    ops: list
    repeat: bool


# -- op generation ---------------------------------------------------------


def _binned(rng: random.Random, count: int, lo: float, hi: float) -> list:
    """One uniform draw from each of ``count`` equal bins of [lo, hi)."""
    width = (hi - lo) / count
    return [lo + width * (i + rng.random()) for i in range(count)]


def _distinct_from_bins(rng: random.Random, count: int, lo: int,
                        hi: int) -> list:
    """``count`` distinct integers from [lo, hi], one from each of ``count``
    equal bins, in increasing order."""
    edges = [math.ceil(lo + (hi + 1 - lo) * i / count) for i in range(count + 1)]
    return [rng.randrange(edges[i], edges[i + 1]) for i in range(count)]


# Group families: (family, ranks, kind), every rank whose cold build stays
# under about a second and a half.
_COLD_GROUPS = (("SO", (10, 11), "tv"), ("SO", (12, 13), "sweep"),
                ("SU", (2, 3), "tv"), ("SU", (4, 5), "sweep"),
                ("SU", (6, 7), "tv"), ("USp", (3, 4), "tv"),
                ("USp", (5, 6), "sweep"))
# Quotient families: (family, n range, q values, slots).  Slot j takes a
# seeded rank from the j-th of ``slots`` equal bins of the range; even slots
# are tv ops and odd slots sweeps, and q changes every four slots.  Bins are
# a few ranks wide, so an op costs about the same on every seed.  No range
# crosses a size-cap escalation for eps in COLD_EPS, where one descriptor's
# cost would jump tenfold.
_COLD_QUOTIENTS = (
    ("GrR", (10, 59), (1, 2, 3), 28),
    ("GrC", (6, 59), (1, 2, 3), 28),
    ("GrH", (6, 59), (1, 2, 3), 28),
    ("SO2n_Un", (10, 49), None, 28),
    ("SUn_SOn", (4, 43), None, 28),
    ("SU2n_USpn", (2, 41), None, 28),
    ("USpn_Un", (5, 44), None, 28),
)
COLD_EPS = (0.8, 1.0)  # t = (1 + eps) t0, beyond the cut-off
SWEEP_CAP = 40


def _cold_op(family: str, n: int, q: Optional[int], eps: Optional[float]) -> Op:
    """A tv op at t = (1 + eps) t0, or a sweep when ``eps`` is None."""
    if eps is None:
        return Op("sweep", family, n, q, extra=(SWEEP_CAP,))
    return Op("tv", family, n, q, extra=(eps,))


def _certify_cold(rng: random.Random) -> list:
    ops = []  # (position, family index, op)
    # eps from equal bins of COLD_EPS, in rank order within each family
    group_eps = iter(_binned(
        rng, sum(len(g[1]) for g in _COLD_GROUPS if g[2] == "tv"), *COLD_EPS))
    for f, (family, ranks, kind) in enumerate(_COLD_GROUPS):
        for i, n in enumerate(ranks):
            eps = next(group_eps) if kind == "tv" else None
            ops.append(((i + f / len(_COLD_GROUPS)) / len(ranks), -1,
                        _cold_op(family, n, None, eps)))
    for f, (family, (lo, hi), qs, slots) in enumerate(_COLD_QUOTIENTS):
        ranks = _distinct_from_bins(rng, slots, lo, hi)
        eps = iter(_binned(rng, slots // 2, *COLD_EPS))
        for j, n in enumerate(ranks):
            q = None if qs is None else qs[(j // 4) % len(qs)]
            # spread each family evenly over the list, so expensive ops and
            # the tables they leave in the cache fall at the same places on
            # every seed
            ops.append(((j + 0.5) / slots, f, _cold_op(
                family, n, q, next(eps) if j % 2 == 0 else None)))
    ops.sort(key=lambda item: item[:2])
    return [op for _, _, op in ops]


# profile-warm: a fixed pool, one descriptor per family, with tables small
# enough to build during set-up and few enough (desc, cap) pairs to stay in
# the library's 32-entry table cache through the loop.  The two SU-type
# quotients, whose tails run the DP recurrence, cost about four times the
# others; each gets a second grid, so a round has 12 ops: five cheap ones,
# SO and USp at about the median cost, SU, and the four SU-type ops.  p50
# then falls in the middle of the SO/USp class and p90 inside the SU-type
# class, not on a boundary between classes, where it would jump with noise.
_WARM_POOL = (("SO", 10, None, 1), ("SU", 6, None, 1), ("USp", 5, None, 1),
              ("GrR", 16, 4, 1), ("GrC", 14, 5, 1), ("GrH", 12, 3, 1),
              ("SO2n_Un", 12, None, 1), ("SUn_SOn", 10, None, 2),
              ("SU2n_USpn", 10, None, 2), ("USpn_Un", 9, None, 1))
PROFILE_POINTS = 41
PROFILE_SPAN = (0.25, 2.5)  # grid endpoints as multiples of t0
PROFILE_SHIFT = 0.05        # seeded shift of the lower endpoint, times t0


def _profile_warm(rng: random.Random) -> list:
    """Grids with seeded endpoints that keep t0 midway between two grid
    points: a point just above t0 would need an unbounded tail horizon, and
    its cost would swing with the seed."""
    ops = []
    for family, n, q, grids in _WARM_POOL:
        for _ in range(grids):
            lo = PROFILE_SPAN[0] + PROFILE_SHIFT * rng.random()
            step = (PROFILE_SPAN[1] - lo) / (PROFILE_POINTS - 1)
            step = (1.0 - lo) / (round((1.0 - lo) / step - 0.5) + 0.5)
            ops.append(Op("profile", family, n, q,
                          extra=(lo, lo + step * (PROFILE_POINTS - 1))))
    rng.shuffle(ops)
    return ops


# moments-mix: each (algebra, n) runs the first MOMENT_NAMES_PER_KEY
# tabulated patterns of degree two and of degree four valid at n; each
# degree is one generator key.  The quotient descriptors run the squared
# zonal function through the moment engine.  A cycle touches 24 keys, more
# than the 16 the library's generator cache holds, so every cycle assembles
# each key on its first op and reuses it for the others: about a quarter of
# the ops pay assembly.  The order is fixed, so which ops hit the cache is
# the same on every seed; the seed draws each op's time from its own bin.
_MOMENT_CONFIGS = (("so", 3), ("su", 2), ("usp", 2), ("so", 4), ("su", 3),
                   ("usp", 3), ("so", 5), ("su", 4), ("so", 6), ("su", 5),
                   ("so", 7), ("su", 6))
MOMENT_NAMES_PER_KEY = 4
_ZONAL_POOL = (("GrR", 5, 2), ("GrC", 4, 2), ("GrH", 3, 1),
               ("SO2n_Un", 3, None), ("SUn_SOn", 3, None),
               ("SU2n_USpn", 2, None), ("USpn_Un", 2, None))
MOMENT_T = (0.2, 1.5)


def _patterns_by_degree(algebra: str, n: int) -> list:
    """Tabulated pattern names valid at n, grouped by degree."""
    groups: dict[int, list] = {}
    for name in cutofflab.closed_form_names(algebra):
        try:
            terms = _moments.pattern_monomials(algebra, n, name)
        except cutofflab.InvalidRank:
            continue
        groups.setdefault(len(terms[0][1]), []).append(name)
    return [groups[d] for d in sorted(groups)]


def _moments_mix(rng: random.Random) -> list:
    ops = []
    for algebra, n in _MOMENT_CONFIGS:
        for names in _patterns_by_degree(algebra, n):
            names = names[:MOMENT_NAMES_PER_KEY]
            ts = _binned(rng, len(names), *MOMENT_T)
            ops += [Op("moment", algebra, n, t=t, extra=(name,))
                    for name, t in zip(names, ts)]
    ts = _binned(rng, len(_ZONAL_POOL), *MOMENT_T)
    ops += [Op("zonal", family, n, q, t=t)
            for (family, n, q), t in zip(_ZONAL_POOL, ts)]
    return ops


# montecarlo: heat-flow statistics on small groups and quotients, plus Haar
# |tr g|^2, with 200 paths per op.  Each heat-flow op has a fixed number of
# Euler steps and a seeded time inside that step count.  The step counts
# are set per descriptor so that the ops form three classes of similar
# cost: the eight Haar ops (cheapest), fourteen "mid" ops and the eight
# |omega|^2 ops at "long" step counts.  p50 falls in the middle of the mid
# class and p90 inside the long class.
#   (family, n, q, mid steps, long steps)
_MC_POOL = (("SO", 4, None, 6, 13), ("SU", 3, None, 4, 8),
            ("USp", 2, None, 2, 5), ("GrR", 5, 2, 6, 13),
            ("GrC", 4, 1, 3, 6), ("SO2n_Un", 2, None, 6, 12),
            ("SUn_SOn", 3, None, 4, 8), ("USpn_Un", 2, None, 2, 5))
_MC_GROUPS = ("SO", "SU", "USp")
MC_PATHS = 200


def _montecarlo(rng: random.Random) -> list:
    step = cutofflab.SimulationConfig().step_size
    ops = []
    for family, n, q, mid, long in _MC_POOL:
        jobs = [("omega", mid), ("abs_omega_sq", long)]
        if family in _MC_GROUPS:
            jobs += [("trace", mid), ("entry_sq", mid)]
        for stat, steps in jobs:
            t = step * (steps - 1 + rng.uniform(0.2, 0.9))
            ops.append(Op("estimate", family, n, q, t=t,
                          extra=(stat, rng.randrange(2 ** 32))))
        ops.append(Op("estimate", family, n, q, t=None,
                      extra=("abs_trace_sq", rng.randrange(2 ** 32))))
    rng.shuffle(ops)
    return ops


# workload -> (op generator, whether its op list repeats)
_GENERATORS: dict[str, tuple[Callable, bool]] = {
    "certify-cold": (_certify_cold, False),
    "profile-warm": (_profile_warm, True),
    "moments-mix": (_moments_mix, True),
    "montecarlo": (_montecarlo, True),
}


def generate(workload: str, seed: int) -> Plan:
    """The op list of a workload, from its seed alone."""
    build, repeat = _GENERATORS[workload]
    return Plan(workload, build(random.Random(f"{workload}:{seed}")), repeat)


# -- set-up ------------------------------------------------------------------


def _profile_grid(op: Op) -> list:
    lo, hi = op.extra
    t0 = cutofflab.t_zero(op.desc)
    step = (hi - lo) / (PROFILE_POINTS - 1)
    return [t0 * (lo + i * step) for i in range(PROFILE_POINTS)]


def _reference(op: Op) -> Any:
    """Exact value an op's output is checked against, computed untimed."""
    if op.kind == "moment":
        return cutofflab.closed_form_value(op.family, op.n, op.extra[0], op.t)
    if op.kind == "zonal":
        return cutofflab.zonal_square_series(op.desc, op.t)
    if op.kind == "estimate":
        stat = op.extra[0]
        if op.t is None:
            return 1.0  # E|tr g|^2 under Haar: the defining trace is irreducible
        if stat == "entry_sq":
            amb = op.desc.ambient_group()
            algebra = amb.family.value.lower()
            return complex(cutofflab.moment(algebra, amb.n, ((0, 0), (0, 0)), op.t))
        mean, var = cutofflab.mean_variance(op.desc, op.t)
        return mean if stat in ("trace", "omega") else var + mean * mean
    return None


def prepare(plan: Plan) -> None:
    """Set-up: descriptors, time grids and reference values.  Warm
    workloads also run their round once, which builds every table."""
    for op in plan.ops:
        if op.kind != "moment":
            op.desc = cutofflab.describe(op.family, op.n, op.q)
        if op.kind == "profile":
            op.extra = op.extra + (tuple(_profile_grid(op)),)
        op.ref = _reference(op)
    if plan.workload == "profile-warm":
        for op in plan.ops:
            execute(op)


# -- execution and checks --------------------------------------------------


def execute(op: Op) -> Any:
    """Run one op through the public API."""
    if op.kind == "tv":
        return cutofflab.tv_upper_bound(
            op.desc, (1.0 + op.extra[0]) * cutofflab.t_zero(op.desc))
    if op.kind == "sweep":
        return cutofflab.per_term_bound_sweep(op.desc, op.extra[0])
    if op.kind == "profile":
        return cutofflab.profile(op.desc, op.extra[2])
    if op.kind == "moment":
        return cutofflab.generator_moment(op.family, op.n, op.extra[0], op.t)
    if op.kind == "zonal":
        return _cutoff.zonal_square_via_moments(op.desc, op.t)
    if op.kind == "estimate":
        stat, sampler_seed = op.extra
        config = cutofflab.SimulationConfig(paths=MC_PATHS, seed=sampler_seed)
        return cutofflab.estimate(op.desc, stat, op.t, config)
    raise ValueError(f"unknown op kind {op.kind!r}")


def _unit_interval(x: float) -> bool:
    return math.isfinite(x) and 0.0 <= x <= 1.0


def _check_sweep(op: Op, out) -> bool:
    if not (math.isfinite(out.max_value) and out.max_value > 0.0):
        return False
    dim = cutofflab.dimension(op.desc, out.argmax)
    rate = cutofflab.casimir_exponent(op.desc, out.argmax)
    exact = math.exp(math.log(dim.numerator) - math.log(dim.denominator)
                     - float(rate) * math.log(op.desc.param))
    return abs(out.max_value - exact) <= SWEEP_RTOL * exact


def _check_profile(out) -> bool:
    prev = math.inf
    for point in out:
        if not (_unit_interval(point.lower) and _unit_interval(point.upper)):
            return False
        if point.lower > point.upper:
            return False
        if point.upper > prev * (1.0 + MONOTONE_RTOL):
            return False
        prev = point.upper
    return True


def check(op: Op, out: Any) -> bool:
    """Whether an op's output is correct.  Non-finite values fail."""
    if op.kind == "tv":
        return _unit_interval(out)
    if op.kind == "sweep":
        return _check_sweep(op, out)
    if op.kind == "profile":
        return len(out) == PROFILE_POINTS and _check_profile(out)
    if op.kind in ("moment", "zonal"):
        value = complex(out)
        return (math.isfinite(value.real) and math.isfinite(value.imag)
                and abs(value - op.ref) <= MOMENT_ATOL)
    if op.kind == "estimate":
        mean = complex(out.mean)
        if not (math.isfinite(mean.real) and math.isfinite(mean.imag)
                and math.isfinite(out.std_error)):
            return False
        return abs(mean - op.ref) <= MC_SE_BAND * out.std_error
    return False


def certified_bounds(op: Op, out: Any) -> list:
    """The upper bounds an op produced at times after the cut-off (every
    ``tv`` op is placed after it)."""
    if op.kind == "tv":
        return [out]
    if op.kind == "profile":
        t0 = cutofflab.t_zero(op.desc)
        return [p.upper for p in out if p.t > t0]
    return []


def output_repr(op: Op, out: Any) -> str:
    """Canonical text of an output, for the run digest."""
    if op.kind == "sweep":
        return repr((out.max_value, str(out.argmax), out.certified))
    if op.kind == "profile":
        return repr([(p.t, p.lower, p.upper) for p in out])
    if op.kind == "estimate":
        return repr((complex(out.mean), out.std_error))
    return repr(out)
