"""Exact joint moments of matrix coefficients under the heat flow.

The expectation of a tensor power of the running matrix solves a linear ODE
whose generator is a scalar drift plus one Casimir term per pair of tensor
slots.  The generator commutes with simultaneous permutations of the indices
(of the quaternion blocks for usp), so the flow started at one basis tensor
stays in the span of the indicators of index patterns taken up to
relabelling the indices the start does not name.  That span has at most 102
patterns at degree four, whatever the rank.  ``moment`` exponentiates the
generator on it, and ``verify_eigentable`` reads the generator's whole
spectrum from the same orbit matrices through a trace formula; both need
numpy only.  The generator on the whole tensor space, ``moment_generator``,
is built from its definition, half the Casimir of the diagonal action; it
is kept for reference and needs scipy, imported where it is used.  The
module also records the closed-form moment formulas and the expansion of
squared basepoint-normalized zonal functions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from typing import (TYPE_CHECKING, Callable, ClassVar, Iterable, Mapping,
                    Sequence)

import numpy as np

from .errors import (
    InvalidRank,
    TooLarge,
    UnsupportedPattern,
    UnsupportedSpace,
    require_time,
)
from .partitions import Weight
from .spaces import (_TABLE, Family, SpaceDescriptor, drift_coefficient,
                     indexing_set, matrix_side)

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "MomentTensor",
    "EigenEntry",
    "EigenReport",
    "moment_generator",
    "moment",
    "verify_eigentable",
    "closed_form_names",
    "closed_form_value",
    "pattern_monomials",
    "generator_moment",
    "zonal_square_expansion",
]

_GROUPS = {"so": Family.SO, "su": Family.SU, "usp": Family.USp}
_MAX_TENSOR_DIM = 10_000_000


def _check_algebra(algebra: str, n: int) -> None:
    if algebra not in _GROUPS:
        raise ValueError(f"unknown algebra {algebra!r}")
    floor = _TABLE[_GROUPS[algebra]].min_n
    if n < floor:
        raise InvalidRank(f"{algebra}({n}): rank must be >= {floor}")


def _check_slots(algebra: str, n: int, k: int, l: int) -> None:
    _check_algebra(algebra, n)
    if k < 0 or l < 0 or k + l < 1:
        raise ValueError("need at least one tensor slot")
    if l > 0 and algebra != "su":
        raise ValueError("conjugated slots only make sense for complex entries")


def _quaternion_unit(unit: str, i: int, j: int, n: int) -> np.ndarray:
    """Complex 2n x 2n image of a quaternion unit times an elementary matrix."""
    out = np.zeros((2 * n, 2 * n), dtype=complex)
    r, c = 2 * i, 2 * j
    if unit == "1":
        out[r, c], out[r + 1, c + 1] = 1.0, 1.0
    elif unit == "i":
        out[r, c], out[r + 1, c + 1] = 1.0j, -1.0j
    elif unit == "j":
        out[r, c + 1], out[r + 1, c] = 1.0, -1.0
    elif unit == "k":
        out[r, c + 1], out[r + 1, c] = 1.0j, 1.0j
    else:  # pragma: no cover - internal misuse
        raise ValueError(unit)
    return out


def _orthonormal_basis(algebra: str, n: int) -> tuple[np.ndarray, ...]:
    """Anti-Hermitian basis, as dense matrices, whose tensor squares sum to
    the Casimir tensor."""
    out: list[np.ndarray] = []
    if algebra == "so":
        s = 1.0 / np.sqrt(n)
        for i in range(n):
            for j in range(i + 1, n):
                x = np.zeros((n, n))
                x[i, j], x[j, i] = s, -s
                out.append(x)
        return tuple(out)
    if algebra == "su":
        # traceless diagonal block: any factorization V V^T of the covariance
        # (1/n)(I - J/n) yields the same tensor square
        cov = (np.eye(n) - np.full((n, n), 1.0 / n)) / n
        vals, vecs = np.linalg.eigh(cov)
        for a in range(n):
            if vals[a] > 1e-12:
                out.append(np.diag(1j * vecs[:, a] * np.sqrt(vals[a])))
        s = 1.0 / np.sqrt(2 * n)
        for i in range(n):
            for j in range(i + 1, n):
                x = np.zeros((n, n), dtype=complex)
                x[i, j], x[j, i] = s, -s
                y = np.zeros((n, n), dtype=complex)
                y[i, j], y[j, i] = 1j * s, 1j * s
                out += [x, y]
        return tuple(out)
    sd = 1.0 / np.sqrt(2 * n)
    so = 1.0 / np.sqrt(4 * n)
    for i in range(n):
        for unit in ("i", "j", "k"):
            out.append(sd * _quaternion_unit(unit, i, i, n))
    for i in range(n):
        for j in range(i + 1, n):
            out.append(so * (_quaternion_unit("1", i, j, n)
                             - _quaternion_unit("1", j, i, n)))
            for unit in ("i", "j", "k"):
                out.append(so * (_quaternion_unit(unit, i, j, n)
                                 + _quaternion_unit(unit, j, i, n)))
    return tuple(out)


# -- the moment engine on orbit indicators ---------------------------------

# An orbit pattern holds one (block, offset) label per tensor slot.  Blocks
# >= 0 are the indices the start tensor names, numbered by first occurrence
# in it; blocks < 0 are fresh indices, numbered -1, -2, ... by first
# occurrence.  The offset is the position inside a quaternion block for usp
# and 0 otherwise.  A contraction K_ab pairs the offsets of two slots that
# share a block, with the sign of that pairing: K = |vec I><vec I| on so and
# su, K_J = |vec J><vec J| with J = (+) [[0, 1], [-1, 0]] on usp.
_PAIRINGS = {"so": {(0, 0): 1}, "su": {(0, 0): 1},
             "usp": {(0, 1): 1, (1, 0): -1}}
# n times the scale of a pair term: (K - P)/n on so(n), (K_J - P)/(2n) on
# usp(n), and on su(n) -P/n + I/n^2 within the plain or the conjugated slots
# and K/n - I/n^2 across them (the identity parts join the scalar drift)
_PAIR_SCALE = {"so": 1.0, "su": 1.0, "usp": 0.5}


@dataclass(frozen=True)
class _OrbitFlow:
    """The moment generator on the orbit indicators reachable from one start
    tensor: G 1_O = shift 1_O + sum over O' of (const + inverse/n)[O', O] 1_O'.

    The sum is exact at every rank once the orbits that need more fresh
    indices than the rank leaves (``fresh > n - named``), which are empty,
    are dropped.
    """

    rows: Mapping[tuple, int]  # orbit pattern -> row; the start is row 0
    named: int
    fresh: np.ndarray
    const: np.ndarray
    inverse: np.ndarray

    def spectrum(self, n: int) -> tuple[np.ndarray, ...]:
        """The rank-n spectral data (live, root, values, vectors): the rows
        of the orbits that are not empty at rank n, the square roots of
        their sizes, and the eigenvalues and orthonormal eigenvectors of the
        symmetrised generator on them (without the shift)."""
        room = n - self.named
        # orbit sizes (n - named)(n - named - 1)..., one factor per fresh
        # index: an orbit needing more fresh indices than n - named is empty
        falling = np.cumprod(np.maximum(room - np.arange(self.fresh.max()), 0.0))
        sizes = np.concatenate(([1.0], falling))[self.fresh]
        gen = self.const + self.inverse / n
        live = np.flatnonzero(sizes > 0.0)
        if len(live) < len(sizes):
            gen = gen[np.ix_(live, live)]
        root = np.sqrt(sizes[live])
        # D G is symmetric for the diagonal D of orbit sizes, as G is on the
        # tensor space, so D^1/2 G D^-1/2 is symmetric
        values, vectors = np.linalg.eigh(gen * root[:, None] / root[None, :])
        return live, root, values, vectors

    def entry(self, row: tuple, n: int, t: float, shift: float) -> float:
        """Coefficient of the row's orbit in exp(tG) applied to the start."""
        pos = self.rows.get(row)
        if pos is None:
            return 0.0
        live, root, values, vectors = self.spectrum(n)
        if len(live) < len(self.fresh):
            pos = int(np.searchsorted(live, pos))
        decay = np.exp(t * (values + shift))
        return float((vectors[pos] * decay) @ vectors[0] / root[pos])


def _relabel(labels: Iterable[tuple[int, int]]) -> tuple:
    """Number the fresh blocks -1, -2, ... by first occurrence."""
    fresh: dict[int, int] = {}
    return tuple((fresh.setdefault(b, -1 - len(fresh)) if b < 0 else b, off)
                 for b, off in labels)


@cache
def _orbit_flow(algebra: str, k: int, l: int, start: tuple) -> _OrbitFlow:
    """The generator on the orbits reachable from a start pattern of named
    blocks, for k plain and l conjugated slots (plain slots first)."""
    pairing = _PAIRINGS[algebra]
    scale = _PAIR_SCALE[algebra]
    named = 1 + max(b for b, _ in start)
    slots = k + l
    order = [start]
    rows = {start: 0}
    terms: dict[tuple[int, int], list[float]] = {}

    def add(target: tuple, source: int, const: float, inverse: float) -> None:
        row = rows.setdefault(target, len(order))
        if row == len(order):
            order.append(target)
        entry = terms.setdefault((row, source), [0.0, 0.0])
        entry[0] += const
        entry[1] += inverse

    for source, state in enumerate(order):  # order grows while it is read
        for a in range(slots):
            for b in range(a + 1, slots):
                mixed = (a < k) != (b < k)
                if algebra != "su" or not mixed:
                    swapped = list(state)
                    swapped[a], swapped[b] = state[b], state[a]
                    add(_relabel(swapped), source, 0.0, -scale)
                if algebra == "su" and not mixed:
                    continue
                (block, off_a), (other, off_b) = state[a], state[b]
                sign = pairing.get((off_a, off_b)) if block == other else None
                if sign is None:
                    continue
                rest = [state[s][0] for s in range(slots) if s not in (a, b)]
                fresh = sorted({x for x in rest if x < 0})
                if block >= 0 or block in rest:
                    const, inverse = 0.0, 1.0  # the shared index is fixed
                else:  # any of the n - named - len(fresh) unused indices
                    const, inverse = 1.0, -float(named + len(fresh))
                new = min(fresh, default=0) - 1
                for w in [*range(named), *fresh, new]:
                    for (out_a, out_b), out_sign in pairing.items():
                        spread = list(state)
                        spread[a], spread[b] = (w, out_a), (w, out_b)
                        c = scale * sign * out_sign
                        add(_relabel(spread), source, c * const, c * inverse)
    size = len(order)
    const = np.zeros((size, size))
    inverse = np.zeros((size, size))
    for (row, col), (c, i) in terms.items():
        const[row, col], inverse[row, col] = c, i
    fresh_counts = np.array([len({b for b, _ in s if b < 0}) for s in order])
    return _OrbitFlow(rows, named, fresh_counts, const, inverse)


def _orbit_labels(algebra: str, col: Sequence[int],
                  row: Sequence[int]) -> tuple[tuple, tuple]:
    """The start pattern of the column and the row's orbit relative to it."""
    step = 2 if algebra == "usp" else 1
    named: dict[int, int] = {}
    start = tuple((named.setdefault(j // step, len(named)), j % step)
                  for j in col)
    fresh: dict[int, int] = {}

    def label(i: int) -> tuple[int, int]:
        block = i // step
        if block in named:
            return named[block], i % step
        return fresh.setdefault(block, -1 - len(fresh)), i % step

    return start, tuple(label(i) for i in row)


def _identity_part(algebra: str, n: int, k: int, l: int) -> float:
    """The identity parts of the pair terms, which the orbit generator
    leaves out: on su(n), +1/n^2 per pair within the plain or the conjugated
    slots and -1/n^2 per pair across them; 0 on so and usp."""
    if algebra != "su":
        return 0.0
    same = (k * (k - 1) + l * (l - 1)) // 2
    return (same - k * l) / (n * n)


@lru_cache(maxsize=256)
def _shift(algebra: str, n: int, k: int, l: int) -> float:
    """The scalar part of the generator: the drift of every slot, plus the
    identity parts of the pair terms; cached, as the exact drift costs
    microseconds of ``Fraction`` arithmetic a call."""
    return (float((k + l) * drift_coefficient(algebra, n) / 2)
            + _identity_part(algebra, n, k, l))


def _split_pattern(pattern: Iterable) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    plain: list[tuple[int, int]] = []
    conj: list[tuple[int, int]] = []
    for item in pattern:
        item = tuple(item)
        if len(item) == 2:
            plain.append((int(item[0]), int(item[1])))
        elif len(item) == 3:
            (conj if item[2] else plain).append((int(item[0]), int(item[1])))
        else:
            raise ValueError(f"bad pattern item {item!r}")
    return plain, conj


def moment(algebra: str, n: int, pattern: Iterable, t: float) -> complex:
    """Joint moment of matrix entries at time t.

    Each pattern item is (row, col) for a plain factor or (row, col, True)
    for a conjugated factor (complex entries only).  Indices are 0-based in
    the defining dimension (2n for the quaternionic embedding).  The time
    must be finite with t >= 0.  The value is a float for so and a complex
    number otherwise.
    """
    require_time(t, allow_zero=True)
    plain, conj = _split_pattern(pattern)
    degree = len(plain) + len(conj)
    if degree == 0:
        return 1.0 + 0.0j
    if degree > 4:
        raise UnsupportedPattern(f"degree {degree} exceeds the tabulated range")
    k, l = len(plain), len(conj)
    _check_slots(algebra, n, k, l)
    row = [i for i, _ in plain] + [i for i, _ in conj]
    col = [j for _, j in plain] + [j for _, j in conj]
    d = matrix_side(algebra, n)
    for v in row + col:
        if not 0 <= v < d:
            raise ValueError(f"index {v} out of range for dimension {d}")
    start, orbit = _orbit_labels(algebra, col, row)
    value = _orbit_flow(algebra, k, l, start).entry(
        orbit, n, t, _shift(algebra, n, k, l))
    return value if algebra == "so" else complex(value)


# -- the tensor-space generator, for reference ----------------------------


@dataclass(frozen=True)
class MomentTensor:
    """Generator of the tensor-moment flow: drift plus pairwise Casimir terms."""

    algebra: str
    n: int
    k: int
    l: int
    dim: int
    generator: sp.csr_matrix


def moment_generator(algebra: str, n: int, k: int, l: int = 0) -> MomentTensor:
    """Generator whose exponential gives joint moments of k plain and l
    conjugated copies: half the Casimir of the diagonal action, the sum of
    L_X^2 / 2 over the orthonormal basis, where L_X acts by X on each plain
    slot and by its conjugate on each conjugated one."""
    import scipy.sparse as sp

    _check_slots(algebra, n, k, l)
    d, slots = matrix_side(algebra, n), k + l
    if d ** slots > _MAX_TENSOR_DIM:
        raise TooLarge(f"tensor space of dimension {d}^{slots} exceeds the guard")
    basis = np.stack(_orthonormal_basis(algebra, n))
    # v stacks the L_X, row (X, p) holding row p of L_X; the L_X are
    # anti-Hermitian, so the sum of their squares is -v^H v
    v = 0
    for i in range(slots):
        x = (basis.conj() if i >= k else basis).reshape(-1, d)
        block = sp.kron(sp.kron(sp.identity(d ** i), x),
                        sp.identity(d ** (slots - 1 - i)), format="csr")
        # the rows of block run over (slots before i, X, the rest)
        v = v + block[np.arange(block.shape[0]).reshape(d ** i, len(basis), -1)
                      .transpose(1, 0, 2).ravel()]
    return MomentTensor(algebra, n, k, l, d, (-(v.conj().T @ v) / 2).tocsr())


# -- eigen-structure verification ------------------------------------------


@dataclass(frozen=True)
class EigenEntry:
    eigenvalue: Fraction
    claimed_mult: int
    computed_mult: int
    max_residual: float

    tolerance: ClassVar[float] = 1e-8  # the largest residual that verifies

    @property
    def verified(self) -> bool:
        """The verdict on one eigenvalue: its count is the claimed one and
        every computed eigenvalue assigned to it lies within tolerance."""
        return (self.max_residual <= self.tolerance
                and self.computed_mult == self.claimed_mult)


@dataclass(frozen=True)
class EigenReport:
    algebra: str
    n: int
    k: int
    l: int
    entries: tuple[EigenEntry, ...]
    dims_match: bool
    verified: bool


def _claimed_eigentable(algebra: str, n: int, k: int,
                        l: int) -> tuple[dict[Fraction, int], int]:
    """Known (eigenvalue, multiplicity) pairs and the scale tying them to the
    generator.  Each row is one isotypic piece of the tensor space; the
    counts of coinciding eigenvalues are summed and zero counts dropped."""
    if algebra == "so" and (k, l) == (2, 0):
        raw, scale = [
            (Fraction(n - 1), 1),
            (Fraction(1), n * (n - 1) // 2),
            (Fraction(-1), (n + 2) * (n - 1) // 2),
        ], n
    elif algebra == "so" and (k, l) == (4, 0):
        raw, scale = [
            (Fraction(2 * n - 2), 3),
            (Fraction(n), 3 * n * (n - 1)),
            (Fraction(n - 2), 3 * (n + 2) * (n - 1)),
            (Fraction(6), n * (n - 1) * (n - 2) * (n - 3) // 24),
            (Fraction(2), 3 * n * (n + 2) * (n - 1) * (n - 3) // 8),
            (Fraction(0), n * (n + 1) * (n + 2) * (n - 3) // 6),
            (Fraction(-2), 3 * (n - 1) * (n - 2) * (n + 1) * (n + 4) // 8),
            (Fraction(-6), n * (n - 1) * (n + 1) * (n + 6) // 24),
        ], n
    elif algebra == "su" and (k, l) == (1, 1):
        raw, scale = [(Fraction(n * n - 1), 1),
                      (Fraction(-1), n * n - 1)], n * n
    elif algebra == "su" and (k, l) == (2, 2):
        raw, scale = [
            (Fraction(2 * n * n - 2), 2),
            (Fraction(n * n - 2), 4 * (n + 1) * (n - 1)),
            (Fraction(2 * n - 2), n * n * (n + 1) * (n - 3) // 4),
            (Fraction(-2), (n + 2) * (n + 1) * (n - 1) * (n - 2) // 2),
            (Fraction(-2 * n - 2), n * n * (n - 1) * (n + 3) // 4),
        ], n * n
    elif algebra == "usp" and (k, l) == (2, 0):
        raw, scale = [
            (Fraction(2 * n + 1, 2), 1),
            (Fraction(1, 2), (n - 1) * (2 * n + 1)),
            (Fraction(-1, 2), n * (2 * n + 1)),
        ], n
    elif algebra == "usp" and (k, l) == (4, 0):
        # Brauer: the trivial piece 3 times, each size-2 irreducible 6 times,
        # and the size-4 irreducibles (4), (3,1), (2,2), (2,1,1), (1^4)
        # f^lambda = 1, 3, 2, 3, 1 times, each count f^lambda * dimension
        raw, scale = [
            (Fraction(2 * n + 1), 3),
            (Fraction(n + 1), 6 * (n - 1) * (2 * n + 1)),
            (Fraction(n), 6 * n * (2 * n + 1)),
            (Fraction(3), n * (n - 3) * (2 * n - 1) * (2 * n + 1) // 6),
            (Fraction(1),
             3 * (n - 2) * (n + 1) * (2 * n - 1) * (2 * n + 1) // 2),
            (Fraction(0), 2 * n * (n - 1) * (2 * n - 1) * (2 * n + 3) // 3),
            (Fraction(-1), 3 * n * (n - 1) * (2 * n + 1) * (2 * n + 3) // 2),
            (Fraction(-3), n * (n + 1) * (2 * n + 1) * (2 * n + 3) // 6),
        ], n
    else:
        raise ValueError(f"no tabulated eigen-structure for {algebra} "
                         f"k={k} l={l}")
    table: dict[Fraction, int] = {}
    for value, mult in raw:
        table[value] = table.get(value, 0) + mult
    return {v: m for v, m in table.items() if m}, scale


def _start_patterns(algebra: str, slots: int) -> list[tuple]:
    """Every start pattern of the given number of slots: the set partitions
    of the slots, blocks numbered by first occurrence, times every choice of
    offsets on usp."""
    blocks: list[tuple] = [()]
    for _ in range(slots):
        blocks = [b + (x,) for b in blocks for x in range(2 + max(b, default=-1))]
    offsets = list(itertools.product(range(2 if algebra == "usp" else 1),
                                     repeat=slots))
    return [tuple(zip(b, off)) for b in blocks for off in offsets]


# Measured on every table at each n = 2..300 and at n = 500, 1000, 2000,
# 3000: the masses are within 1.3e-15 d^(k+l) of integers, and the
# eigenvalues within 1.3e-15 times the largest claimed one.  Up to these
# bounds the masses fix the multiplicities to 1.3e-3 and the residuals stay
# below 1.3e-9, against the 0.5 and the 1e-8 that the verdict needs.
_MAX_TRACE_DIM = 10 ** 12
_MAX_EIGENVALUE = 10 ** 6


def verify_eigentable(algebra: str, n: int, k: int, l: int = 0) -> EigenReport:
    """Compare the spectrum of the pairwise Casimir sum eta with the known
    table.

    eta is the generator less its drift.  On the orbits reachable from a
    start pattern pi it is the orbit matrix G_pi plus, on su, the identity
    parts of the pair terms, so f(eta) at a basis tensor of pattern pi is
    f(G_pi)[pi, pi] for that shift.  The (n)_named(pi) basis tensors of
    each pattern give the trace formula

        Tr 1_mu(eta) = sum over pi of (n)_named(pi) sum_{a: mu_a = mu} v_a[pi]^2

    for the eigenpairs (mu_a, v_a) of the symmetrised G_pi.  Every mu_a is
    an eigenvalue of eta; each goes to the nearest claimed value, and the
    residual is its distance from it.  Tables with d^(k+l) above
    ``_MAX_TRACE_DIM`` or an eigenvalue above ``_MAX_EIGENVALUE`` are refused
    with TooLarge.
    """
    _check_algebra(algebra, n)
    claimed, scale = _claimed_eigentable(algebra, n, k, l)
    size = matrix_side(algebra, n) ** (k + l)
    top = max(map(abs, claimed))
    if size > _MAX_TRACE_DIM or top > _MAX_EIGENVALUE:
        raise TooLarge(f"{algebra}({n}) table past the float bounds: dimension "
                       f"{size} (at most {_MAX_TRACE_DIM}), largest eigenvalue "
                       f"{top} (at most {_MAX_EIGENVALUE})")
    targets = sorted(claimed, key=float)
    target_vals = np.array([float(v) for v in targets])
    mass = np.zeros(len(targets))
    residual = np.zeros(len(targets))
    identity = _identity_part(algebra, n, k, l)
    for start in _start_patterns(algebra, k + l):
        count = math.perm(n, 1 + max(b for b, _ in start))  # 0 past n blocks
        if count == 0:
            continue
        _, _, values, vectors = _orbit_flow(algebra, k, l, start).spectrum(n)
        spectrum = (values + identity) * scale
        nearest = np.argmin(np.abs(spectrum[:, None] - target_vals[None, :]),
                            axis=1)
        np.add.at(mass, nearest, count * vectors[0] ** 2)
        np.maximum.at(residual, nearest,
                      np.abs(spectrum - target_vals[nearest]))
    entries = tuple(EigenEntry(value, claimed[value], round(float(mass[idx])),
                               float(residual[idx]))
                    for idx, value in enumerate(targets))
    dims_match = sum(e.computed_mult for e in entries) == size
    return EigenReport(algebra, n, k, l, entries, dims_match,
                       dims_match and all(e.verified for e in entries))


# -- closed-form moments ---------------------------------------------------

# each entry: (monomial assembly, value) where the assembly is a list of
# (coefficient, ((row, col, conj), ...)) terms over concrete small indices
# and the value is the rational-exponential formula


def _e(x: float) -> float:
    return float(np.exp(x))


def _so_forms() -> dict[str, tuple[Callable[[int], list], Callable[[int, float], float]]]:
    def mono(*entries: tuple[int, int]) -> list:
        return [(1.0, tuple((i, j, False) for i, j in entries))]

    return {
        "ii^2": (lambda n: mono((0, 0), (0, 0)),
                 lambda n, t: 1 / n + (1 - 1 / n) * _e(-t)),
        "ij^2": (lambda n: mono((0, 1), (0, 1)),
                 lambda n, t: (1 - _e(-t)) / n),
        "ii.jj": (lambda n: mono((0, 0), (1, 1)),
                  lambda n, t: 0.5 * (_e(-t) + _e(-(n - 2) * t / n))),
        "ij.ji": (lambda n: mono((0, 1), (1, 0)),
                  lambda n, t: 0.5 * (_e(-t) - _e(-(n - 2) * t / n))),
        "ii.ij": (lambda n: mono((0, 0), (0, 1)), lambda n, t: 0.0),
        "ij.kl": (lambda n: mono((0, 1), (2, 3)), lambda n, t: 0.0),
        "ii^4": (lambda n: mono((0, 0), (0, 0), (0, 0), (0, 0)),
                 lambda n, t: 3 / (n * (n + 2))
                 + 6 * (n - 1) / (n * (n + 4)) * _e(-t)
                 + (n + 1) * (n - 1) / ((n + 2) * (n + 4)) * _e(-(2 * n + 4) * t / n)),
        "ij^4": (lambda n: mono((0, 1), (0, 1), (0, 1), (0, 1)),
                 lambda n, t: 3 / (n * (n + 2))
                 - 6 / (n * (n + 4)) * _e(-t)
                 + 3 / ((n + 2) * (n + 4)) * _e(-(2 * n + 4) * t / n)),
        "ii^2.ij^2": (lambda n: mono((0, 0), (0, 0), (0, 1), (0, 1)),
                      lambda n, t: 1 / (n * (n + 2))
                      + (n - 2) / (n * (n + 4)) * _e(-t)
                      - (n + 1) / ((n + 2) * (n + 4)) * _e(-(2 * n + 4) * t / n)),
        "ij^2.ik^2": (lambda n: mono((0, 1), (0, 1), (0, 2), (0, 2)),
                      lambda n, t: 1 / (n * (n + 2))
                      - 2 / (n * (n + 4)) * _e(-t)
                      + 1 / ((n + 2) * (n + 4)) * _e(-(2 * n + 4) * t / n)),
        "ii^2.jj^2": (lambda n: mono((0, 0), (0, 0), (1, 1), (1, 1)),
                      lambda n, t: (n + 1) / ((n - 1) * n * (n + 2))
                      + 2 * (n + 3) / (n * (n + 4)) * _e(-t)
                      + (n - 3) / (3 * (n - 1)) * _e(-(2 * n - 2) * t / n)
                      + (n - 2) / (2 * n) * _e(-2 * t)
                      + (n * n + 4 * n + 6) / (6 * (n + 2) * (n + 4))
                      * _e(-(2 * n + 4) * t / n)),
        "ij^2.ji^2": (lambda n: mono((0, 1), (0, 1), (1, 0), (1, 0)),
                      lambda n, t: (n + 1) / (n * (n - 1) * (n + 2))
                      - 2 / (n * (n + 4)) * _e(-t)
                      + (n - 3) / (3 * (n - 1)) * _e(-(2 * n - 2) * t / n)
                      - (n - 2) / (2 * n) * _e(-2 * t)
                      + (n * n + 4 * n + 6) / (6 * (n + 2) * (n + 4))
                      * _e(-(2 * n + 4) * t / n)),
        "ii^2.jk^2": (lambda n: mono((0, 0), (0, 0), (1, 2), (1, 2)),
                      lambda n, t: (n + 1) / (n * (n - 1) * (n + 2))
                      + (n * n - 8) / (n * (n - 2) * (n + 4)) * _e(-t)
                      - (n - 3) / (3 * (n - 1) * (n - 2)) * _e(-(2 * n - 2) * t / n)
                      - 1 / (2 * n) * _e(-2 * t)
                      - n / (6 * (n + 2) * (n + 4)) * _e(-(2 * n + 4) * t / n)),
        "ij^2.jk^2": (lambda n: mono((0, 1), (0, 1), (1, 2), (1, 2)),
                      lambda n, t: (n + 1) / (n * (n - 1) * (n + 2))
                      - 2 / ((n - 2) * (n + 4)) * _e(-t)
                      - (n - 3) / (3 * (n - 1) * (n - 2)) * _e(-(2 * n - 2) * t / n)
                      + 1 / (2 * n) * _e(-2 * t)
                      - n / (6 * (n + 2) * (n + 4)) * _e(-(2 * n + 4) * t / n)),
        "ij^2.kl^2": (lambda n: mono((0, 1), (0, 1), (2, 3), (2, 3)),
                      lambda n, t: (n + 1) / (n * (n - 1) * (n + 2))
                      - 2 * (n + 2) / (n * (n - 2) * (n + 4)) * _e(-t)
                      + 2 / (3 * (n - 1) * (n - 2)) * _e(-(2 * n - 2) * t / n)
                      + 1 / (3 * (n + 2) * (n + 4)) * _e(-(2 * n + 4) * t / n)),
        "ii.ij.jj.ji": (lambda n: mono((0, 0), (0, 1), (1, 1), (1, 0)),
                        lambda n, t: -1 / (n * (n - 1) * (n + 2))
                        - 2 / (n * (n + 4)) * _e(-t)
                        - (n - 3) / (6 * (n - 1)) * _e(-(2 * n - 2) * t / n)
                        + (n * n + 4 * n + 6) / (6 * (n + 2) * (n + 4))
                        * _e(-(2 * n + 4) * t / n)),
        "ik.il.jk.jl": (lambda n: mono((0, 2), (0, 3), (1, 2), (1, 3)),
                        lambda n, t: -1 / (n * (n - 1) * (n + 2))
                        + 4 / (n * (n - 2) * (n + 4)) * _e(-t)
                        - 1 / (3 * (n - 1) * (n - 2)) * _e(-(2 * n - 2) * t / n)
                        + 1 / (3 * (n + 2) * (n + 4)) * _e(-(2 * n + 4) * t / n)),
        "ii.jj.kk.ll": (lambda n: mono((0, 0), (1, 1), (2, 2), (3, 3)),
                        lambda n, t: _e(-(2 * n - 8) * t / n) / 24
                        + 3 * _e(-(2 * n - 4) * t / n) / 8
                        + _e(-(2 * n - 2) * t / n) / 6
                        + 3 * _e(-2 * t) / 8
                        + _e(-(2 * n + 4) * t / n) / 24),
        "ij.jk.kl.li": (lambda n: mono((0, 1), (1, 2), (2, 3), (3, 0)),
                        lambda n, t: -_e(-(2 * n - 8) * t / n) / 24
                        + _e(-(2 * n - 4) * t / n) / 8
                        - _e(-2 * t) / 8
                        + _e(-(2 * n + 4) * t / n) / 24),
        "ii.jj.kl.lk": (lambda n: mono((0, 0), (1, 1), (2, 3), (3, 2)),
                        lambda n, t: -_e(-(2 * n - 8) * t / n) / 24
                        - _e(-(2 * n - 4) * t / n) / 8
                        + _e(-2 * t) / 8
                        + _e(-(2 * n + 4) * t / n) / 24),
        "ij.ji.kl.lk": (lambda n: mono((0, 1), (1, 0), (2, 3), (3, 2)),
                        lambda n, t: _e(-(2 * n - 8) * t / n) / 24
                        - _e(-(2 * n - 4) * t / n) / 8
                        + _e(-(2 * n - 2) * t / n) / 6
                        - _e(-2 * t) / 8
                        + _e(-(2 * n + 4) * t / n) / 24),
        "ij.ik.il^2": (lambda n: mono((0, 1), (0, 2), (0, 3), (0, 3)),
                       lambda n, t: 0.0),
    }


def _su_forms() -> dict[str, tuple[Callable[[int], list], Callable[[int, float], float]]]:
    def mono(plain: Sequence[tuple[int, int]],
             conj: Sequence[tuple[int, int]]) -> list:
        term = tuple([(i, j, False) for i, j in plain]
                     + [(i, j, True) for i, j in conj])
        return [(1.0, term)]

    def sq(*entries: tuple[int, int]) -> list:
        # product of square moduli: each entry contributes one plain and one
        # conjugated copy
        return mono(list(entries), list(entries))

    return {
        "|ii|^2": (lambda n: sq((0, 0)),
                   lambda n, t: 1 / n + (1 - 1 / n) * _e(-t)),
        "|ij|^2": (lambda n: sq((0, 1)),
                   lambda n, t: (1 - _e(-t)) / n),
        "ii.cjj": (lambda n: mono([(0, 0)], [(1, 1)]),
                   lambda n, t: _e(-t)),
        "|ii|^4": (lambda n: sq((0, 0), (0, 0)),
                   lambda n, t: 2 / (n * (n + 1))
                   + 4 * (n - 1) / (n * (n + 2)) * _e(-t)
                   + n * (n - 1) / ((n + 1) * (n + 2)) * _e(-(2 * n + 2) * t / n)),
        "|ij|^4": (lambda n: sq((0, 1), (0, 1)),
                   lambda n, t: 2 / (n * (n + 1))
                   - 4 / (n * (n + 2)) * _e(-t)
                   + 2 / ((n + 1) * (n + 2)) * _e(-(2 * n + 2) * t / n)),
        "|ii|^2.|ij|^2": (lambda n: sq((0, 0), (0, 1)),
                          lambda n, t: 1 / (n * (n + 1))
                          + (n - 2) / (n * (n + 2)) * _e(-t)
                          - n / ((n + 1) * (n + 2)) * _e(-(2 * n + 2) * t / n)),
        "|ij|^2.|ik|^2": (lambda n: sq((0, 1), (0, 2)),
                          lambda n, t: 1 / (n * (n + 1))
                          - 2 / (n * (n + 2)) * _e(-t)
                          + 1 / ((n + 1) * (n + 2)) * _e(-(2 * n + 2) * t / n)),
        "|ii|^2.|jj|^2": (lambda n: sq((0, 0), (1, 1)),
                          lambda n, t: 1 / ((n - 1) * (n + 1))
                          + 2 * (n + 1) / (n * (n + 2)) * _e(-t)
                          + (n - 3) / (4 * (n - 1)) * _e(-(2 * n - 2) * t / n)
                          + (n - 2) / (2 * n) * _e(-2 * t)
                          + (n * n + n + 2) / (4 * (n + 1) * (n + 2))
                          * _e(-(2 * n + 2) * t / n)),
        "|ij|^2.|ji|^2": (lambda n: sq((0, 1), (1, 0)),
                          lambda n, t: 1 / ((n - 1) * (n + 1))
                          - 2 / (n * (n + 2)) * _e(-t)
                          + (n - 3) / (4 * (n - 1)) * _e(-(2 * n - 2) * t / n)
                          - (n - 2) / (2 * n) * _e(-2 * t)
                          + (n * n + n + 2) / (4 * (n + 1) * (n + 2))
                          * _e(-(2 * n + 2) * t / n)),
        "|ii|^2.|jk|^2": (lambda n: sq((0, 0), (1, 2)),
                          lambda n, t: 1 / ((n - 1) * (n + 1))
                          + (n * n - 2 * n - 2) / (n * (n - 2) * (n + 2)) * _e(-t)
                          - (n - 3) / (4 * (n - 1) * (n - 2)) * _e(-(2 * n - 2) * t / n)
                          - 1 / (2 * n) * _e(-2 * t)
                          - (n - 1) / (4 * (n + 1) * (n + 2))
                          * _e(-(2 * n + 2) * t / n)),
        "|ij|^2.|jk|^2": (lambda n: sq((0, 1), (1, 2)),
                          lambda n, t: 1 / ((n - 1) * (n + 1))
                          - 2 * (n - 1) / (n * (n - 2) * (n + 2)) * _e(-t)
                          - (n - 3) / (4 * (n - 1) * (n - 2)) * _e(-(2 * n - 2) * t / n)
                          + 1 / (2 * n) * _e(-2 * t)
                          - (n - 1) / (4 * (n + 1) * (n + 2))
                          * _e(-(2 * n + 2) * t / n)),
        "|ij|^2.|kl|^2": (lambda n: sq((0, 1), (2, 3)),
                          lambda n, t: 1 / ((n - 1) * (n + 1))
                          - 2 / ((n - 2) * (n + 2)) * _e(-t)
                          + 1 / (2 * (n - 1) * (n - 2)) * _e(-(2 * n - 2) * t / n)
                          + 1 / (2 * (n + 1) * (n + 2)) * _e(-(2 * n + 2) * t / n)),
    }


def _qnorm(i: int, j: int) -> list[tuple[float, tuple]]:
    """Squared quaternion norm of block entry (i, j) of a quaternionic
    matrix, as signed monomials of the determinant of its 2 x 2 complex
    block."""
    a, b = 2 * i, 2 * j
    return [(1.0, ((a, b, False), (a + 1, b + 1, False))),
            (-1.0, ((a, b + 1, False), (a + 1, b, False)))]


def _usp_forms() -> dict[str, tuple[Callable[[int], list], Callable[[int, float], float]]]:
    def mono(*entries: tuple[int, int]) -> list:
        return [(1.0, tuple((a, b, False) for a, b in entries))]

    def qprod(first: tuple[int, int], second: tuple[int, int]) -> list:
        out = []
        for c1, m1 in _qnorm(*first):
            for c2, m2 in _qnorm(*second):
                out.append((c1 * c2, m1 + m2))
        return out

    return {
        "q|ii|^2": (lambda n: _qnorm(0, 0),
                    lambda n, t: 1 / n + (n - 1) / n * _e(-t)),
        "q|ij|^2": (lambda n: _qnorm(0, 1),
                    lambda n, t: (1 - _e(-t)) / n),
        "d_aa^2": (lambda n: mono((0, 0), (0, 0)),
                   lambda n, t: _e(-(n + 1) * t / n)),
        "d_ab^2": (lambda n: mono((0, 1), (0, 1)), lambda n, t: 0.0),
        "d_aa^4": (lambda n: mono((0, 0), (0, 0), (0, 0), (0, 0)),
                   lambda n, t: _e(-(2 * n + 4) * t / n)),
        "d_ab^4": (lambda n: mono((0, 1), (0, 1), (0, 1), (0, 1)),
                   lambda n, t: 0.0),
        "d_aa^2.ab^2": (lambda n: mono((0, 0), (0, 0), (0, 1), (0, 1)),
                        lambda n, t: 0.0),
        "d_ab^2.ac^2": (lambda n: mono((0, 1), (0, 1), (0, 2), (0, 2)),
                        lambda n, t: 0.0),
        "pair_diag^2": (lambda n: mono((0, 0), (0, 0), (1, 1), (1, 1)),
                        lambda n, t: 1 / (n * (2 * n + 1))
                        + (n - 1) / (n * (n + 1)) * _e(-t)
                        + 1 / (n + 1) * _e(-(n + 1) * t / n)
                        + (2 * n - 1) * (2 * n - 2)
                        / (3 * (2 * n + 1) * (2 * n + 2)) * _e(-(2 * n + 1) * t / n)
                        + (n - 1) / (2 * (n + 1)) * _e(-(2 * n + 2) * t / n)
                        + _e(-(2 * n + 4) * t / n) / 6),
        "pair_anti^2": (lambda n: mono((0, 1), (0, 1), (1, 0), (1, 0)),
                        lambda n, t: 1 / (n * (2 * n + 1))
                        + (n - 1) / (n * (n + 1)) * _e(-t)
                        - 1 / (n + 1) * _e(-(n + 1) * t / n)
                        + (2 * n - 1) * (2 * n - 2)
                        / (3 * (2 * n + 1) * (2 * n + 2)) * _e(-(2 * n + 1) * t / n)
                        - (n - 1) / (2 * (n + 1)) * _e(-(2 * n + 2) * t / n)
                        + _e(-(2 * n + 4) * t / n) / 6),
        "cross_diag^2": (lambda n: mono((0, 2), (0, 2), (1, 3), (1, 3)),
                         lambda n, t: 1 / (n * (2 * n + 1))
                         - 1 / (n * (n + 1)) * _e(-t)
                         + 1 / ((2 * n + 1) * (n + 1)) * _e(-(2 * n + 1) * t / n)),
        "cross_anti^2": (lambda n: mono((0, 3), (0, 3), (1, 2), (1, 2)),
                         lambda n, t: 1 / (n * (2 * n + 1))
                         - 1 / (n * (n + 1)) * _e(-t)
                         + 1 / ((2 * n + 1) * (n + 1)) * _e(-(2 * n + 1) * t / n)),
        "nonpair_diag^2": (lambda n: mono((0, 0), (0, 0), (2, 2), (2, 2)),
                           lambda n, t: _e(-(2 * n + 1) * t / n) / 3
                           + _e(-(2 * n + 2) * t / n) / 2
                           + _e(-(2 * n + 4) * t / n) / 6),
        "nonpair_swap^2": (lambda n: mono((0, 2), (0, 2), (2, 0), (2, 0)),
                           lambda n, t: _e(-(2 * n + 1) * t / n) / 3
                           - _e(-(2 * n + 2) * t / n) / 2
                           + _e(-(2 * n + 4) * t / n) / 6),
        "mixed_pair": (lambda n: mono((0, 0), (0, 1), (1, 1), (1, 0)),
                       lambda n, t: -1 / (2 * n * (2 * n + 1))
                       - (n - 1) / (2 * n * (n + 1)) * _e(-t)
                       - (2 * n - 1) * (2 * n - 2)
                       / (6 * (2 * n + 1) * (2 * n + 2)) * _e(-(2 * n + 1) * t / n)
                       + _e(-(2 * n + 4) * t / n) / 6),
        "q|ii|^4": (lambda n: qprod((0, 0), (0, 0)),
                    lambda n, t: 3 / (n * (2 * n + 1))
                    + 3 * (n - 1) / (n * (n + 1)) * _e(-t)
                    + (2 * n - 1) * (2 * n - 2) / ((2 * n + 1) * (2 * n + 2))
                    * _e(-(2 * n + 1) * t / n)),
        "q|ij|^4": (lambda n: qprod((0, 1), (0, 1)),
                    lambda n, t: 3 / (n * (2 * n + 1))
                    - 3 / (n * (n + 1)) * _e(-t)
                    + 3 / ((2 * n + 1) * (n + 1)) * _e(-(2 * n + 1) * t / n)),
        "q|ii|^2.|ij|^2": (lambda n: qprod((0, 0), (0, 1)),
                           lambda n, t: 2 / (n * (2 * n + 1))
                           + (n - 2) / (n * (n + 1)) * _e(-t)
                           - 2 * (2 * n - 1) / ((2 * n + 1) * (2 * n + 2))
                           * _e(-(2 * n + 1) * t / n)),
        "q|ij|^2.|ik|^2": (lambda n: qprod((0, 1), (0, 2)),
                           lambda n, t: 2 / (n * (2 * n + 1))
                           - 2 / (n * (n + 1)) * _e(-t)
                           + 2 / ((2 * n + 1) * (n + 1)) * _e(-(2 * n + 1) * t / n)),
        "q|ii|^2.|jj|^2": (lambda n: qprod((0, 0), (1, 1)),
                           lambda n, t: (2 * n - 1) / (n * (n - 1) * (2 * n + 1))
                           + 2 / (n + 1) * _e(-t)
                           + (n - 3) / (6 * (n - 1)) * _e(-(2 * n - 2) * t / n)
                           + (n - 2) / (2 * n) * _e(-2 * t)
                           + (2 * n * n - n + 3) / (3 * (n + 1) * (2 * n + 1))
                           * _e(-(2 * n + 1) * t / n)),
        "q|ij|^2.|ji|^2": (lambda n: qprod((0, 1), (1, 0)),
                           lambda n, t: (2 * n - 1) / (n * (n - 1) * (2 * n + 1))
                           - 2 / (n * (n + 1)) * _e(-t)
                           + (n - 3) / (6 * (n - 1)) * _e(-(2 * n - 2) * t / n)
                           - (n - 2) / (2 * n) * _e(-2 * t)
                           + (2 * n * n - n + 3) / (3 * (n + 1) * (2 * n + 1))
                           * _e(-(2 * n + 1) * t / n)),
        "q|ii|^2.|jk|^2": (lambda n: qprod((0, 0), (1, 2)),
                           lambda n, t: (2 * n - 1) / (n * (n - 1) * (2 * n + 1))
                           + (n * n - 3 * n + 1) / (n * (n + 1) * (n - 2)) * _e(-t)
                           - (n - 3) / (6 * (n - 1) * (n - 2)) * _e(-(2 * n - 2) * t / n)
                           - 1 / (2 * n) * _e(-2 * t)
                           - (2 * n - 3) / (3 * (n + 1) * (2 * n + 1))
                           * _e(-(2 * n + 1) * t / n)),
        "q|ij|^2.|jk|^2": (lambda n: qprod((0, 1), (1, 2)),
                           lambda n, t: (2 * n - 1) / (n * (n - 1) * (2 * n + 1))
                           - (2 * n - 3) / (n * (n + 1) * (n - 2)) * _e(-t)
                           - (n - 3) / (6 * (n - 1) * (n - 2)) * _e(-(2 * n - 2) * t / n)
                           + 1 / (2 * n) * _e(-2 * t)
                           - (2 * n - 3) / (3 * (n + 1) * (2 * n + 1))
                           * _e(-(2 * n + 1) * t / n)),
        "q|ij|^2.|kl|^2": (lambda n: qprod((0, 1), (2, 3)),
                           lambda n, t: (2 * n - 1) / (n * (n - 1) * (2 * n + 1))
                           - (2 * n - 2) / (n * (n + 1) * (n - 2)) * _e(-t)
                           + 1 / (3 * (n - 1) * (n - 2)) * _e(-(2 * n - 2) * t / n)
                           + 4 / (3 * (n + 1) * (2 * n + 1))
                           * _e(-(2 * n + 1) * t / n)),
    }


_FORM_TABLES: dict[str, dict] = {}


def _forms(algebra: str) -> dict:
    if algebra not in _FORM_TABLES:
        builder = {"so": _so_forms, "su": _su_forms, "usp": _usp_forms}[algebra]
        _FORM_TABLES[algebra] = builder()
    return _FORM_TABLES[algebra]


def closed_form_names(algebra: str) -> tuple[str, ...]:
    """Names of the tabulated closed-form moment patterns."""
    if algebra not in _GROUPS:
        raise ValueError(f"unknown algebra {algebra!r}")
    return tuple(_forms(algebra))


def pattern_monomials(algebra: str, n: int, name: str) -> list:
    """Signed monomials (coefficient, entries) realizing a named pattern."""
    _check_algebra(algebra, n)
    try:
        build, _ = _forms(algebra)[name]
    except KeyError:
        raise UnsupportedPattern(f"unknown pattern {name!r}") from None
    terms = build(n)
    d = matrix_side(algebra, n)
    symbols = {i for _, term in terms for e in term for i in e[:2]}
    if max(symbols) >= d:
        raise InvalidRank(f"pattern {name!r} needs dimension > {max(symbols)}")
    return terms


def closed_form_value(algebra: str, n: int, name: str, t: float) -> float:
    """Evaluate a tabulated closed-form moment."""
    _check_algebra(algebra, n)
    try:
        _, value = _forms(algebra)[name]
    except KeyError:
        raise UnsupportedPattern(f"unknown pattern {name!r}") from None
    return float(value(n, t))


def generator_moment(algebra: str, n: int, name: str, t: float) -> complex:
    """Evaluate a named pattern through the generator exponential."""
    terms = pattern_monomials(algebra, n, name)
    total = 0.0 + 0.0j
    for coeff, term in terms:
        total += coeff * complex(moment(algebra, n, term, t))
    return total


# -- squared zonal functions in the zonal basis ----------------------------


def zonal_square_expansion(descriptor: SpaceDescriptor) -> dict[Weight, Fraction]:
    """Coefficients of the squared discriminating zonal function.

    The square (or squared modulus) of the basepoint-normalized zonal
    function attached to the minimal spherical label expands over finitely
    many zonal functions; the coefficients are rational in n, p, q and sum
    to one.  Labels that do not exist at the given rank are omitted after
    folding their would-be contribution into coinciding terms.
    """
    fam = descriptor.family
    n = descriptor.n
    if fam in (Family.SO, Family.SU, Family.USp):
        raise UnsupportedSpace("expansion applies to quotient spaces only")
    idx = indexing_set(descriptor)
    label, length = idx.label, idx.length
    out: dict[Weight, Fraction] = {}
    if fam in (Family.GrR, Family.GrC, Family.GrH):
        q = descriptor.q
        p = n - q
        pq = p * q
    if fam is Family.GrR:
        out[label(())] = Fraction(2, n * n + n - 2)
        out[label((2,))] = (
            Fraction(4 * n * n - 16 * pq, pq * (n - 2) * (n + 4)))
        if length >= 2:
            out[label((2, 2))] = Fraction(2 * n * n, 3) * (
                Fraction(1, (n - 1) * (n - 2)) - Fraction(1, pq * (n - 2)))
        out[label((4,))] = Fraction(n * n, 3) * (
            Fraction(1, (n + 2) * (n + 4)) + Fraction(2, pq * (n + 4)))
    elif fam is Family.GrC:
        out[label(())] = Fraction(1, n * n - 1)
        if n == 2:
            # the generic numerator 2n^2 - 8pq vanishes together with its
            # denominator; the coefficient sum fixes the value at zero
            out[label((1,))] = Fraction(0)
        else:
            out[label((1,))] = (
                Fraction(2 * n * n - 8 * pq, pq * (n * n - 4)))
        if length >= 2:
            out[label((1, 1))] = Fraction(n * n, 2) * (
                Fraction(1, (n - 1) * (n - 2)) - Fraction(1, pq * (n - 2)))
        out[label((2,))] = Fraction(n * n, 2) * (
            Fraction(1, (n + 1) * (n + 2)) + Fraction(1, pq * (n + 2)))
    elif fam is Family.GrH:
        out[label(())] = Fraction(1, 2 * n * n - n - 1)
        if n == 2:
            out[label((1, 1))] = Fraction(0)
        else:
            out[label((1, 1))] = (
                Fraction(n * n - 4 * pq, pq * (n - 2) * (n + 1)))
        if length >= 4:
            out[label((1, 1, 1, 1))] = Fraction(n * n, 3) * (
                Fraction(1, (n - 1) * (n - 2)) - Fraction(1, pq * (n - 2)))
        out[label((2, 2))] = Fraction(n * n, 3) * (
            Fraction(4, (n + 1) * (2 * n + 1)) + Fraction(1, pq * (n + 1)))
    elif fam is Family.SO2n_Un:
        flat = Fraction(n - 1, 3 * n)
        out[label(())] = Fraction(1, 2 * n * n - n)
        if length >= 4:
            out[label((1, 1, 1, 1))] = flat
        elif n == 3:
            # at rank three the four-row label folds onto a single pair of
            # ones, whose decay rate coincides there
            out[label((1, 1))] = flat
        else:
            # at rank two it degenerates onto the constant (zero rate)
            out[label(())] += flat
        out[label((2, 2))] = (
            Fraction(4 * (n - 1) * (n + 1), 3 * n * (2 * n - 1)))
    elif fam is Family.SUn_SOn:
        out[label(())] = Fraction(2, n * n + n)
        top = (4,) + (2,) * (length - 1)
        out[label(top)] = Fraction(n * n + n - 2, n * n + n)
    elif fam is Family.SU2n_USpn:
        out[label(())] = Fraction(1, 2 * n * n - n)
        mixed = (2, 2) + (1,) * (length - 3) + (0,)
        out[label(mixed)] = (
            Fraction(2 * n * n - n - 1, 2 * n * n - n))
    elif fam is Family.USpn_Un:
        out[label(())] = Fraction(1, 2 * n * n + n)
        if length >= 2:
            out[label((2, 2))] = (
                Fraction(4 * (n - 1) * (n + 1), 3 * n * (2 * n + 1)))
        out[label((4,))] = Fraction(n + 1, 3 * n)
    else:  # pragma: no cover - family enum is exhaustive
        raise UnsupportedSpace(str(fam))
    return out
