"""Tests for the tensor-moment generators and closed-form moment tables."""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from cutofflab import moments as mo
from cutofflab import spaces
from cutofflab.errors import (
    InvalidRank,
    InvalidTime,
    TooLarge,
    UnsupportedPattern,
    UnsupportedSpace,
)
from cutofflab.partitions import WeightKind
from cutofflab.repchar import dimension
from tensor_oracle import casimir_tensor, dense_eigentable, expectation_entries


@pytest.mark.parametrize("algebra,n", [("so", 4), ("so", 7), ("su", 2),
                                       ("su", 5), ("usp", 2), ("usp", 4)])
def test_contraction_gives_scalar_drift(algebra, n):
    basis = mo._orthonormal_basis(algebra, n)
    want = (float(spaces.drift_coefficient(algebra, n))
            * np.eye(spaces.matrix_side(algebra, n)))
    contracted = sum(x @ x for x in basis)
    assert np.abs(contracted - want).max() < 1e-12


@pytest.mark.parametrize("algebra,n,count", [
    ("so", 5, 10), ("su", 4, 15), ("usp", 3, 21)])
def test_basis_sizes_match_group_dimension(algebra, n, count):
    assert len(mo._orthonormal_basis(algebra, n)) == count


@pytest.mark.parametrize("algebra,n", [("so", 4), ("su", 3), ("usp", 2)])
def test_basis_is_orthonormal_and_anti_hermitian(algebra, n):
    basis = mo._orthonormal_basis(algebra, n)
    scale = {"so": n / 2, "su": n, "usp": n}[algebra]
    for a, x in enumerate(basis):
        assert np.abs(x + x.conj().T).max() < 1e-12
        for b, y in enumerate(basis):
            inner = -scale * np.trace(x @ y).real
            assert abs(inner - (1.0 if a == b else 0.0)) < 1e-10


@pytest.mark.parametrize("algebra,n,k,l", [
    ("so", 4, 2, 0), ("so", 4, 4, 0), ("su", 3, 1, 1),
    ("su", 3, 2, 2), ("usp", 2, 2, 0)])
def test_generator_is_hermitian(algebra, n, k, l):
    gen = mo.moment_generator(algebra, n, k, l).generator
    assert abs(gen - gen.conj().T).max() < 1e-12


@pytest.mark.parametrize("algebra", ["so", "su", "usp"])
@pytest.mark.parametrize("t", [0.3, 1.5])
def test_single_entry_moment_decays_at_the_drift_rate(algebra, t):
    n = 4
    rate = float(spaces.drift_coefficient(algebra, n)) / 2
    d = spaces.matrix_side(algebra, n)
    for i, j in [(0, 0), (1, 1), (0, 1)]:
        got = mo.moment(algebra, n, [(i, j)], t)
        want = np.exp(rate * t) if i == j else 0.0
        assert abs(got - want) < 1e-12
    assert abs(mo.moment(algebra, n, [(d - 1, d - 1)], t)
               - np.exp(rate * t)) < 1e-12


@pytest.mark.parametrize("algebra,n", [
    *(("so", n) for n in range(4, 7)), *(("su", n) for n in range(3, 7)),
    *(("usp", n) for n in range(3, 7))])
def test_tensor_generator_matches_closed_forms(algebra, n):
    fitting = []
    for name in mo.closed_form_names(algebra):
        try:
            fitting.append((name, mo.pattern_monomials(algebra, n, name)))
        except InvalidRank:
            continue
    for t in (0.1, 1.0, 3.0):
        # one batch of entries per (plain, conjugated) slot count
        batches: dict[tuple[int, int], list] = {}
        slots: dict[tuple[int, int], list] = {}
        for name, mons in fitting:
            for coeff, entries in mons:
                plain, conj = mo._split_pattern(entries)
                key = (len(plain), len(conj))
                rows = [i for i, _ in plain] + [i for i, _ in conj]
                cols = [j for _, j in plain] + [j for _, j in conj]
                slots.setdefault(key, []).append((name, coeff))
                batches.setdefault(key, []).append((rows, cols))
        totals = {name: 0.0 for name, _ in fitting}
        for key, pairs in batches.items():
            values = expectation_entries(algebra, n, *key, pairs, t)
            for (name, coeff), value in zip(slots[key], values):
                totals[name] += coeff * value
        for name, _ in fitting:
            closed = mo.closed_form_value(algebra, n, name, t)
            assert abs(totals[name] - closed) <= 1e-9, (name, t)


@pytest.mark.parametrize("algebra,ns", [
    ("so", (4, 5)), ("su", (3, 4)), ("usp", (3, 4))])
@pytest.mark.parametrize("t", [0.25, 1.0])
def test_closed_forms_match_generator_route(algebra, ns, t):
    for n in ns:
        for name in mo.closed_form_names(algebra):
            try:
                mo.pattern_monomials(algebra, n, name)
            except InvalidRank:
                continue
            want = mo.closed_form_value(algebra, n, name, t)
            got = mo.generator_moment(algebra, n, name, t)
            assert abs(got - want) < 1e-9, (algebra, n, name)


def test_haar_limit_of_squared_entries():
    # as t grows the second moments approach the uniform-measure values
    t = 60.0
    assert abs(mo.closed_form_value("so", 5, "ii^2", t) - 1 / 5) < 1e-9
    assert abs(mo.closed_form_value("su", 5, "|ij|^2", t) - 1 / 5) < 1e-9
    assert abs(mo.closed_form_value("usp", 3, "q|ii|^2", t) - 1 / 3) < 1e-9


def test_conjugate_pair_moment_for_complex_entries():
    n, t = 4, 0.9
    got = mo.moment("su", n, [(0, 0), (1, 1, True)], t)
    assert abs(got - np.exp(-t)) < 1e-12


def test_moments_start_at_identity_values():
    for algebra, n in [("so", 4), ("su", 3), ("usp", 2)]:
        assert abs(mo.moment(algebra, n, [(0, 0), (1, 1)], 0.0) - 1.0) < 1e-12
        assert abs(mo.moment(algebra, n, [(0, 1), (1, 0)], 0.0)) < 1e-12


@pytest.mark.parametrize("pattern,relabeled", [
    ((((0, 1), (0, 1), (2, 3), (2, 3))), (((1, 2), (1, 2), (3, 0), (3, 0)))),
    ((((0, 0), (1, 1))), (((2, 2), (3, 3)))),
])
def test_moment_invariance_under_index_relabeling(pattern, relabeled):
    n, t = 5, 0.6
    for algebra in ("so", "su"):
        a = mo.moment(algebra, n, pattern, t)
        b = mo.moment(algebra, n, relabeled, t)
        assert abs(a - b) < 1e-11


def test_quaternionic_moment_invariance_under_block_relabeling():
    n, t = 4, 0.8
    # swap quaternion blocks 0 and 2, keeping offsets within each block
    def swap(idx):
        block, off = divmod(idx, 2)
        block = {0: 2, 2: 0}.get(block, block)
        return 2 * block + off
    pattern = ((0, 2), (0, 2), (1, 3), (1, 3))
    moved = tuple((swap(i), swap(j)) for i, j in pattern)
    a = mo.moment("usp", n, pattern, t)
    b = mo.moment("usp", n, moved, t)
    assert abs(a - b) < 1e-11


def test_batched_entries_agree_with_single_extraction():
    n, t = 4, 0.5
    pairs = [((0, 0, 1, 1), (0, 0, 1, 1)), ((0, 1, 1, 0), (1, 0, 0, 1)),
             ((0, 0, 0, 0), (0, 0, 0, 0))]
    batch = expectation_entries("so", n, 4, 0, pairs, t, chunk=2)
    for (row, col), got in zip(pairs, batch):
        pattern = [(r, c) for r, c in zip(row, col)]
        assert abs(got - mo.moment("so", n, pattern, t)) < 1e-11


@pytest.mark.parametrize("algebra,n,spec", [
    ("so", 4, 2), ("so", 5, 2), ("so", 4, 4), ("so", 5, 4),
    ("su", 4, (1, 1)), ("su", 5, (1, 1)), ("su", 4, (2, 2)), ("su", 5, (2, 2)),
    ("usp", 4, 2), ("usp", 5, 2), ("usp", 3, 4)])
def test_eigen_tables_verify(algebra, n, spec):
    k, l = spec if isinstance(spec, tuple) else (spec, 0)
    report = mo.verify_eigentable(algebra, n, k, l)
    assert report.verified
    assert report.dims_match
    total = sum(e.computed_mult for e in report.entries)
    d = 2 * n if algebra == "usp" else n
    assert total == d ** (k + l)
    assert all(e.verified for e in report.entries)


@pytest.mark.parametrize("algebra,n,spec", [
    ("so", 4, 2), ("so", 5, 2), ("so", 4, 4), ("so", 5, 4), ("so", 6, 4),
    ("su", 4, (1, 1)), ("su", 5, (1, 1)), ("su", 4, (2, 2)), ("su", 5, (2, 2)),
    ("usp", 4, 2), ("usp", 5, 2), ("usp", 3, 4)])
def test_eigen_tables_match_the_dense_spectrum(algebra, n, spec):
    k, l = spec if isinstance(spec, tuple) else (spec, 0)
    table, size = dense_eigentable(algebra, n, k, l)
    report = mo.verify_eigentable(algebra, n, k, l)
    assert [(e.eigenvalue, e.computed_mult) for e in report.entries] == [
        (value, count) for value, count, _ in table]
    assert all(residual <= 1e-8 for _, _, residual in table)
    assert sum(count for _, count, _ in table) == size


def test_eigen_table_multiplicities_merge_at_coinciding_values():
    # at n = 6 one parameter-dependent eigenvalue collides with a constant one
    report = mo.verify_eigentable("so", 6, 4)
    assert report.verified
    six = [e for e in report.entries if e.eigenvalue == 6]
    assert len(six) == 1
    assert six[0].claimed_mult == 3 * 6 * 5 + 6 * 5 * 4 * 3 // 24


# the Brauer decomposition of V^(x)4 on usp(n): each size-4 irreducible
# lambda (eigenvalue, f^lambda copies), and the size-2 ones 6 times each
_USP_FOUR = [((4,), -3, 1), ((3, 1), -1, 3), ((2, 2), 0, 2),
             ((2, 1, 1), 1, 3), ((1, 1, 1, 1), 3, 1)]


def test_symplectic_degree_four_counts_are_brauer_multiples_of_dimensions():
    # every count is a polynomial of degree 4 in n, and so is each Weyl
    # dimension once the label fits the rank (n >= 4): agreeing at more
    # than five ranks, they agree at every rank from 4 on
    for n in range(4, 16):
        desc = spaces.describe("USp", n)
        idx = spaces.indexing_set(desc)

        def dim(parts):
            return dimension(desc, idx.label(parts))

        raw = [(2 * n + 1, 3), (n + 1, 6 * dim((1, 1))), (n, 6 * dim((2,)))]
        raw += [(value, copies * dim(lam)) for lam, value, copies in _USP_FOUR]
        want: dict[Fraction, int] = {}
        for value, count in raw:
            want[Fraction(value)] = want.get(Fraction(value), 0) + count
        claimed, _ = mo._claimed_eigentable("usp", n, 4, 0)
        assert claimed == {v: c for v, c in want.items() if c}


def test_symplectic_degree_four_table_claims_every_count():
    for n in range(2, 301):
        claimed, _ = mo._claimed_eigentable("usp", n, 4, 0)
        assert all(type(c) is int and c > 0 for c in claimed.values())
        assert sum(claimed.values()) == (2 * n) ** 4
    # the trace formula's counts: below n = 4, where size-4 labels outgrow
    # the rank and the Brauer check above does not apply, and past its ranks
    for n in (2, 3, 4, 5, 16, 100, 300):
        assert mo.verify_eigentable("usp", n, 4).verified, n


@pytest.mark.parametrize("algebra,n", [("so", 2), ("su", 1), ("usp", 1)])
def test_rank_floor_is_enforced(algebra, n):
    with pytest.raises(InvalidRank):
        mo.moment_generator(algebra, n, 2)


def test_oversized_tensor_space_is_refused():
    with pytest.raises(TooLarge):
        mo.moment_generator("so", 60, 4)


def test_degree_above_four_is_refused():
    with pytest.raises(UnsupportedPattern):
        mo.moment("so", 5, [(0, 0)] * 5, 1.0)


@pytest.mark.parametrize("t", [-1.0, float("nan"), float("inf")])
def test_moment_times_must_be_finite_and_non_negative(t):
    with pytest.raises(InvalidTime):
        mo.moment("so", 5, [(0, 0), (0, 0)], t)


def test_moment_at_time_zero_is_the_identity_value():
    assert mo.moment("so", 5, [(0, 0), (0, 0)], 0.0) == pytest.approx(1.0)


def test_conjugate_slots_require_complex_entries():
    with pytest.raises(ValueError):
        mo.moment_generator("so", 5, 1, 1)


def test_unknown_pattern_name_is_rejected():
    with pytest.raises(UnsupportedPattern):
        mo.closed_form_value("so", 5, "nope", 1.0)


# -- squared zonal functions ----------------------------------------------


_ALL_QUOTIENTS = [("GrR", 10, 3), ("GrR", 13, 6), ("GrC", 2, 1), ("GrC", 5, 2),
                  ("GrH", 3, 1), ("GrH", 6, 3), ("SO2n_Un", 2, None),
                  ("SO2n_Un", 3, None), ("SO2n_Un", 10, None),
                  ("SUn_SOn", 2, None), ("SUn_SOn", 5, None),
                  ("SU2n_USpn", 2, None), ("SU2n_USpn", 5, None),
                  ("USpn_Un", 3, None), ("USpn_Un", 6, None)]


@pytest.mark.parametrize("family,n,q", _ALL_QUOTIENTS)
def test_zonal_square_coefficients_sum_to_one(family, n, q):
    desc = spaces.describe(family, n, q)
    expansion = mo.zonal_square_expansion(desc)
    assert sum(expansion.values()) == 1
    assert all(c >= 0 for c in expansion.values())
    kind = spaces.indexing_set(desc).kind
    assert all(w.kind is kind for w in expansion)


@pytest.mark.parametrize("family,n,q", [(f, n, q) for f, n, q in _ALL_QUOTIENTS
                                        if (f, n) not in (("SO2n_Un", 2),)])
def test_zonal_square_constant_is_inverse_dimension(family, n, q):
    desc = spaces.describe(family, n, q)
    _, a_min, _ = spaces.minimal_weight(desc)
    expansion = mo.zonal_square_expansion(desc)
    const = next(c for w, c in expansion.items() if w.is_zero)
    assert const == Fraction(1) / a_min


def test_two_sphere_expansions_match_the_legendre_identity():
    # three rank-degenerate spaces are two-spheres; the squared first
    # Legendre polynomial has constant coefficient one third
    for family, n, q in [("GrC", 2, 1), ("SUn_SOn", 2, None),
                         ("SO2n_Un", 2, None)]:
        desc = spaces.describe(family, n, q)
        expansion = mo.zonal_square_expansion(desc)
        const = sum(c for w, c in expansion.items() if w.is_zero)
        assert const == Fraction(1, 3)
        assert sum(expansion.values()) == 1


def test_real_projective_space_drops_the_two_column_label():
    desc = spaces.describe("GrR", 11, 1)
    expansion = mo.zonal_square_expansion(desc)
    assert all(len([p for p in w.parts if p]) <= 1 for w in expansion)
    assert sum(expansion.values()) == 1


def test_group_descriptor_has_no_zonal_square_expansion():
    with pytest.raises(UnsupportedSpace):
        mo.zonal_square_expansion(spaces.describe("SU", 5))


def test_rank_three_unitary_structure_space_folds_the_four_row_label():
    desc = spaces.describe("SO2n_Un", 3)
    expansion = mo.zonal_square_expansion(desc)
    labels = {tuple(int(p) for p in w.parts) for w in expansion}
    assert labels == {(0, 0, 0), (1, 1, 0), (2, 2, 0)}
    assert sum(expansion.values()) == 1


# -- the orbit engine against the tensor-space oracle ----------------------


def _column_shapes(algebra, n, slots):
    """One concrete column per orbit shape that fits at rank n: blocks
    numbered by first occurrence, with every offset for usp."""
    blocks = [()]
    for _ in range(slots):
        blocks = [b + (x,) for b in blocks
                  for x in range(min(n, 1 + max(b, default=-1) + 1))]
    if algebra != "usp":
        return [list(b) for b in blocks]
    return [[2 * x + off for x, off in zip(b, offs)] for b in blocks
            for offs in itertools.product((0, 1), repeat=slots)]


_ENGINE_CASES = (
    [("so", n, k, 0) for n in range(3, 7) for k in range(1, 5)]
    + [("su", n, k, s - k) for n in range(2, 6) for s in range(1, 5)
       for k in range(s + 1)]
    + [("usp", n, k, 0) for n in (2, 3) for k in range(1, 5)])


@pytest.mark.parametrize("algebra,n,k,l", _ENGINE_CASES)
def test_engine_matches_the_tensor_generator(algebra, n, k, l):
    rng = random.Random(f"{algebra}{n}.{k}.{l}")
    d = 2 * n if algebra == "usp" else n
    pairs = []
    for col in _column_shapes(algebra, n, k + l):
        rows = [col] + [[rng.randrange(d) for _ in col] for _ in range(3)]
        pairs += [(row, col) for row in rows]
    for t in (0.4, 2.5):
        want = expectation_entries(algebra, n, k, l, pairs, t)
        for (row, col), value in zip(pairs, want):
            pattern = ([(r, c) for r, c in zip(row[:k], col[:k])]
                       + [(r, c, True) for r, c in zip(row[k:], col[k:])])
            got = mo.moment(algebra, n, pattern, t)
            assert abs(got - value) <= 1e-12, (row, col, t)


@pytest.mark.parametrize("algebra", ["so", "su", "usp"])
@pytest.mark.parametrize("n", [16, 40, 100])
def test_engine_matches_closed_forms_at_large_rank(algebra, n):
    for name in mo.closed_form_names(algebra):
        for t in (0.05, 0.8, 4.0):
            want = mo.closed_form_value(algebra, n, name, t)
            got = mo.generator_moment(algebra, n, name, t)
            assert abs(got - want) <= 1e-12, (name, t)


def test_engine_structure_does_not_depend_on_the_rank():
    mo.moment("so", 7, [(0, 0), (0, 0), (1, 1), (1, 1)], 0.5)
    before = mo._orbit_flow.cache_info().currsize
    for n in (9, 30, 300):
        mo.moment("so", n, [(2, 2), (2, 2), (5, 5), (5, 5)], 0.5)
    assert mo._orbit_flow.cache_info().currsize == before


@pytest.mark.parametrize("call,error,message", [
    (lambda: mo.moment("sp", 5, [(0, 0)], 1.0), ValueError,
     "unknown algebra 'sp'"),
    (lambda: mo.moment("so", 2, [(0, 0)], 1.0), InvalidRank,
     "so(2): rank must be >= 3"),
    (lambda: mo.moment("usp", 1, [(0, 0)], 1.0), InvalidRank,
     "usp(1): rank must be >= 2"),
    (lambda: mo.moment("so", 5, [(0, 0)] * 5, 1.0), UnsupportedPattern,
     "degree 5 exceeds the tabulated range"),
    (lambda: mo.moment("so", 5, [(0, 0), (1, 1, True)], 1.0), ValueError,
     "conjugated slots only make sense for complex entries"),
    (lambda: mo.moment("so", 5, [(0, 5)], 1.0), ValueError,
     "index 5 out of range for dimension 5"),
    (lambda: mo.moment("usp", 3, [(6, 0), (0, 7)], 1.0), ValueError,
     "index 6 out of range for dimension 6"),
    (lambda: mo.moment("su", 3, [(0, 0, True, 1)], 1.0), ValueError,
     "bad pattern item (0, 0, True, 1)"),
    (lambda: mo.moment("so", 5, [(0, 0)], -0.5), InvalidTime,
     "time must be finite"),
])
def test_moment_input_errors(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value).startswith(message)


def test_degree_zero_pattern_is_one():
    assert mo.moment("so", 5, [], 1.0) == 1.0 + 0.0j


def test_moment_value_types():
    assert type(mo.moment("so", 5, [(0, 0)], 1.0)) is float
    assert type(mo.moment("su", 5, [(0, 0)], 1.0)) is complex
    assert type(mo.moment("usp", 5, [(0, 0)], 1.0)) is complex


def test_moment_verb_has_no_rank_cap(capsys):
    from cutofflab import cli

    assert cli.main(["moment", "--family", "SO", "--n", "60", "--pattern",
                     "1.1,1.1,2.2,2.2", "--t", "0.7"]) == 0
    payload = json.loads(capsys.readouterr().out)
    want = mo.closed_form_value("so", 60, "ii^2.jj^2", 0.7)
    assert abs(payload["value_re"] - want) <= 1e-12
    assert payload["value_im"] == 0.0


def test_dense_basis_squares_to_the_oracle_casimir():
    cases = [("so", False), ("su", False), ("su", True), ("usp", False)]
    for (algebra, conjugate), n in itertools.product(cases, (3, 4, 5)):
        basis = mo._orthonormal_basis(algebra, n)
        assert all(isinstance(x, np.ndarray) for x in basis)
        total = sum(np.kron(x, x.conj() if conjugate else x) for x in basis)
        err = np.abs(total - casimir_tensor(algebra, n, conjugate)).max()
        assert err < 1e-15, (algebra, conjugate, n)


@pytest.mark.parametrize("algebra,n,k,l", [
    ("so", 4, 2, 0), ("so", 5, 2, 0), ("su", 3, 2, 0), ("su", 3, 1, 1),
    ("su", 3, 0, 2), ("su", 4, 1, 1), ("usp", 2, 2, 0), ("usp", 3, 2, 0)])
def test_two_slot_generator_is_the_drift_plus_the_casimir_tensor(algebra, n, k, l):
    # on two slots the drift (k + l) alpha / 2 is alpha, and the one pair
    # term is conj(sum X (x) X) = sum X (x) X on (0, 2)
    gen = mo.moment_generator(algebra, n, k, l).generator.toarray()
    drift = float(spaces.drift_coefficient(algebra, n)) * np.eye(len(gen))
    want = casimir_tensor(algebra, n, conjugate=k == l)
    assert np.abs(gen - drift - want).max() < 1e-14


def test_runtime_routes_do_not_import_scipy():
    script = """
import contextlib
import io
import sys
import cutofflab
from cutofflab import cli, verification
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["tv-bound", "--family", "SO", "--n", "10",
                     "--eps", "0.2"]) == 0
    assert cli.main(["moment", "--family", "USp", "--n", "3",
                     "--pattern", "1.1,2.2", "--t", "0.5"]) == 0
    assert cli.main(["eigentable", "--family", "USp", "--n", "40",
                     "--k", "4"]) == 0
cutofflab.moment("usp", 3, [(0, 0), (1, 1), (2, 3), (3, 2)], 0.5)
cutofflab.moment("su", 4, [(0, 1), (0, 1, True)], 0.5)
d = cutofflab.describe("SO", 10)
cutofflab.tv_upper_bound(d, 1.2 * cutofflab.t_zero(d))
cutofflab.profile(d, [0.5, 2.0])
cutofflab.estimate(cutofflab.describe("GrC", 4, 1), "omega", 0.1,
                   cutofflab.SimulationConfig(paths=4, seed=1))
assert verification.run_check("moment-generator-vs-closed-forms").passed
assert verification.run_check("eigen-tables").passed
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(",".join(loaded))
"""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""
