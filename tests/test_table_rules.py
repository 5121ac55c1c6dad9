"""The certificate path derives every per-family fact from the table row and
the root datum: the series tail equals the per-family tail it replaced bit
for bit, the fold and the chirality factor sit where the root types say
(the factor as one rule over rows of doubled parts, which alone tests a
label's last part against 0 and which the characters read),
and the functions on the path name no ``Family`` member.  The density's
float engine reads the term table alone: neither it nor a helper it calls
names an exact per-label route.  The output format has one home: no module
but the command line defines ``to_json_dict`` or imports ``json``."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from cutofflab.heatseries import (_fold, _su_steps, _tail_bound, _term_table,
                                  t_zero)
from cutofflab.partitions import _half_cap
from cutofflab.spaces import (FAMILY_NAMES, CharType, Family, _TABLE,
                              _chiralities, _chirality, describe,
                              indexing_set)
from tail_oracle import oracle_su_steps, oracle_tail_bound

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cutofflab"

RATIOS = (1.003, 1.02, 1.1, 1.25, 2.5)  # t / t0


def _spaces(family: str) -> list:
    n0 = _TABLE[Family(family)].n0
    out = []
    for n in (n0, n0 + 5):
        qs = sorted({1, n // 2}) if family.startswith("Gr") else (None,)
        out += [describe(family, n, q) for q in qs]
    return out


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_tail_bound_equals_the_per_family_oracle(family):
    for desc in _spaces(family):
        t0 = t_zero(desc)
        for ratio in RATIOS:
            for cap in (40, 80):
                got = _tail_bound(desc, ratio * t0, cap, t0)
                want = oracle_tail_bound(desc, ratio * t0, cap, t0)
                assert got == want, (str(desc), ratio, cap)


# SO(n)'s half labels sit above the half cap (2 cap - n // 2) // 2, which
# falls from positive through 0 to far below it as the length grows
LONG_SO = (10, 81, 82, 161, 1001, 10**5)


@pytest.mark.parametrize("n", LONG_SO)
def test_tail_bound_equals_the_oracle_at_long_lengths(n):
    desc = describe("SO", n)
    t0 = t_zero(desc)
    for cap in (40, 80, 160):
        for ratio in RATIOS:
            got = _tail_bound(desc, ratio * t0, cap, t0)
            want = oracle_tail_bound(desc, ratio * t0, cap, t0)
            assert got == want, (n, ratio, cap)


def test_the_long_lengths_reach_every_sign_of_the_half_cap():
    halves = {_half_cap(cap, n // 2) for n in LONG_SO for cap in (40, 80, 160)}
    assert min(halves) < 0 and 0 in halves and max(halves) > 0


@pytest.mark.parametrize("family", ("SU", "SUn_SOn", "SU2n_USpn"))
def test_type_a_steps_equal_the_per_family_oracle(family):
    for n in range(2, 16):
        desc = describe(family, n)
        for gap in (0.003, 0.4, 2.5):
            assert _su_steps(desc, gap) == oracle_su_steps(desc, gap), (n, gap)


def test_fold_is_two_exactly_on_even_orthogonal_groups():
    for family in FAMILY_NAMES:
        for n in range(_TABLE[Family(family)].min_n, 12):
            desc = describe(family, n, 1 if family.startswith("Gr") else None)
            want = 2 if family == "SO" and n % 2 == 0 else 1
            assert _fold(desc) == want, (family, n)


def test_chirality_counts_both_pieces_of_a_full_length_type_d_label():
    so4, so5 = describe("SO", 4), describe("SO", 5)
    assert so4.root.type is CharType.D
    assert _chirality(so4, indexing_set(so4).label((1, 1))) == 2
    assert _chirality(so4, indexing_set(so4).label((1,))) == 1
    assert _chirality(so5, indexing_set(so5).label((1, 1))) == 1  # type B
    grr = describe("GrR", 4, 2)  # type D rank 2, label (2, 0)
    assert _chirality(grr, indexing_set(grr).label((2,))) == 1
    so2n_un = describe("SO2n_Un", 2)  # SO(4), label (1, 1)
    assert _chirality(so2n_un, indexing_set(so2n_un).label((1, 1))) == 2


@pytest.mark.parametrize("family,n,cap,width", [
    ("SO", 8, 6, 4), ("SO", 9, 6, 4), ("SO2n_Un", 4, 6, 4),
    ("SO2n_Un", 4, 3, 2)])
def test_chirality_over_table_rows_is_the_rule_of_each_label(family, n, cap,
                                                             width):
    # the term table's rows are as wide as its widest label: at cap 3 no
    # SO2n_Un(4) label (pairs of equal parts) reaches the fourth coordinate,
    # and every factor is 1
    desc = describe(family, n)
    table = _term_table(desc, cap)
    rows = table.labels.rows(range(len(table.b)))
    assert rows.shape[1] == width
    got = _chiralities(desc.root, rows)
    idx = indexing_set(desc)
    assert got.tolist() == [_chirality(desc, idx.pad(row))
                            for row in rows.tolist()]
    full = desc.root.type is CharType.D and width == desc.root.rank
    assert got.tolist() == [2 if full and row[-1] else 1
                            for row in rows.tolist()]
    assert (2 in got.tolist()) == full


# -- no family branches on the certificate path ----------------------------

TABLE_DRIVEN = {
    "heatseries.py": ("_tail_bound", "_su_steps", "series_terms",
                      "_term_table", "density"),
    "spaces.py": ("minimal_weight",),
    "cutoff.py": ("_group_square_terms",),
}


def _family_members_named(tree: ast.Module, names) -> dict[str, list[str]]:
    """``Family.<member>`` attributes inside each named top-level function."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in names:
            out[node.name] = [
                f"line {sub.lineno}: Family.{sub.attr}"
                for sub in ast.walk(node)
                if isinstance(sub, ast.Attribute)
                and isinstance(sub.value, ast.Name) and sub.value.id == "Family"]
    return out


@pytest.mark.parametrize("module", sorted(TABLE_DRIVEN))
def test_the_certificate_path_names_no_family(module):
    tree = ast.parse((PACKAGE / module).read_text())
    found = _family_members_named(tree, TABLE_DRIVEN[module])
    assert sorted(found) == sorted(TABLE_DRIVEN[module])  # all still exist
    named = {name: refs for name, refs in found.items() if refs}
    assert not named, f"{module} branches on families: {named}"


def test_the_scan_sees_a_family_branch():
    tree = ast.parse("def _tail_bound(d):\n"
                     "    return 1 if d.family is Family.SO else 2\n\n\n"
                     "def other(d):\n"
                     "    return Family.SU\n")
    assert _family_members_named(tree, ("_tail_bound",)) == {
        "_tail_bound": ["line 2: Family.SO"]}


# -- the density reads the term table --------------------------------------

EXACT_ROUTES = ("dimension", "casimir_exponent", "enumerate_by_size")


def _names_reached(tree: ast.Module, root: str) -> set[str]:
    """Every name and attribute read in the top-level function ``root``
    and in the module's functions it calls, transitively."""
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    seen, todo, names = set(), [root], set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for sub in ast.walk(functions[name]):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
                if sub.id in functions:
                    todo.append(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
    return names


def test_the_density_names_no_exact_route():
    tree = ast.parse((PACKAGE / "heatseries.py").read_text())
    named = _names_reached(tree, "density") & set(EXACT_ROUTES)
    assert not named, f"density reaches exact per-label routes: {named}"


def test_the_scan_follows_the_density_into_its_helpers():
    tree = ast.parse("def density(d):\n"
                     "    return _rows(d) + d.total\n\n\n"
                     "def _rows(d):\n"
                     "    return repchar.dimension(d)\n\n\n"
                     "def other(d):\n"
                     "    return enumerate_by_size(d)\n")
    named = _names_reached(tree, "density") & set(EXACT_ROUTES)
    assert named == {"dimension"}


# -- the chirality rule has one home ----------------------------------------


def _is_last_part(node: ast.AST) -> bool:
    """A subscript whose last index is -1: ``row[-1]``, ``rows[:, -1]``."""
    if not isinstance(node, ast.Subscript):
        return False
    index = node.slice
    if isinstance(index, ast.Tuple):
        index = index.elts[-1]
    try:
        return ast.literal_eval(index) == -1
    except ValueError:
        return False


def _last_part_zero_tests(tree: ast.Module) -> list[str]:
    """``function: line n`` of each ``== 0`` or ``!= 0`` test of a last
    part, the chirality rule's test, in each top-level function or class."""
    out = []
    for top in tree.body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Compare) and len(node.ops) == 1
                    and isinstance(node.ops[0], (ast.Eq, ast.NotEq))):
                sides = (node.left, node.comparators[0])
                if (any(_is_last_part(side) for side in sides)
                        and any(isinstance(side, ast.Constant)
                                and side.value == 0 for side in sides)):
                    out.append(f"{getattr(top, 'name', '<module>')}: "
                               f"line {node.lineno}")
    return out


def test_only_the_chirality_rule_tests_a_last_part_against_zero():
    found = {path.name: _last_part_zero_tests(ast.parse(path.read_text()))
             for path in sorted(PACKAGE.glob("*.py"))}
    found = {name: tests for name, tests in found.items() if tests}
    assert list(found) == ["spaces.py"], found
    assert [where.split(":")[0] for where in found["spaces.py"]] == [
        "_chiralities"], found


def test_the_characters_read_the_chirality_rule():
    tree = ast.parse((PACKAGE / "repchar.py").read_text())
    assert "_chiralities" in _names_reached(tree, "characters")


def test_the_scan_sees_a_copy_of_the_chirality_rule():
    tree = ast.parse("def characters(rows2, num, n):\n"
                     "    if rows2.shape[1] == n:\n"
                     "        num[rows2[:, -1] != 0] *= 2.0\n"
                     "    return num\n\n\n"
                     "def other(weight):\n"
                     "    if weight.parts2[-1] < 0 or weight.parts2[0] == 0:\n"
                     "        return 0\n"
                     "    return 2 if 0 == weight.parts2[-1] else 1\n")
    assert _last_part_zero_tests(tree) == ["characters: line 3",
                                           "other: line 10"]
    assert "_chiralities" not in _names_reached(tree, "characters")


# -- the command line is the one home of the output format ------------------


def _output_policy(tree: ast.Module) -> list[str]:
    """``to_json_dict`` definitions and ``json`` imports anywhere in a module."""
    out = []
    for node in ast.walk(tree):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name == "to_json_dict"):
            out.append(f"line {node.lineno}: def to_json_dict")
        elif isinstance(node, ast.Import):
            out += [f"line {node.lineno}: import {a.name}" for a in node.names
                    if a.name.split(".")[0] == "json"]
        elif (isinstance(node, ast.ImportFrom) and node.module
              and node.module.split(".")[0] == "json"):
            out.append(f"line {node.lineno}: from {node.module} import")
    return out


def test_only_the_command_line_formats_output():
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "cli.py" in modules
    found = {path.name: _output_policy(ast.parse(path.read_text()))
             for path in modules if path.name != "cli.py"}
    found = {name: refs for name, refs in found.items() if refs}
    assert not found, f"output format outside cli.py: {found}"


def test_the_scan_sees_output_policy():
    tree = ast.parse("import json as js\n"
                     "from json import dumps\n\n\n"
                     "class Report:\n"
                     "    def to_json_dict(self):\n"
                     "        return {}\n\n\n"
                     "def to_dict():\n"
                     "    import jsonschema\n")
    assert _output_policy(tree) == ["line 1: import json",
                                    "line 2: from json import",
                                    "line 6: def to_json_dict"]
