"""Dead code in the package: imported names a module never uses,
module-level private functions and assigned names that nothing in ``src/``,
``perfbench/`` or ``demos/`` references, and public methods and properties,
and instance attributes stored as ``self.name = ...``, that no attribute
access there reads, and names in ``cutofflab.__all__`` that nothing there
but ``__init__.py`` reads, unless ``perfbench/spans.py`` traces them by
name.  References from tests do not count: a helper only a test calls is
dead in the package.  The scan uses the standard library's
``ast`` only, since neither pyflakes nor ruff is a test dependency.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cutofflab"
MODULES = sorted(PACKAGE.glob("*.py"))
# the code whose reads keep a name alive: tests do not count
CONSUMERS = sorted(path for folder in ("src", "perfbench", "demos")
                   for path in (ROOT / folder).rglob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _names_in(node: ast.AST) -> set[str]:
    """Names read in an expression, including inside string annotations."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                out |= _names_in(ast.parse(sub.value, mode="eval"))
            except SyntaxError:
                pass
    return out


def _used_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [
                    args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    used |= _names_in(arg.annotation)
            if node.returns is not None:
                used |= _names_in(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _names_in(node.annotation)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used |= {elt.value for elt in node.value.elts}  # re-exports
    return used


def _imported_names(tree: ast.Module) -> list[tuple[str, int]]:
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(a.asname or a.name.split(".")[0], node.lineno)
                    for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(a.asname or a.name, node.lineno) for a in node.names]
    return out


def _references(paths) -> set[str]:
    """Every identifier read, looked up as an attribute or imported."""
    refs = set()
    for path in paths:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name):
                if not isinstance(node.ctx, ast.Store):  # a binding is no use
                    refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.alias):
                refs.add(node.name.split(".")[-1])
    return refs


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    tree = _tree(path)
    used = _used_names(tree)
    unused = [f"line {line}: {name}" for name, line in _imported_names(tree)
              if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_every_private_function_is_referenced():
    refs = _references(CONSUMERS)
    orphans = [f"{path.name}: {node.name}"
               for path in MODULES for node in _tree(path).body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and node.name.startswith("_") and not node.name.endswith("__")
               and node.name not in refs]
    assert not orphans, f"private functions nothing references: {orphans}"


def _private_assignments(tree: ast.Module) -> list[str]:
    """Private names a module binds by assignment at its top level."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        out += [sub.id for target in targets for sub in ast.walk(target)
                if isinstance(sub, ast.Name) and sub.id.startswith("_")
                and not sub.id.endswith("__")]
    return out


def test_every_private_assignment_is_referenced():
    refs = _references(CONSUMERS)
    orphans = [f"{path.name}: {name}" for path in MODULES
               for name in _private_assignments(_tree(path))
               if name not in refs]
    assert not orphans, f"private names nothing references: {orphans}"


def test_the_scan_sees_an_unused_import_and_an_orphan(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text("from typing import Optional, Sequence\n\n"
                      "_ALIAS = tuple[int, int]\n"
                      "_USED, _LIMIT = 1, 2\n\n\n"
                      "def _orphan(x: 'Sequence[int]') -> int:\n"
                      "    return len(x) + _USED\n")
    tree = _tree(module)
    unused = [name for name, _ in _imported_names(tree)
              if name not in _used_names(tree)]
    assert unused == ["Optional"]
    refs = _references([module])
    assert "_orphan" not in refs
    assert [name for name in _private_assignments(tree)
            if name not in refs] == ["_ALIAS", "_LIMIT"]


def _attribute_reads(paths) -> set[str]:
    """Every name read as an attribute, ``x.name``."""
    return {node.attr for path in paths for node in ast.walk(_tree(path))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def _public_methods(tree: ast.Module) -> list[str]:
    """Class.name of each public method or property a module's classes
    define; dunder names are private here, and dataclass or NamedTuple
    fields are annotated assignments, not methods."""
    return [f"{cls.name}.{node.name}" for cls in tree.body
            if isinstance(cls, ast.ClassDef) for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_")]


def test_every_public_method_is_read_outside_the_tests():
    reads = _attribute_reads(CONSUMERS)
    orphans = [f"{path.name}: {name}" for path in MODULES
               for name in _public_methods(_tree(path))
               if name.split(".")[1] not in reads]
    assert not orphans, f"public methods only tests read: {orphans}"


def test_the_method_scan_sees_a_method_nothing_reads(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text("from typing import NamedTuple\n\n\n"
                      "class Probe(NamedTuple):\n"
                      "    field: int\n\n"
                      "    def __str__(self) -> str:\n"
                      "        return self.shown()\n\n"
                      "    def shown(self) -> str:\n"
                      "        return str(self.field)\n\n"
                      "    @property\n"
                      "    def unread(self) -> int:\n"
                      "        return 0\n\n"
                      "    def stored(self) -> None:\n"
                      "        self.unread = 1\n")
    tree = _tree(module)
    assert _public_methods(tree) == ["Probe.shown", "Probe.unread",
                                     "Probe.stored"]
    reads = _attribute_reads([module])
    assert [name for name in _public_methods(tree)
            if name.split(".")[1] not in reads] == ["Probe.unread",
                                                    "Probe.stored"]


def _stored_attributes(tree: ast.Module) -> list[str]:
    """Class.name of each instance attribute a module's classes store,
    ``self.name = ...``, once each."""
    out = {}
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in ast.walk(cls):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for sub in (sub for target in targets for sub in ast.walk(target)):
                if (isinstance(sub, ast.Attribute)
                        and isinstance(sub.value, ast.Name)
                        and sub.value.id == "self"):
                    out[f"{cls.name}.{sub.attr}"] = None
    return list(out)


def test_every_stored_attribute_is_read_outside_the_tests():
    reads = _attribute_reads(CONSUMERS)
    orphans = [f"{path.name}: {name}" for path in MODULES
               for name in _stored_attributes(_tree(path))
               if name.split(".")[1] not in reads]
    assert not orphans, f"attributes stored and never read: {orphans}"


def test_the_attribute_scan_sees_an_array_nothing_reads(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text("class Probe:\n"
                      "    def __init__(self) -> None:\n"
                      "        self.rows, self.total = [], 0\n"
                      "        self.columns: list = []\n\n"
                      "    def grow(self) -> None:\n"
                      "        self.total = len(self.rows)\n"
                      "        self.columns = [self.total]\n")
    tree = _tree(module)
    assert _stored_attributes(tree) == ["Probe.rows", "Probe.total",
                                        "Probe.columns"]
    reads = _attribute_reads([module])
    assert [name for name in _stored_attributes(tree)
            if name.split(".")[1] not in reads] == ["Probe.columns"]


def _traced_names() -> set[str]:
    """The functions ``perfbench/spans.py`` wraps by name, its ``TRACED``."""
    for node in _tree(ROOT / "perfbench" / "spans.py").body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TRACED"
                        for t in node.targets)):
            return {pair.elts[1].value for pair in node.value.elts}
    raise AssertionError("perfbench/spans.py binds no TRACED")


def test_every_public_name_is_read_outside_the_tests():
    import cutofflab
    refs = _references(path for path in CONSUMERS
                       if path != PACKAGE / "__init__.py")
    kept = refs | _traced_names()
    orphans = [name for name in cutofflab.__all__ if name not in kept]
    assert not orphans, f"public names only tests read: {orphans}"
