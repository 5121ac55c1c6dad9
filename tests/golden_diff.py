"""Compare two recordings of a golden file, old against new.

    python tests/golden_diff.py OLD.json NEW.json [--may-change KEY ...]

Everything must be identical except floats: structure, dictionary keys,
strings (argmaxes and labels among them), integers (``terms_used``,
``size_cap``), booleans (``certified``) and ``None``.  Floats, and strings
that hold ``float.hex`` values, must agree within 1e-12 relative.  A
recorded stdout is compared through its parse: JSON when it parses, else
CSV field by field, where a field that reads as an integer is an integer
and one that reads as a float is a float.  The values under a key named by
``--may-change`` (a digest, say) may differ outright; each such change is
listed.  The script prints the largest relative float change and every
failure, and exits 1 on a failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path
from typing import Any, Iterator

RTOL = 1e-12


def _hex_float(text: str) -> float | None:
    if "0x" not in text and text not in ("inf", "-inf", "nan"):
        return None
    try:
        return float.fromhex(text)
    except ValueError:
        return None


def _field(text: str) -> Any:
    """A CSV field as an int, a float or the text itself."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _parsed(text: str) -> Any:
    """A recorded stdout as JSON, or as CSV rows of typed fields."""
    try:
        return json.loads(text)
    except ValueError:
        return [[_field(f) for f in row] for row in csv.reader(io.StringIO(text))]


def _relative(old: float, new: float) -> float:
    if old == new or (math.isnan(old) and math.isnan(new)):
        return 0.0
    if not (math.isfinite(old) and math.isfinite(new)):
        return math.inf
    return abs(new - old) / max(abs(old), abs(new))


def compare(old: Any, new: Any, may_change: frozenset = frozenset(),
            path: str = "") -> Iterator[tuple[str, str, float]]:
    """(path, kind, relative change) for every difference: kind is
    ``float`` for a float change, ``changed`` for an allowed one and
    ``fail`` for any other."""
    if isinstance(old, dict) and isinstance(new, dict):
        if sorted(old) != sorted(new):
            yield path, "fail", math.inf
            return
        for key in old:
            sub = f"{path}/{key}"
            if key in may_change:
                if old[key] != new[key]:
                    yield sub, "changed", math.inf
                continue
            yield from compare(old[key], new[key], may_change, sub)
        return
    if isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            yield path, "fail", math.inf
            return
        for i, (a, b) in enumerate(zip(old, new)):
            yield from compare(a, b, may_change, f"{path}[{i}]")
        return
    if isinstance(old, str) and isinstance(new, str):
        if old == new:
            return
        a, b = _hex_float(old), _hex_float(new)
        if a is not None and b is not None:
            old, new = a, b
        elif path.endswith("/stdout"):
            yield from compare(_parsed(old), _parsed(new), may_change, path)
            return
        else:
            yield path, "fail", math.inf
            return
    if isinstance(old, float) and isinstance(new, float):
        change = _relative(old, new)
        if change:
            yield path, "float" if change <= RTOL else "fail", change
        return
    # bool, int, None and mixed types: identical or a failure
    if type(old) is not type(new) or old != new:
        yield path, "fail", math.inf


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--may-change", action="append", default=[],
                        metavar="KEY")
    args = parser.parse_args(argv)
    old = json.loads(args.old.read_text())
    new = json.loads(args.new.read_text())
    diffs = list(compare(old, new, frozenset(args.may_change)))
    floats = [d for d in diffs if d[1] == "float"]
    fails = [d for d in diffs if d[1] == "fail"]
    changed = [d for d in diffs if d[1] == "changed"]
    print(f"{args.new.name}: {len(floats)} floats changed within {RTOL:g}, "
          f"{len(changed)} allowed changes, {len(fails)} failures")
    if floats:
        path, _, change = max(floats, key=lambda d: d[2])
        print(f"largest relative float change: {change:.3g} at {path}")
    for path, _, _ in changed:
        print(f"changed: {path}")
    for path, _, _ in fails:
        print(f"FAIL: {path}")
    return 1 if fails else 0


if __name__ == "__main__":
    sys.exit(main())
