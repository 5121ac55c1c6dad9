"""Byte-for-byte regression of the series verbs against recorded output.

The recorded stdout in ``tests/data/golden_cli.json`` pins the series verbs
byte for byte: same labels in the same order give the same floats, partial
sums, argmaxes and certificates.

Recapture (only when an output change is intended):

    PYTHONPATH=src python tests/test_golden_cli.py

and compare the new recording with the old one, which must agree but for
floats within 1e-12 relative:

    python tests/golden_diff.py OLD.json tests/data/golden_cli.json
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

DATA = Path(__file__).resolve().parent / "data" / "golden_cli.json"

# (family, n, q, cut-off time t0 rounded to 3 decimals)
_SPACES = [
    ("SO", 10, None, 4.605),
    ("SO", 21, None, 6.089),
    ("SU", 7, None, 3.892),
    ("USp", 6, None, 3.584),
    ("GrR", 20, 2, 2.996),
    ("GrH", 12, 3, 2.485),
    ("SU2n_USpn", 10, None, 2.996),
]


def _argvs() -> list[list[str]]:
    out = []
    for family, n, q, t0 in _SPACES:
        space = ["--family", family, "--n", str(n)]
        if q is not None:
            space += ["--q", str(q)]
        out += [
            ["tv-bound", *space, "--eps", "0.5"],
            ["tv-bound", *space, "--eps", "-0.2"],
            ["series", *space, "--t", f"{1.5 * t0:.4f}"],
            ["series", *space, "--t", f"{0.8 * t0:.4f}", "--cap", "12"],
            ["bound-sweep", *space],
        ]
    return out


def _run(argv: list[str]) -> tuple[int, str]:
    from cutofflab.cli import main

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


def _recorded() -> dict[tuple, str]:
    cases = json.loads(DATA.read_text())["cases"]
    return {tuple(case["argv"]): case["stdout"] for case in cases}


def test_every_argv_has_a_recording():
    assert sorted(_recorded()) == sorted(map(tuple, _argvs()))


@pytest.mark.parametrize("argv", _argvs(), ids=" ".join)
def test_stdout_matches_the_recorded_bytes(argv):
    code, text = _run(argv)
    assert code == 0
    assert text == _recorded()[tuple(argv)]


if __name__ == "__main__":
    cases = []
    for argv in _argvs():
        code, text = _run(argv)
        if code != 0:
            sys.exit(f"capture failed: {argv}")
        cases.append({"argv": argv, "stdout": text})
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps({"cases": cases}, indent=1) + "\n")
