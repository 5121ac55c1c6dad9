"""Byte-for-byte regression of every deterministic CLI verb and format.

``tests/test_golden_cli.py`` and ``tests/test_golden_profile.py`` pin the
series, bound and profile numbers; this file pins the remaining verbs and
both output formats of each: ``describe``, ``eta``, ``density`` (angle,
alphabet and circle), ``moment``, ``eigentable``, ``zonal-expansion``,
``simulate``, ``estimate`` and ``profile``.  The recorded stdout in
``tests/data/golden_cli_verbs.json`` was captured at version 0.8.0, before
the CLI's payloads, checks and CSV writers were folded into the library.

Recapture (only when an output change is intended):

    PYTHONPATH=src python tests/test_golden_cli_verbs.py

and compare the new recording with the old one, which must agree but for
floats within 1e-12 relative:

    python tests/golden_diff.py OLD.json tests/data/golden_cli_verbs.json
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

DATA = Path(__file__).resolve().parent / "data" / "golden_cli_verbs.json"

_SPACES = [
    ["--family", "SO", "--n", "10"],
    ["--family", "USp", "--n", "6"],
    ["--family", "GrH", "--n", "12", "--q", "3"],
    ["--family", "SU2n_USpn", "--n", "10"],
]
_FORMATS = [[], ["--format", "csv"]]


def _argvs() -> list[list[str]]:
    out = [["describe", *space, *fmt] for space in _SPACES for fmt in _FORMATS]
    out += [["eta", "--family", "SO", "--n", "10", *fmt] for fmt in _FORMATS]
    out += [
        ["eta", "--family", "USp", "--n", "6", "--l", "2", "--cap", "4",
         "--t", "1.5"],
        ["eta", "--family", "SU", "--n", "5", "--base", "1,0,0,0", "--cap",
         "3", "--format", "csv"],
        ["density", "--family", "SO", "--n", "3", "--t", "1", "--theta",
         "0.7"],
        ["density", "--family", "SU", "--n", "2", "--t", "0.5", "--theta",
         "2.0"],
        ["density", "--family", "SU", "--n", "3", "--t", "1", "--alphabet",
         "0.1,0.5,-0.6"],
        ["density", "--family", "circle", "--n", "1", "--t", "1", "--theta",
         "1"],
        ["moment", "--family", "SO", "--n", "4", "--pattern", "1.1,2.2",
         "--t", "0.5"],
        ["moment", "--family", "SO", "--n", "5", "--pattern",
         "1.2,1.2,3.3,3.3", "--t", "0.4"],
        ["moment", "--family", "SU", "--n", "3", "--pattern", "1.2,1.2*",
         "--t", "0.7"],
        ["moment", "--family", "USp", "--n", "2", "--pattern",
         "1.1,2.2,3.3,4.4", "--t", "0.3"],
        ["eigentable", "--family", "SO", "--n", "5", "--k", "2"],
        ["eigentable", "--family", "SO", "--n", "6", "--k", "4"],
        ["eigentable", "--family", "SU", "--n", "3", "--k", "1", "--l", "1"],
        ["eigentable", "--family", "SU", "--n", "4", "--k", "2", "--l", "2"],
        ["eigentable", "--family", "USp", "--n", "3", "--k", "2"],
    ]
    out += [["zonal-expansion", "--family", "GrR", "--n", "6", "--q", "2",
             *fmt] for fmt in _FORMATS]
    out += [["zonal-expansion", "--family", "SU2n_USpn", "--n", "4"]]
    out += [["simulate", "--family", "SO", "--n", "4", "--t", "0.5",
             "--paths", "5", *fmt] for fmt in _FORMATS]
    out += [
        ["simulate", "--family", "GrC", "--n", "5", "--q", "2", "--t", "0.3",
         "--paths", "4", "--steps", "7", "--seed", "9", "--format", "csv"],
        ["estimate", "--family", "SO", "--n", "3", "--t", "1", "--statistic",
         "trace", "--paths", "200", "--threads", "1"],
        ["estimate", "--family", "SU", "--n", "3", "--t", "0.5",
         "--statistic", "abs_omega_sq", "--paths", "100", "--seed", "4",
         "--threads", "2"],
        ["estimate", "--family", "USp", "--n", "2", "--statistic",
         "abs_trace_sq", "--paths", "50", "--threads", "1"],
    ]
    out += [["profile", "--family", "SO", "--n", "10", "--points", "5", *fmt]
            for fmt in _FORMATS]
    out += [["profile", "--family", "GrH", "--n", "12", "--q", "3",
             "--points", "4", "--format", "csv"]]
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
