"""Byte-for-byte regression of ``profile`` and of near-cut-off ``series``.

The recorded stdout in ``tests/data/golden_profile.json`` was captured
before the tail certificates and the lower-bound coefficients were cached
(commit 6db0f07), and re-recorded when the partition tails became exact
and outward-rounded.  Both sides of the profile must reproduce it exactly:
the lower bound from the same floats in the same order, the upper bound
from tail certificates equal to the last bit.  The ``series`` cases sit
just above the cut-off time, where the type A tail's horizon doubles
several times.

Recapture (only when an output change is intended):

    PYTHONPATH=src python tests/test_golden_profile.py

and compare the new recording with the old one, which must agree but for
floats within 1e-12 relative:

    python tests/golden_diff.py OLD.json tests/data/golden_profile.json
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

DATA = Path(__file__).resolve().parent / "data" / "golden_profile.json"

# (family, n, q, cut-off time t0 rounded to 4 decimals)
_SPACES = [
    ("SO", 10, None, 4.6052),
    ("SU", 6, None, 3.5835),
    ("USp", 5, None, 3.2189),
    ("GrC", 14, 5, 2.6391),
    ("SUn_SOn", 10, None, 2.3026),
    ("SU2n_USpn", 10, None, 2.9957),
    ("USpn_Un", 9, None, 2.1972),
]
# spaces whose series is also recorded at 1.02 t0
_NEAR_CUTOFF = ("SU", "GrC", "SUn_SOn", "SU2n_USpn")


def _argvs() -> list[list[str]]:
    out = []
    for family, n, q, t0 in _SPACES:
        space = ["--family", family, "--n", str(n)]
        if q is not None:
            space += ["--q", str(q)]
        out.append(["profile", *space, "--format", "json"])
        if family in _NEAR_CUTOFF:
            out.append(["series", *space, "--t", f"{1.02 * t0:.4f}"])
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
