"""The package surface: exported names and the version."""

from __future__ import annotations

import re
from pathlib import Path

import cutofflab


def test_exports_resolve_and_version_matches_pyproject():
    names = cutofflab.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(cutofflab, name), name
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    declared = re.search(r'^version = "([^"]+)"$', pyproject.read_text(),
                         re.MULTILINE)
    assert declared is not None
    assert cutofflab.__version__ == declared.group(1)
