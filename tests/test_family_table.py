"""Regression of every per-family fact against a recorded table.

``tests/data/golden_family_table.json`` holds, for each family from its
least rank to n0 + 7 (both parities) and q in {1, floor(n/2)}: the indexing
set, the ambient bookkeeping, the per-term constants, the variance cap, the
exact dimension and Casimir rate of the first 50 labels, digests of the
float term table at cap 12, its labels in size order, and the
total-variation upper bound at 1.1 and 1.5 times the cut-off time.  Floats are stored with ``float.hex`` and
arrays as SHA-256 digests of their bytes, so the comparison is exact.

Recapture (only when an output change is intended):

    PYTHONPATH=src python tests/test_family_table.py

and compare the new recording with the old one, which must agree but for
floats within 1e-12 relative:

    python tests/golden_diff.py OLD.json tests/data/golden_family_table.json \\
        --may-change log_dim
"""

from __future__ import annotations

import hashlib
import itertools
import json
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data" / "golden_family_table.json"


def _spaces():
    from cutofflab.errors import InvalidRank
    from cutofflab.spaces import FAMILY_NAMES, describe

    out = []
    for family in FAMILY_NAMES:
        for n in range(2, 18):  # n0 + 7 is at most 17
            qs = (1, n // 2) if family.startswith("Gr") else (None,)
            for q in dict.fromkeys(qs):
                try:
                    desc = describe(family, n, q)
                except InvalidRank:
                    continue  # below the family's least rank
                if n <= desc.n0 + 7:
                    out.append(desc)
    return out


def _digest(values) -> str:
    import numpy as np

    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


def _row(desc) -> dict:
    from cutofflab.cutoff import variance_cap
    from cutofflab.heatseries import _term_table, t_zero, tv_upper_bound
    from cutofflab.partitions import enumerate_by_size, label_table
    from cutofflab.repchar import casimir_exponent, dimension
    from cutofflab.spaces import indexing_set, matrix_side

    idx = indexing_set(desc)
    cap = 8
    while len(label_table(idx, cap)) + 1 < 50 and cap < 64:
        cap *= 2
    labels = list(itertools.islice(enumerate_by_size(idx, cap), 50))
    t0 = t_zero(desc)
    table = _term_table(desc, 12)
    return {
        "descriptor": {
            "family": desc.family.value, "n": desc.n, "q": desc.q,
            "beta": desc.beta, "alpha_cutoff": desc.alpha_cutoff,
            "n0": desc.n0, "c_lower": desc.c_lower, "C_upper": desc.C_upper,
            "gamma_b": desc.gamma_b, "gamma_a": desc.gamma_a,
            "drift_alpha": str(desc.drift_alpha), "is_group": desc.is_group},
        "algebra": desc.algebra,
        "proven_min_n": desc.proven_min_n,
        "indexing_set": [idx.kind.value, idx.length],
        "param": desc.param,
        "matrix_size": matrix_side(desc.algebra, desc.param),
        "ambient_group": str(desc.ambient_group()),
        "drift_alpha": str(desc.drift_alpha),
        "per_term": [None if c is None else str(c) for c in desc.per_term],
        "variance_cap": variance_cap(desc, 0.9 * t0).hex(),
        "labels": [str(w) for w in labels],
        "dimension": [str(dimension(desc, w)) for w in labels],
        "casimir_exponent": [str(casimir_exponent(desc, w)) for w in labels],
        "log_dim": _digest(table.log_dim[table.labels.by_size]),
        "b": _digest(table.b[table.labels.by_size]),
        "tv_upper_bound": [tv_upper_bound(desc, f * t0).hex()
                           for f in (1.1, 1.5)],
    }


def _table() -> dict:
    return {str(desc): _row(desc) for desc in _spaces()}


def test_every_family_fact_matches_the_recorded_table():
    want = json.loads(DATA.read_text())
    got = json.loads(json.dumps(_table()))
    assert sorted(got) == sorted(want)
    for space in want:
        assert got[space] == want[space], space


def test_the_table_covers_both_parities_and_both_q():
    want = json.loads(DATA.read_text())
    assert "GrR(17,8)" in want and "GrR(16,1)" in want and "SO(3)" in want
    assert len(want) == len(_spaces())


def _dump(table: dict) -> str:
    """One line per space, so a changed fact shows as a changed line."""
    lines = [f"{json.dumps(space)}: {json.dumps(row, sort_keys=True)}"
             for space, row in sorted(table.items())]
    return "{\n" + ",\n".join(lines) + "\n}\n"


if __name__ == "__main__":
    DATA.write_text(_dump(_table()))
