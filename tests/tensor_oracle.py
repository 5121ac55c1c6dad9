"""The tensor-space generator as an oracle for the orbit engine.

``expectation_entries`` exponentiates ``moments.moment_generator`` on basis
tensors with scipy's ``expm_multiply``, and ``dense_eigentable``
diagonalises the pairwise Casimir sum as a dense d^(k+l) matrix: the routes
by which ``moments`` computed moments and eigen-tables before the orbit
engine, for ``moments.moment`` and ``moments.verify_eigentable``, which
must give the same numbers.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from cutofflab import moments
from cutofflab.spaces import drift_coefficient


def _flat_index(multi: Sequence[int], d: int) -> int:
    idx = 0
    for v in multi:
        if not 0 <= v < d:
            raise ValueError(f"index {v} out of range for dimension {d}")
        idx = idx * d + v
    return idx


@lru_cache(maxsize=16)
def _generator(algebra: str, n: int, k: int, l: int) -> moments.MomentTensor:
    return moments.moment_generator(algebra, n, k, l)


def expectation_entries(algebra: str, n: int, k: int, l: int,
                        pairs: Sequence[tuple[Sequence[int], Sequence[int]]],
                        t: float, chunk: int = 16) -> np.ndarray:
    """Batched extraction of exp(t*generator) entries, grouped by column."""
    from scipy.sparse.linalg import expm_multiply

    mt = _generator(algebra, n, k, l)
    size = mt.dim ** (k + l)
    flat = [(_flat_index(r, mt.dim), _flat_index(c, mt.dim)) for r, c in pairs]
    cols = sorted({c for _, c in flat})
    col_pos = {c: p for p, c in enumerate(cols)}
    values = np.zeros(len(flat), dtype=complex)
    scaled = mt.generator * t
    for start in range(0, len(cols), chunk):
        block = cols[start:start + chunk]
        rhs = np.zeros((size, len(block)), dtype=mt.generator.dtype)
        for p, c in enumerate(block):
            rhs[c, p] = 1.0
        out = expm_multiply(scaled, rhs)
        for idx, (r, c) in enumerate(flat):
            p = col_pos[c]
            if start <= p < start + len(block):
                values[idx] = out[r, p - start]
    return values


def dense_eigentable(algebra: str, n: int, k: int,
                     l: int = 0) -> tuple[list, int]:
    """(eigenvalue, computed multiplicity, max residual) per claimed value,
    from the dense spectrum of the scaled pairwise Casimir sum, each
    eigenvalue counted at its nearest claimed value; and the tensor
    dimension."""
    from scipy.linalg import eigvalsh

    claimed, scale = moments._claimed_eigentable(algebra, n, k, l)
    mt = _generator(algebra, n, k, l)
    size = mt.dim ** (k + l)
    drift = float((k + l) * drift_coefficient(algebra, n) / 2)
    spectrum = (eigvalsh(mt.generator.toarray()) - drift) * scale
    targets = sorted(claimed, key=float)
    target_vals = np.array([float(v) for v in targets])
    nearest = np.argmin(np.abs(spectrum[:, None] - target_vals[None, :]), axis=1)
    table = []
    for idx, value in enumerate(targets):
        mask = nearest == idx
        count = int(mask.sum())
        residual = float(np.abs(spectrum[mask] - target_vals[idx]).max()) if count else 0.0
        table.append((value, count, residual))
    return table, size
