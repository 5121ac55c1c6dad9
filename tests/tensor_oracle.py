"""The tensor-space generator as an oracle for the orbit engine.

``expectation_entries`` exponentiates ``moments.moment_generator`` on basis
tensors with scipy's ``expm_multiply``, and ``dense_eigentable``
diagonalises the pairwise Casimir sum as a dense d^(k+l) matrix: the routes
by which ``moments`` computed moments and eigen-tables before the orbit
engine, for ``moments.moment`` and ``moments.verify_eigentable``, which
must give the same numbers.  ``casimir_tensor`` is the sum of the tensor
squares of an orthonormal basis of the algebra in closed form, which the
basis and the generator's pair terms must equal.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from cutofflab import moments
from cutofflab.spaces import drift_coefficient, matrix_side


def _flat_index(multi: Sequence[int], d: int) -> int:
    idx = 0
    for v in multi:
        if not 0 <= v < d:
            raise ValueError(f"index {v} out of range for dimension {d}")
        idx = idx * d + v
    return idx


def casimir_tensor(algebra: str, n: int, conjugate: bool = False) -> np.ndarray:
    """The sum of X (x) X over an orthonormal basis, or of X (x) conj(X)
    across a conjugated slot (su only), with K = |vec I><vec I| and P the
    swap: (K - P)/n on so(n); -P/n + I/n^2 on su(n), and K/n - I/n^2
    across a conjugated slot; (K_J - P)/(2n) on usp(n), where K_J is K of
    J, the direct sum of n blocks [[0, 1], [-1, 0]]."""
    d = matrix_side(algebra, n)
    eye = np.eye(d * d)
    swap = eye.reshape(d, d, d, d).transpose(0, 1, 3, 2).reshape(d * d, d * d)
    k = np.outer(np.eye(d).ravel(), np.eye(d).ravel())
    if algebra == "so":
        return (k - swap) / n
    if algebra == "su":
        return k / n - eye / n ** 2 if conjugate else -swap / n + eye / n ** 2
    j = np.kron(np.eye(n), [[0.0, 1.0], [-1.0, 0.0]])
    return (np.outer(j.ravel(), j.ravel()) - swap) / (2 * n)


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
