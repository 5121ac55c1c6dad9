"""Reference term-table columns kept as test oracles for ``heatseries``.

``oracle_log_dim`` is the Weyl product as the term table first computed it:
every one of the r(r - 1)/2 pair factors, and on types B and C the r
coordinate factors, multiplied into every label, one strided pass per
factor, in the formula's order.  ``oracle_rate`` is the Casimir rate over
every root coordinate.  The table's rate must equal ``oracle_rate`` bit for
bit (``np.array_equal``); its log D^lambda, whose factors against a label's
trailing zeros telescope, must lie within 1e-12 of ``oracle_log_dim``.
``oracle_series_sum`` is the dominating series' partial sum as it was first
summed, one term per label; the sum over the table's rate levels must lie
within 1e-12 relative of it.
"""

from __future__ import annotations

import numpy as np

from cutofflab.spaces import CharType, RootDatum, SpaceDescriptor


def _root_rows(root: RootDatum, parts2: np.ndarray) -> np.ndarray:
    """Doubled label parts in the root datum's coordinates: a symmetric
    (GrC) label l becomes (l, 0, ..., 0, -l reversed)."""
    parts2 = parts2.astype(np.int64)
    if not root.symmetric:
        return parts2
    zeros = np.zeros((len(parts2), root.rank - 2 * parts2.shape[1]), np.int64)
    return np.concatenate([parts2, zeros, -parts2[:, ::-1]], axis=1)


def oracle_log_dim(descriptor: SpaceDescriptor, parts2: np.ndarray) -> np.ndarray:
    """log D^lambda over l = 2(lambda + rho): type A multiplies
    (l_i - l_j) / (2rho_i - 2rho_j) over every pair i < j; types B, C, D
    take (l_i^2 - l_j^2) / (4rho_i^2 - 4rho_j^2), then e_i (B) or 2e_i (C)
    as l_i / 2rho_i."""
    root = descriptor.root
    rho2 = np.array(root.rho2)
    rows = _root_rows(root, parts2)
    ell = np.zeros((root.rank, len(rows)))
    ell[:rows.shape[1]] = rows.T
    ell += rho2[:, None]
    if root.type is CharType.A:
        paired, rho_paired = ell, rho2
    else:
        paired, rho_paired = ell ** 2, rho2 ** 2
    val = np.ones(ell.shape[1])
    for i in range(root.rank):
        for j in range(i + 1, root.rank):
            val *= (paired[i] - paired[j]) / float(rho_paired[i] - rho_paired[j])
    if root.type in (CharType.B, CharType.C):
        for i in range(root.rank):
            val *= ell[i] / float(rho2[i])
    return np.log(val)


def oracle_rate(descriptor: SpaceDescriptor, parts2: np.ndarray) -> np.ndarray:
    """B(lambda) = <lambda, lambda + 2 rho> / N over every root coordinate,
    less |lambda|^2 / N^2 on type A."""
    root = descriptor.root
    lam = _root_rows(root, parts2) / 2.0
    rho2 = np.array(root.rho2[:lam.shape[1]], dtype=float)
    rate = (lam * lam + rho2 * lam).sum(axis=1) / root.rate_norm
    if root.type is CharType.A:
        size = lam.sum(axis=1)
        rate = rate - size * size / (root.rate_norm ** 2)
    return rate


def oracle_series_sum(log_a: np.ndarray, b: np.ndarray, t: float) -> float:
    """Sum of A e^{-t B} over the table's labels, one exponential per label,
    in table order."""
    with np.errstate(under="ignore", over="ignore"):
        return float(np.exp(log_a - t * b).sum())
