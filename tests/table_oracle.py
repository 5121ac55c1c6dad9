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
within 1e-12 relative of it.  ``oracle_series_report`` and
``oracle_upper_bound`` are the series and the upper bound at one time as
they were first evaluated: every cap reads the table, even at a time with
no tail certificate, and sums its levels as ``np.exp(log_a - t * b).sum()``.
The upper bound, the profile and the series must equal them bit for bit.

``oracle_block_columns`` is the term table's log D^lambda and rate as they
were computed over one label block per (kind, width, cap): the labels in
size order, gathered longest first in chunks, every pair i < j < ell of a
label's own parts multiplied into its correction (``_pair_corrections``),
and Q - 4M summed over each chunk's parts.  Its zero-block lookups are
added in the order the table carries them from parent to child
(``_add_lookups``): a label's own parts in column order from 0.0, then the
correction, then on a half or odd label the constant of its parts past its
row's own.  The table must equal it bit for bit, label by label
(``float.hex``).
"""

from __future__ import annotations

import math
from typing import Iterator, Optional, Sequence

import numpy as np

from cutofflab.errors import require_time
from cutofflab.heatseries import (_BLOCK, _cap_schedule, _tail_bound,
                                  _term_table, _zero_block_logs, t_zero)
from cutofflab.partitions import WeightKind, require_label_table
from cutofflab.spaces import CharType, RootDatum, SpaceDescriptor, indexing_set


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


def oracle_series_report(descriptor: SpaceDescriptor, t: float,
                         size_cap: Optional[int] = None
                         ) -> tuple[float, float, int, int]:
    """(partial sum, tail, terms used, cap) of the dominating series at one
    time: at each cap, from ``size_cap`` or escalating, the tail and then
    the sum over the cap's levels, until the tail is missing or below 1e-6
    of the sum."""
    require_time(t)
    t0 = t_zero(descriptor)
    for cap in [size_cap] if size_cap is not None else _cap_schedule(descriptor):
        require_label_table(indexing_set(descriptor), cap)
        tail = _tail_bound(descriptor, t, cap, t0)
        table = _term_table(descriptor, cap)
        rates, log_a = table.levels
        with np.errstate(under="ignore", over="ignore"):
            partial = float(np.exp(log_a - t * rates).sum())
        if not math.isfinite(tail) or tail < 1e-6 * max(partial, 1e-30):
            break
    return partial, tail, len(table.b), cap


def oracle_upper_bound(descriptor: SpaceDescriptor, t: float) -> float:
    """min(1, sqrt(partial + tail) / 2) at one time; 1 without a tail."""
    partial, tail, _, _ = oracle_series_report(descriptor, t)
    if not math.isfinite(tail):
        return 1.0
    return min(1.0, 0.5 * math.sqrt(partial + tail))


def _chunks(parts2: np.ndarray, order: np.ndarray,
            width: int) -> Iterator[tuple[int, int, np.ndarray]]:
    """(start, stop, parts) over the labels in longest-first ``order``, so
    that a chunk's pair blocks stay within _BLOCK entries."""
    step = max(1, _BLOCK // max(width, 1))
    for start in range(0, len(parts2), step):
        stop = min(start + step, len(parts2))
        yield start, stop, parts2[order[start:stop]]


def _pair_corrections(chunk: np.ndarray, rho2: np.ndarray, squared: bool,
                      reach: Sequence[int], start: int) -> np.ndarray:
    """prod over i < j < length of (l_i - l_j) / (l_i - 2rho_j), or of
    (l_i^2 - l_j^2) / (l_i^2 - 4rho_j^2) when ``squared``, for the labels of
    one chunk: the labels with a non-zero part j are the first reach[j] in
    longest-first order, so the pairs of one j form one block over i < j,
    whose first row is the running product."""
    rows, width = chunk.shape
    ell = np.empty((width, rows))
    np.add(chunk.T, rho2[:, None], out=ell)
    zero = rho2  # l_j of a zero part
    if squared:
        ell *= ell
        zero = rho2 * rho2
    prod = np.ones(rows)
    num_buf, den_buf = np.empty((width, rows)), np.empty((width, rows))
    for j in range(1, width):
        need = min(rows, reach[j] - start)
        if need <= 0:
            break
        num, den = num_buf[:j + 1, :need], den_buf[:j, :need]
        num[0] = prod[:need]
        np.subtract(ell[:j, :need], ell[j, :need], out=num[1:])
        np.subtract(ell[:j, :need], zero[j], out=den)
        num[1:] /= den
        np.multiply.reduce(num, axis=0, out=prod[:need])
    return prod


def _add_lookups(log_dim: np.ndarray, descriptor: SpaceDescriptor,
                 parts2: np.ndarray, is_half: np.ndarray,
                 zero_logs: np.ndarray) -> None:
    """Add each label's zero-block lookups to its ``log_dim`` in the term
    table's order: a label of ``own`` parts above its shift s (1 on halfY's
    half labels, 2 on evenOrOddY's odd ones, else 0) adds the sum of
    z[i, p_i] over i = 0 .. own - 1, taken in turn from 0.0, and a shifted
    label then the sum of z[i, s] over i = own .. width - 1, taken from the
    last coordinate down."""
    count, width = parts2.shape
    kind = indexing_set(descriptor).kind
    if kind is WeightKind.halfY:
        shift = np.where(is_half, 1, 0)
    elif kind is WeightKind.evenOrOddY:
        shift = parts2[:, 0] % 4  # 2 on an odd label, 0 on an even one
    else:
        shift = np.zeros(count, dtype=int)
    own = np.count_nonzero(parts2 > shift[:, None], axis=1)
    sums = np.zeros(count)
    for i in range(width):
        has = own > i
        sums[has] += zero_logs[i].take(parts2[has, i])
    log_dim += sums
    for s in np.unique(shift[shift > 0]):
        suffix = np.r_[np.cumsum(zero_logs[::-1, s])[::-1], 0.0]
        log_dim[shift == s] += suffix[own[shift == s]]


def oracle_block_columns(descriptor: SpaceDescriptor, parts2: np.ndarray,
                         is_half: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log D^lambda, B(lambda)) of the labels with doubled parts ``parts2``
    (one row each, over the coordinates they fill), in their order, as the
    block kernel computed them."""
    root = descriptor.root
    count, width = parts2.shape
    nonzero = np.count_nonzero(parts2, axis=1)
    order = np.argsort(width - nonzero, kind="stable")
    longer = count - np.cumsum(np.bincount(nonzero, minlength=width + 1))
    reach = [int(c) for c in longer[:width]]
    log_dim = np.zeros(count)
    if count and width:
        zero_logs = _zero_block_logs(root, width, int(parts2.max()) + 1,
                                     bool(is_half.any()))
        rank_free = root.type is CharType.A and not root.symmetric
        twice = 2.0 if root.symmetric else 1.0
        rho2 = (-2.0 * np.arange(width) if rank_free
                else np.array(root.rho2[:width], dtype=float))
        for start, stop, chunk in _chunks(parts2, order, width):
            logs = np.log(_pair_corrections(chunk, rho2, not rank_free,
                                            reach, start))
            if not rank_free:
                logs = twice * logs
            log_dim[order[start:stop]] = logs
        _add_lookups(log_dim, descriptor, parts2, is_half, zero_logs)
    quad, size2 = np.empty(count, np.int64), np.empty(count, np.int64)
    for start, stop, chunk in _chunks(parts2, order, width):
        chunk = chunk.astype(np.int64)
        quad[order[start:stop]] = np.einsum("ij,ij->i", chunk,
                                            chunk - 4 * np.arange(width))
        size2[order[start:stop]] = chunk.sum(axis=1)
    num = quad + 2 * root.rho2[0] * size2
    if root.symmetric:
        num += quad - 2 * (root.rho2[0] + 2 - 2 * root.rank) * size2
    rate = num / (4 * root.rate_norm)
    if root.type is CharType.A and not root.symmetric:
        rate -= (size2 * 0.5) ** 2 / root.rate_norm ** 2
    return log_dim, rate
