"""Oracles for the sampler.

Per-index uniform sampling, one matrix at a time: one generator per chunk
of 256 indices, with counter (0, 0, chunk, 0), whose first draw is the
chunk's 256 matrices of Ginibre entries in index order; index i takes row
i % 256, then QR and the sign fix, for ``sampler.haar_samples``, which must
draw the same numbers.  The Euler step's exponential through
``np.linalg.eigh``, as the sampler computed it before version 0.4.0, for
``sampler._expm_antisymmetric``."""

from __future__ import annotations

import math

import numpy as np

from cutofflab.sampler import _project
from cutofflab.spaces import matrix_side


CHUNK = 256


def _rng(seed: int, purpose: int, chunk: int) -> np.random.Generator:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, purpose], dtype=np.uint64)
    counter = np.array([0, 0, chunk, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=counter, key=key))


def _embed_quaternion(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n = a.shape[0]
    out = np.zeros((2 * n, 2 * n), dtype=complex)
    out[0::2, 0::2] = a
    out[0::2, 1::2] = b
    out[1::2, 0::2] = -b.conj()
    out[1::2, 1::2] = a.conj()
    return out


def haar_sample(descriptor, *, seed: int = 0, index: int = 0) -> np.ndarray:
    algebra, rank = descriptor.algebra, descriptor.param
    size = matrix_side(algebra, rank)
    rng = _rng(seed, 1, index // CHUNK)
    if algebra == "so":
        ginibre = rng.standard_normal((CHUNK, size, size))[index % CHUNK]
        q, r = np.linalg.qr(ginibre)
        q = q * np.sign(np.diag(r))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        return q
    if algebra == "su":
        re, im = rng.standard_normal((CHUNK, 2, size, size))[index % CHUNK]
        ginibre = (re + 1j * im) / math.sqrt(2)
        q, r = np.linalg.qr(ginibre)
        d = np.diag(r)
        q = q * (d / np.abs(d))
        return q * np.exp(-1j * np.angle(np.linalg.det(q)) / size)
    a_re, a_im, b_re, b_im = rng.standard_normal(
        (CHUNK, 4, rank, rank))[index % CHUNK]
    a, b = a_re + 1j * a_im, b_re + 1j * b_im
    return _project("usp", _embed_quaternion(a, b)[None])[0]


def expm_anti_hermitian(batch: np.ndarray) -> np.ndarray:
    """Exponentials of a stack of anti-Hermitian matrices via eigh."""
    w, v = np.linalg.eigh(1j * batch)
    phases = np.exp(-1j * w)
    return (v * phases[..., None, :]) @ v.conj().swapaxes(-1, -2)
