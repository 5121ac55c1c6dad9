"""Sum rules: the term table's dimensions and rates held to exact identities
of tensor powers of the defining representation V, at any rank.

Schur-Weyl: on SU(n), V^{(x)k} holds each irreducible lambda |- k f^lambda
times, so for k < n

    sum_{lambda |- k} f^lambda D^lambda = n^k.

Brauer: on SO(N) and USp(2n), in the stable range (N >= 2k; n >= k),
V^{(x)k} holds the traceless part of V^{(x)(k-2j)} labelled mu |- k - 2j
C(k, 2j) (2j - 1)!! f^mu times, so

    sum_j C(k, 2j) (2j - 1)!! sum_{mu |- k-2j} f^mu chi(mu) D^mu = N^k,

with N = 2n on USp(2n).  On SO(2r) the O(2r) piece mu = (1^r), met at
k = r, splits into two chirality pieces of one dimension; chi = 2 counts
both (Brauer, Ann. Math. 1937; Goodman-Wallach, Symmetry, Representations,
and Invariants, ch. 10).

Rates: the pair terms of the Casimir on V^{(x)k} have trace 0, so the same
sums weighted by B(lambda) give k B(box) N^k, where B(box), the rate of V
itself, is 1 - 1/N^2 on SU(N), 1 - 1/N on SO(N) and 1 + 1/N on USp(N).

D and B are read from the integer rows of ``heatseries._term_table`` and
chi from ``spaces._chiralities``; f^lambda is the hook-length count.  No
exact dimension formula is used, so the rules check the table, not the
formula it shares with ``repchar.dimension``.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np
import pytest

from cutofflab.heatseries import _term_table
from cutofflab.spaces import _chiralities, describe, matrix_side

K_MAX = 8
RTOL = 1e-12


def _hook_count(parts: tuple[int, ...]) -> int:
    """f^lambda, the standard Young tableaux of shape lambda, by hooks."""
    conj = [sum(p > c for p in parts) for c in range(parts[0] if parts else 0)]
    hooks = math.prod(parts[i] - j + conj[j] - i - 1
                      for i in range(len(parts)) for j in range(parts[i]))
    return math.factorial(sum(parts)) // hooks


def _level_sums(family: str, n: int) -> tuple[int, dict, dict]:
    """(N, dims, rates): N the side of V, and per size m >= 1 the sums of
    f chi D and f chi D B over the table's integer labels of size m."""
    desc = describe(family, n)
    table = _term_table(desc, K_MAX)
    labels = table.labels
    keep = np.flatnonzero(~labels.is_half)
    rows = labels.rows(keep)
    chi = _chiralities(desc.root, rows)
    dims, rates = defaultdict(float), defaultdict(float)
    for row, c, log_dim, b in zip(rows, chi, table.log_dim[keep],
                                  table.b[keep]):
        parts = tuple(int(p) // 2 for p in row if p)
        weight = _hook_count(parts) * int(c) * math.exp(log_dim)
        dims[sum(parts)] += weight
        rates[sum(parts)] += weight * b
    return matrix_side(desc.algebra, desc.param), dims, rates


_BOX_RATE = {"SU": lambda side: 1.0 - 1.0 / side ** 2,
             "SO": lambda side: 1.0 - 1.0 / side,
             "USp": lambda side: 1.0 + 1.0 / side}


def _brauer(k: int, j: int) -> int:
    """C(k, 2j) (2j - 1)!!: the pairings of 2j of k tensor factors."""
    return math.comb(k, 2 * j) * math.prod(range(1, 2 * j, 2))


def _top(family: str, n: int) -> int:
    """The largest k in the rule's range, at most K_MAX."""
    if family == "SU":
        return min(K_MAX, n - 1)
    if family == "SO":
        return min(K_MAX, n // 2)
    return min(K_MAX, n)


_CASES = [("SU", n) for n in (3, 5, 9, 1000, 10_000)] + [
    ("SO", n) for n in (3, 4, 5, 8, 9, 12, 16, 17, 1000, 1001, 10_000,
                        10_001)] + [
    ("USp", n) for n in (2, 3, 4, 8, 1000, 10_000)]


@pytest.mark.parametrize("family,n", _CASES)
def test_tensor_powers_of_the_defining_representation(family, n):
    side, dims, rates = _level_sums(family, n)
    box = _BOX_RATE[family](side)
    for k in range(1, _top(family, n) + 1):
        if family == "SU":
            terms = [(1, k)]
        else:  # the empty label mu, size 0, is the trivial piece: D = 1
            terms = [(_brauer(k, j), k - 2 * j) for j in range(k // 2 + 1)]
        dim = sum(c * (dims[m] if m else 1.0) for c, m in terms)
        rate = sum(c * rates[m] for c, m in terms if m)
        assert dim == pytest.approx(float(side) ** k, rel=RTOL, abs=0.0), k
        assert rate == pytest.approx(k * box * float(side) ** k,
                                     rel=RTOL, abs=0.0), k


def test_hook_counts_match_small_cases():
    shapes = [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert [_hook_count(p) for p in shapes] == [1, 3, 2, 3, 1]
    assert _hook_count(()) == 1 and _hook_count((3, 2, 1)) == 16
