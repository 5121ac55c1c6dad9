"""The level-major label stores and the term table's carried Weyl
corrections against the block kernel they replaced.

Every label's log D^lambda and B(lambda) must equal
``table_oracle.oracle_block_columns``, the all-pairs kernel over one label
block in size order, bit for bit (``float.hex``), label by label, across
the width churn of a cold pass (each family from its least rank up) and at
rank 1000.  The size order that ``series_terms`` and ``enumerate_by_size``
give must be the label oracle's.  A sweep over ranks must enumerate each
level of a store once and form its rank-free columns once, whatever the
lengths that ask; and a cold rank-1000 table must fit in the memory the
block build took, and below the peak of a store that kept a second,
per-column copy of its parts.
"""

from __future__ import annotations

import gc
import math
import tracemalloc
import weakref
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from cutofflab import heatseries, partitions
from cutofflab.errors import InvalidRank
from cutofflab.cutoff import profile
from cutofflab.heatseries import (_term_table, per_term_bound_sweep,
                                  series_terms, t_zero, tv_upper_bound)
from cutofflab.partitions import (LabelStore, enumerate_by_size, label_table,
                                  label_table_fits)
from cutofflab.spaces import _TABLE, FAMILY_NAMES, Family, describe, indexing_set
from label_oracle import oracle_labels, oracle_rows
from table_oracle import oracle_block_columns


def _churn(family: str, ranks: int):
    """Each rank from the family's least one, ``ranks`` of them, with q = 1
    and q = n // 2 on a Grassmannian: the lengths a cold pass meets."""
    least = _TABLE[Family(family)].min_n
    for n in range(least, least + ranks):
        for q in dict.fromkeys((1, n // 2) if family.startswith("Gr")
                               else (None,)):
            try:
                yield describe(family, n, q)
            except InvalidRank:
                continue


def _assert_same_bits(got: np.ndarray, want: np.ndarray, what: str) -> None:
    assert got.shape == want.shape, what
    differ = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
    assert not len(differ), (what, int(differ[0]), float(got[differ[0]]).hex(),
                             float(want[differ[0]]).hex())


def _assert_table_equals_the_block_kernel(d, cap) -> None:
    table = _term_table(d, cap)
    labels = table.labels
    by_size = labels.by_size
    log_dim, rate = oracle_block_columns(d, labels.rows(by_size),
                                         labels.is_half[by_size])
    _assert_same_bits(table.log_dim[by_size], log_dim, f"log D of {d}")
    _assert_same_bits(table.b[by_size], rate, f"B of {d}")


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_term_table_equals_the_block_kernel_bit_for_bit(family):
    # n = min_n .. min_n + 8, in order, so each store grows as a cold pass
    # grows it; cap 80 where its label table fits
    for d in _churn(family, 9):
        for cap in (40, 80):
            if label_table_fits(indexing_set(d), cap):
                _assert_table_equals_the_block_kernel(d, cap)


@pytest.mark.parametrize("family", ["SO", "SU", "USp"])
def test_rank_one_thousand_tables_equal_the_block_kernel_bit_for_bit(family):
    # 215,307 labels at cap 40; cap 80 has more than MAX_LABELS
    d = describe(family, 1000)
    _assert_table_equals_the_block_kernel(d, 40)
    assert len(_term_table(d, 40).b) == 215_307
    assert not label_table_fits(indexing_set(d), 80)


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_series_terms_and_enumerate_by_size_keep_the_size_order(family):
    for d in _churn(family, 9):
        idx = indexing_set(d)
        want = oracle_labels(idx, 10)
        assert list(enumerate_by_size(idx, 10)) == want
        assert [term.weight for term in series_terms(d, 6)] == [
            w for w in oracle_labels(idx, 6) if not w.is_zero]
    # at cap 40 the rows in size order are sorted by (size, parts)
    labels = label_table(idx, 40)
    rows = labels.rows(labels.by_size).tolist()
    keys = list(zip(labels.size2[labels.by_size].tolist(), rows))
    assert keys == sorted(keys) and len(set(map(tuple, rows))) == len(rows)


@pytest.mark.parametrize("family,n,q,cap", [
    ("SO", 11, None, 40), ("GrR", 20, 5, 40),
    # at cap 80 those two pass MAX_LABELS: one length less each
    ("SO", 9, None, 80), ("GrR", 20, 4, 80),
])
def test_by_size_equals_the_oracle_on_two_part_tables(family, n, q, cap):
    # halfY's half labels and evenOrOddY's odd ones follow the integer
    # labels in the table; one lexsort interleaves them
    d = describe(family, n, q)
    idx = indexing_set(d)
    assert not label_table_fits(idx, 80) or cap == 80
    labels = label_table(idx, cap)
    assert len(labels.parts) == 2
    rows = np.pad(labels.rows(labels.by_size),
                  ((1, 0), (0, idx.length - labels.width)))
    assert np.array_equal(rows, np.array(oracle_rows(idx, cap)))


def test_sums_and_sweeps_never_order_a_table_by_size(monkeypatch):
    # only a listing builds by_size; fresh tables, so none is left over
    # from a listing elsewhere in the suite
    for cache in ("_STORES", "_TABLES"):
        monkeypatch.setattr(partitions, cache, weakref.WeakValueDictionary())
    heatseries._term_table.cache_clear()
    try:
        for d in (describe("SO", 11), describe("GrR", 20, 5),
                  describe("SU", 6), describe("SUn_SOn", 10)):
            t0 = t_zero(d)
            tv_upper_bound(d, 1.5 * t0)
            profile(d, [0.5 * t0, 1.2 * t0, 2.0 * t0])
            per_term_bound_sweep(d, 40)
        tables = list(partitions._TABLES.values())
        assert len(tables) >= 4
        assert not any("by_size" in table.__dict__ for table in tables)
    finally:
        heatseries._term_table.cache_clear()


def test_a_sweep_over_ranks_builds_each_level_once(monkeypatch):
    # a cap-40 sweep of each family over n = min_n .. min_n + 12: each
    # store enumerates each of its levels once and forms Q - 4M with it,
    # and forms a level's type A corrections once, whatever the lengths
    # that ask; rebuilding per width would count a level twice
    for cache in ("_STORES", "_TABLES"):
        monkeypatch.setattr(partitions, cache, weakref.WeakValueDictionary())
    monkeypatch.setattr(heatseries, "_RANK_FREE", weakref.WeakKeyDictionary())
    heatseries._term_table.cache_clear()
    built, corrected, quads = Counter(), Counter(), []

    def append_level(store, *args):
        built[(store.scale, store.repeat, store.total, store.depth + 1)] += 1
        return real_append(store, *args)

    def rank_free_level(store, level, carried):
        corrected[(store.scale, store.repeat, store.total, level)] += 1
        return real_rank_free(store, level, carried)

    def quadratic(*args):
        quads.append(args)
        return real_quadratic(*args)

    real_append = LabelStore._append_level
    real_rank_free = heatseries._rank_free_level
    real_quadratic = partitions._quadratic
    monkeypatch.setattr(LabelStore, "_append_level", append_level)
    monkeypatch.setattr(heatseries, "_rank_free_level", rank_free_level)
    monkeypatch.setattr(partitions, "_quadratic", quadratic)
    tables = [_term_table(d, 40) for family in FAMILY_NAMES
              for d in _churn(family, 13)]
    try:
        assert len(tables) > 150
        assert set(built.values()) == {1} and set(corrected.values()) == {1}
        # every level from 1 up, once, with one Q - 4M each
        for (scale, repeat, total, level) in built:
            assert level == 1 or (scale, repeat, total, level - 1) in built
        assert len(quads) == len(built)
        # the type A stores' levels from 0 up, the deepest a table reads
        for (scale, repeat, total, level) in corrected:
            assert level == 0 or (scale, repeat, total, level) in built
        assert {key[:3] for key in corrected} == {(2, 1, 40), (4, 1, 20),
                                                  (2, 2, 20)}
    finally:
        heatseries._term_table.cache_clear()


def test_a_store_nothing_holds_is_freed():
    # every table of the store gone, the store goes too
    idx = partitions.IndexingSetKind(partitions.WeightKind.evenOrOddY, 9)
    table = label_table(idx, Fraction(47, 2))
    refs = [weakref.ref(part.store) for part in table.parts]
    assert len(refs) == 2 and refs[0]() is not refs[1]()
    del table
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_a_cold_rank_thousand_table_stays_within_the_block_build_peak(
        monkeypatch):
    # SO(1000) at cap 40, enumeration included: 215,307 labels, 40 levels;
    # the table built over one label block peaked at 39.5 MiB
    for cache in ("_STORES", "_TABLES"):
        monkeypatch.setattr(partitions, cache, weakref.WeakValueDictionary())
    heatseries._term_table.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        table = _term_table(describe("SO", 1000), 40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        heatseries._term_table.cache_clear()
    assert len(table.b) == 215_307
    assert table.labels.parts[0].store.depth == 40
    assert peak <= 39.5 * 2 ** 20, peak / 2 ** 20
    assert math.isfinite(float(table.log_dim.max()))


def test_a_cold_rank_thousand_table_holds_each_stored_part_once(monkeypatch):
    # the same cold SO(1000) build: a per-column copy of every stored part,
    # rebuilt as the store grows, took its peak to 13.62 MiB; the table
    # that carries its lookups from parent to child peaks at 11.4 MiB, and
    # the bound lies between the two
    for cache in ("_STORES", "_TABLES"):
        monkeypatch.setattr(partitions, cache, weakref.WeakValueDictionary())
    heatseries._term_table.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        table = _term_table(describe("SO", 1000), 40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        heatseries._term_table.cache_clear()
    assert len(table.b) == 215_307
    assert peak <= 12.5 * 2 ** 20, peak / 2 ** 20
