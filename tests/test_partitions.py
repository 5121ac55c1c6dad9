"""Weight-label validation, enumeration by size, and partition counts."""

from __future__ import annotations

import gc
import math
import time
import weakref
from fractions import Fraction

import numpy as np
import pytest

from cutofflab.errors import TooLarge
from cutofflab.partitions import (
    MAX_LABEL_ENTRIES,
    MAX_LABELS,
    IndexingSetKind,
    Weight,
    WeightKind,
    enumerate_by_size,
    label_table,
    label_table_fits,
    partition_counts,
)
from exact_oracle import (oracle_count_table, oracle_fits_by_length,
                          oracle_within_label_limit)
from label_oracle import (int_partitions, oracle_block_width,
                          oracle_fits_by_width, oracle_labels, oracle_rows)


def brute_partitions(total: int, max_len: int, max_part: int | None = None):
    """Independent recursive enumeration of bounded-length partitions."""
    if total == 0:
        yield ()
        return
    if max_len == 0:
        return
    cap = total if max_part is None else min(total, max_part)
    for first in range(cap, 0, -1):
        for rest in brute_partitions(total - first, max_len - 1, first):
            yield (first,) + rest


# -- validation ------------------------------------------------------------


def test_parts_must_be_non_increasing():
    with pytest.raises(ValueError):
        Weight.of((1, 2), WeightKind.Y)


def test_negative_parts_are_rejected():
    for kind in WeightKind:
        with pytest.raises(ValueError, match="non-negative"):
            Weight.of((2, -2), kind)


def test_integer_kinds_reject_halves():
    for kind in (WeightKind.Y, WeightKind.evenY, WeightKind.doubledY,
                 WeightKind.evenOrOddY):
        with pytest.raises(ValueError):
            Weight.of((Fraction(3, 2), Fraction(1, 2)), kind)


def test_even_kind_rejects_odd_parts():
    with pytest.raises(ValueError):
        Weight.of((3, 1), WeightKind.evenY)
    assert Weight.of((4, 2, 0), WeightKind.evenY).size == 6


def test_doubled_kind_needs_paired_parts():
    assert Weight.of((3, 3, 1, 1), WeightKind.doubledY).size == 8
    with pytest.raises(ValueError):
        Weight.of((3, 3, 1, 0), WeightKind.doubledY)
    with pytest.raises(ValueError):
        Weight.of((2, 1, 1, 0), WeightKind.doubledY)


def test_parity_mixed_kinds():
    assert Weight.of((3, 1, 1), WeightKind.evenOrOddY).size == 5
    assert Weight.of((4, 2, 0), WeightKind.evenOrOddY).size == 6
    with pytest.raises(ValueError):
        Weight.of((3, 2, 1), WeightKind.evenOrOddY)
    # zero coordinates are even, so an odd label must have no zeros
    with pytest.raises(ValueError):
        Weight.of((3, 1, 0), WeightKind.evenOrOddY)


def test_half_kind_needs_equal_parity():
    w = Weight.of((Fraction(3, 2), Fraction(1, 2)), WeightKind.halfY)
    assert not w.is_integer
    with pytest.raises(ValueError):
        Weight.of((Fraction(3, 2), 1), WeightKind.halfY)


def test_of_rejects_non_half_values():
    with pytest.raises(ValueError):
        Weight.of((Fraction(1, 3),), WeightKind.Y)


# -- views ----------------------------------------------------------------


def test_parts_size_and_str():
    w = Weight.of((Fraction(5, 2), Fraction(1, 2), Fraction(1, 2)),
                  WeightKind.halfY)
    assert w.parts == (Fraction(5, 2), Fraction(1, 2), Fraction(1, 2))
    assert w.size == Fraction(7, 2)
    assert str(w) == "5/2,1/2,1/2"
    v = Weight.of((2, 1, 0))
    assert str(v) == "2,1,0"


# -- counting --------------------------------------------------------------


@pytest.mark.parametrize("max_len", [1, 2, 3, 5])
def test_partition_counts_match_brute_force(max_len):
    counts = partition_counts(12, max_len)
    for s in range(13):
        assert counts[s] == sum(1 for _ in brute_partitions(s, max_len))


def test_counts_of_four():
    # 4, 31, 22, 211, 1111
    assert partition_counts(4, 4)[4] == 5
    assert partition_counts(4, 2)[4] == 3


def test_partition_counts_past_the_size_equal_the_unbounded_counts():
    # a partition of s has at most s parts
    for size in (0, 1, 7, 20):
        for max_len in (size + 1, 2 * size + 3, 100):
            assert partition_counts(size, max_len) == \
                partition_counts(size, size), (size, max_len)


@pytest.mark.parametrize("x", [0.3, 0.5])
def test_partition_series_bounded_by_five_x(x):
    counts = partition_counts(200, 200)
    partial = sum(counts[s] * x**s for s in range(1, 201))
    rest = 10 * counts[200] * x**200  # crude closing, negligible at x <= 1/2
    assert partial + rest <= 5.0 * x


# -- enumeration -----------------------------------------------------------


def sizes_are_sorted(ws):
    sizes = [w.size for w in ws]
    return all(a <= b for a, b in zip(sizes, sizes[1:]))


def test_enumerate_plain_partitions():
    idx = IndexingSetKind(WeightKind.Y, 3)
    ws = list(enumerate_by_size(idx, 6))
    assert sizes_are_sorted(ws)
    assert len(ws) == len(set(ws))
    counts = partition_counts(6, 3)
    assert len(ws) == sum(counts[s] for s in range(7))
    assert all(w.length == 3 for w in ws)


def test_enumerate_half_partitions():
    idx = IndexingSetKind(WeightKind.halfY, 2)
    ws = list(enumerate_by_size(idx, 4))
    ints = [w for w in ws if w.is_integer]
    halves = [w for w in ws if not w.is_integer]
    counts = partition_counts(4, 2)
    assert len(ints) == sum(counts[s] for s in range(5))
    # halves are integer labels shifted by (1/2, 1/2): size <= 4 - 1
    assert len(halves) == sum(counts[s] for s in range(4))
    assert sizes_are_sorted(ws)


def test_enumerate_even_partitions():
    idx = IndexingSetKind(WeightKind.evenY, 2)
    ws = list(enumerate_by_size(idx, 8))
    assert all(all(p % 2 == 0 for p in w.parts) for w in ws)
    counts = partition_counts(4, 2)
    assert len(ws) == sum(counts[s] for s in range(5))


def test_enumerate_doubled_partitions():
    idx = IndexingSetKind(WeightKind.doubledY, 4)
    ws = list(enumerate_by_size(idx, 8))
    for w in ws:
        nz = [p for p in w.parts if p]
        assert len(nz) % 2 == 0
        assert all(nz[2 * i] == nz[2 * i + 1] for i in range(len(nz) // 2))
    counts = partition_counts(4, 2)
    assert len(ws) == sum(counts[s] for s in range(5))


def test_enumerate_single_parity_partitions():
    idx = IndexingSetKind(WeightKind.evenOrOddY, 2)
    ws = list(enumerate_by_size(idx, 6))
    evens = [w for w in ws if all(p % 2 == 0 for p in w.parts)]
    odds = [w for w in ws if all(p % 2 == 1 for p in w.parts)]
    assert len(evens) + len(odds) == len(ws)
    counts = partition_counts(3, 2)
    assert len(evens) == sum(counts[s] for s in range(4))
    # odd labels: both coordinates odd, total <= 6: (1,1),(3,1),(3,3),(5,1)
    assert {tuple(int(p) for p in w.parts) for w in odds} == \
        {(1, 1), (3, 1), (3, 3), (5, 1)}


def test_enumerate_fractional_cap():
    idx = IndexingSetKind(WeightKind.halfY, 3)
    ws = list(enumerate_by_size(idx, Fraction(3, 2)))
    assert {str(w) for w in ws} == {"0,0,0", "1,0,0", "1/2,1/2,1/2"}


# -- array enumerator against the recursive oracle ---------------------------

# "label rows" are the labels padded to the full length, as
# ``enumerate_by_size`` gives them; the table holds them unpadded

HALF_CAPS = [Fraction(2 * c + 1, 2) for c in range(13)]


@pytest.mark.parametrize("kind", WeightKind, ids=lambda k: k.value)
@pytest.mark.parametrize("length", range(1, 8))
def test_label_rows_match_the_oracle_row_for_row(kind, length):
    idx = IndexingSetKind(kind, length)
    caps = list(range(14))
    if kind is WeightKind.halfY:
        caps += HALF_CAPS
    for cap in caps:
        assert list(enumerate_by_size(idx, cap)) == oracle_labels(idx, cap), cap


@pytest.mark.parametrize("kind", WeightKind, ids=lambda k: k.value)
@pytest.mark.parametrize("length", [13, 30])
def test_label_rows_longer_than_the_cap_match_the_oracle(kind, length):
    # only the first min(length, cap) parts can be non-zero; the last cap
    # reaches the half labels (|lambda| >= length / 2) and the odd ones
    # (|lambda| >= length)
    idx = IndexingSetKind(kind, length)
    caps = [0, 1, 5, 12]
    if kind is WeightKind.halfY:
        caps.append(Fraction(length + 3, 2))
    if kind is WeightKind.evenOrOddY:
        caps.append(length + 2)
    for cap in caps:
        labels = list(enumerate_by_size(idx, cap))
        assert all(w.length == length for w in labels)
        assert labels == oracle_labels(idx, cap), cap


@pytest.mark.parametrize("length", range(1, 8))
def test_label_row_counts_are_sums_of_partition_counts(length):
    cap = 13
    counts = partition_counts(cap, length)
    half_pairs = partition_counts(cap, length // 2)

    def rows(kind, max_size=cap):
        return sum(1 for _ in enumerate_by_size(IndexingSetKind(kind, length),
                                                max_size))

    assert rows(WeightKind.Y) == sum(counts)
    assert rows(WeightKind.evenY) == sum(counts[:cap // 2 + 1])
    assert rows(WeightKind.doubledY) == sum(half_pairs[:cap // 2 + 1])
    odd = sum(counts[:(cap - length) // 2 + 1]) if length <= cap else 0
    assert rows(WeightKind.evenOrOddY) == sum(counts[:cap // 2 + 1]) + odd
    for max_size in [cap] + HALF_CAPS:
        half_cap = math.floor(max_size - Fraction(length, 2))
        half = sum(counts[:half_cap + 1]) if half_cap >= 0 else 0
        assert rows(WeightKind.halfY, max_size) == \
            sum(counts[:int(max_size) + 1]) + half


# -- shared label stores -----------------------------------------------------


def _cap_width(kind, cap):
    """The coordinates a kind's labels of size <= cap fill at any length past
    them, half and odd labels aside (those fill every coordinate)."""
    if kind in (WeightKind.Y, WeightKind.halfY):
        return cap
    if kind is WeightKind.doubledY:
        return 2 * (cap // 2)
    return cap // 2


@pytest.mark.parametrize("cap", [0, 1, 2, 3, 40])
@pytest.mark.parametrize("kind", WeightKind, ids=lambda k: k.value)
def test_label_rows_are_the_padded_oracle_around_the_block_width(kind, cap):
    width = _cap_width(kind, cap)
    lengths = {width - 1, width, width + 1, 2 * cap + 2} - {-1, 0}
    if cap == 40 and kind in (WeightKind.Y, WeightKind.halfY):
        # 215,308 labels, about four seconds a length: Y's far past the
        # width, halfY's one below it, where its half labels fill the rows
        # and its integer labels are the partitions of up to 39 parts
        lengths = {2 * cap + 2 if kind is WeightKind.Y else width - 1}
    for length in sorted(lengths):
        idx = IndexingSetKind(kind, length)
        want = oracle_rows(idx, cap)
        table = label_table(idx, cap)
        rows = table.rows(table.by_size)
        assert rows.dtype == np.int8
        # the table holds the labels but the zero one, at the width they
        # fill, and some label fills each of those coordinates
        assert table.width == rows.shape[1] == oracle_block_width(idx, cap)
        assert (rows != 0).any(axis=0).all()
        rows = np.pad(rows, ((1, 0), (0, length - table.width)))
        assert np.array_equal(rows, np.array(want)), length
        if cap < 40:
            assert [w.parts2 for w in enumerate_by_size(idx, cap)] == want


@pytest.mark.parametrize("kind", WeightKind, ids=lambda k: k.value)
def test_label_blocks_hold_the_widest_parts_in_their_type(kind):
    # 2 * 63 + 1 = 127 is the largest int8; cap 64 moves to int16
    for cap, dtype in ((63, np.int8), (64, np.int16)):
        idx = IndexingSetKind(kind, 2)
        table = label_table(idx, cap)
        rows = table.rows(np.arange(len(table)))
        assert rows.dtype == table.size2.dtype == dtype
        assert table.parts[0].store.rows[-1].dtype == dtype
        assert list(enumerate_by_size(idx, cap)) == oracle_labels(idx, cap)
        assert table.size2.tolist() == rows.sum(axis=1).tolist()


def test_a_cap_below_every_label_gives_an_empty_block():
    table = label_table(IndexingSetKind(WeightKind.evenY, 4), 1)
    assert len(table) == table.width == 0
    assert table.rows(table.by_size).shape == (0, 0)
    assert list(enumerate_by_size(IndexingSetKind(WeightKind.evenY, 4), 1)) == \
        [Weight.zero(4, WeightKind.evenY)]


def test_label_blocks_are_read_only_and_shared_across_lengths():
    # one store per shape and cap: each length reads a prefix of its levels
    wide = label_table(IndexingSetKind(WeightKind.Y, 45), 40)
    store = wide.parts[0].store
    assert store.depth == 40 and wide.parts[0].last == 40
    for length in (41, 39, 3):
        table = label_table(IndexingSetKind(WeightKind.Y, length), 40)
        assert table.parts[0].store is store
        assert table.parts[0].last == min(length, 40)
        assert np.shares_memory(table.size2, store.size2)
        end = store.offsets[min(length, 40) + 1]
        assert np.array_equal(table.quad, store.quad[1:end])
    for array in (wide.size2, wide.quad, wide.is_half, store.rows[7],
                  store.parents[7], wide.by_size):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    # level k: the labels of k parts, in lexicographic order, each its
    # parent's row extended by its last part
    for k in range(1, 41):
        rows = store.rows[k]
        assert rows.shape[1] == k and (rows > 0).all()
        assert np.array_equal(rows[:, :-1], store.rows[k - 1][store.parents[k]])
        assert len(rows) == store.offsets[k + 1] - store.offsets[k]
        listed = rows.tolist()
        assert listed == sorted(listed)
    assert store.offsets[-1] == sum(partition_counts(40, 40))


def test_the_block_cache_keeps_no_block_nobody_holds():
    # a cap no term table in the suite uses, so no table holds this store
    idx = IndexingSetKind(WeightKind.doubledY, 30)
    ref = weakref.ref(label_table(idx, 23).parts[0].store)
    gc.collect()
    assert ref() is None


def test_label_rows_reject_negative_cap():
    for make in (label_table, enumerate_by_size):
        with pytest.raises(ValueError):
            make(IndexingSetKind(WeightKind.Y, 2), Fraction(-1, 2))


@pytest.mark.parametrize("length", [1, 2, 3, 5, 8, 20])
def test_label_limit_counts_bounded_partitions(length):
    for cap in (0, 40, 80, 160, 200, 700):
        want = sum(partition_counts(cap, length)) <= MAX_LABELS
        assert label_table_fits(IndexingSetKind(WeightKind.Y, length),
                                cap) is want, cap
    # the guard reads partition_counts, so check that against brute force
    counts = partition_counts(30, length)
    for s in range(31):
        assert counts[s] == sum(1 for _ in int_partitions(s, length)), s


def test_partition_counts_equal_the_two_dimensional_table():
    table = oracle_count_table(1600, 100)
    for length in range(1, 101):
        assert partition_counts(1600, length) == table[length], length
        for size in (0, 1, 2, length - 1, length, length + 1):
            if size >= 0:
                want = oracle_count_table(size, length)[-1]
                assert partition_counts(size, length) == want, (size, length)


def test_label_limit_equals_the_counting_guard():
    # the oracle counts against labels times the width, Y's min(cap, length)
    caps = [*range(60), 80, 160, 200, 700, 1000, 1094, 1095, 1096, 5000]
    for length in (1, 2, 3, 4, 5, 8, 20, 40, 139, 140, 1000, 50_000):
        idx = IndexingSetKind(WeightKind.Y, length)
        for cap in caps:
            assert (label_table_fits(idx, cap)
                    is oracle_within_label_limit(cap, length)), (cap, length)


def test_every_cap_up_to_forty_is_within_the_label_limit():
    # cap 40: 215,308 labels, at every length
    assert sum(partition_counts(40, 40)) == 215_308
    assert all(label_table_fits(IndexingSetKind(kind, length), 40)
               for kind in WeightKind for length in range(1, 61))
    start = time.perf_counter()
    for length in (81, 98, 100, 140, 1000, 50_000, 10 ** 9):
        assert label_table_fits(IndexingSetKind(WeightKind.Y, length), 40)
    assert time.perf_counter() - start < 0.1  # counts parts <= 40 only


def test_label_limit_bounds_labels_times_width():
    # the table is 40 wide at any length; the padded rows of
    # enumerate_by_size are labels times the length, and at cap 40 (215,308
    # labels with the zero label) 139 parts fit in MAX_LABEL_ENTRIES, 140 not
    assert MAX_LABEL_ENTRIES == 30_000_000
    enumerate_by_size(IndexingSetKind(WeightKind.Y, 139), 40)
    with pytest.raises(TooLarge, match="or more than 30000000 parts"):
        enumerate_by_size(IndexingSetKind(WeightKind.Y, 140), 40)
    idx = IndexingSetKind(WeightKind.halfY, 50_000)
    assert label_table(idx, 40).width == 40
    with pytest.raises(TooLarge, match="or more than 30000000 parts"):
        enumerate_by_size(idx, 40)


def test_label_table_fits_equals_the_width_rule():
    # the guard counts labels alone; the width rule also bounded labels
    # times the block's width, which no label set wider than 100 parts
    # reaches before it has more than MAX_LABELS labels.  The counts of
    # sizes <= c are a prefix of those of sizes <= 250, so each length's
    # are computed once for the oracle; the guard takes every length's at
    # one cap from one pass, so the caps run outermost.
    top, lengths = 250, [*range(1, 301), 1000, 10 ** 5]
    counts = {length: partition_counts(top, length) for length in lengths}
    label_table_fits.cache_clear()
    wide = 0
    try:
        for kind in WeightKind:
            caps = list(range(top + 1))
            if kind is WeightKind.halfY:
                caps += [Fraction(2 * c + 1, 2) for c in range(top)]
            for cap in caps:
                for length in lengths:
                    idx = IndexingSetKind(kind, length)
                    want = oracle_fits_by_width(idx, cap, counts[length])
                    assert label_table_fits(idx, cap) is want, (kind, length, cap)
                    wide += oracle_block_width(idx, cap) > 100
    finally:
        label_table_fits.cache_clear()
    assert wide > 100_000  # the cases where the width rule could decide


def test_label_table_fits_equals_the_length_rule_up_to_length_100():
    # below length 101 MAX_LABELS binds before labels times the width or the
    # length does, so counting the width changes no decision there
    for cap in (40, 80, 160, 200):
        table = oracle_count_table(cap, 100)
        for kind in WeightKind:
            for length in range(1, 101):
                idx = IndexingSetKind(kind, length)
                counts = table[min(length, cap)]
                assert (label_table_fits(idx, cap)
                        is oracle_fits_by_length(idx, cap, counts)), \
                    (cap, kind, length)


@pytest.mark.parametrize("kind", list(WeightKind))
def test_label_rows_refuse_caps_above_the_label_limit(kind):
    for cap in (1000, 10 ** 9, MAX_LABELS):
        with pytest.raises(TooLarge, match="labels"):
            enumerate_by_size(
                IndexingSetKind(kind, 1 if cap == MAX_LABELS else 5), cap)
    if kind is not WeightKind.halfY:
        idx = IndexingSetKind(kind, 1)
        assert next(enumerate_by_size(idx, MAX_LABELS - 1)) == Weight.zero(1, kind)
        return
    # one part: cap c holds c + 1 integer and c half labels
    idx = IndexingSetKind(kind, 1)
    top = (MAX_LABELS - 1) // 2
    assert len(label_table(idx, top)) + 1 == 2 * top + 1 <= MAX_LABELS
    assert next(enumerate_by_size(idx, top)) == Weight.zero(1, kind)
    with pytest.raises(TooLarge, match="labels"):
        enumerate_by_size(idx, top + 1)


def test_indexing_set_label_pads_the_head_with_zeros():
    idx = IndexingSetKind(WeightKind.doubledY, 4)
    assert idx.label((1, 1)) == Weight((2, 2, 0, 0), WeightKind.doubledY)
    assert idx.label(()) == Weight.zero(4, WeightKind.doubledY)
    with pytest.raises(ValueError):
        idx.label((1,))


def test_enumerate_rejects_negative_cap():
    with pytest.raises(ValueError):
        list(enumerate_by_size(IndexingSetKind(WeightKind.Y, 2), -1))


def test_indexing_set_needs_positive_length():
    with pytest.raises(ValueError):
        IndexingSetKind(WeightKind.Y, 0)

