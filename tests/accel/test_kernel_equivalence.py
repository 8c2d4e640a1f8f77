"""The kernels in :mod:`repro.accel`, pinned against the originals.

Every kernel restates math that also exists elsewhere in the tree
(``repro.cbf.hashing``, ``repro.cbf.counters`` semantics) or replaces
a straightforward construction (expanded-stream counting,
``np.repeat`` run expansion).  These tests hold the restatements to
the originals on randomized inputs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import accel
from repro.cbf.counters import PackedCounterArray
from repro.cbf.hashing import derive_indices, fold_to_range, splitmix64


def _random_runs(rng, n_pages, n_runs, max_count):
    starts = rng.integers(0, n_pages - max_count, size=n_runs, dtype=np.int64)
    counts = rng.integers(0, max_count + 1, size=n_runs, dtype=np.int64)
    return starts, counts


def _expand(starts, counts):
    if counts.sum() == 0:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(
        [np.arange(s, s + c, dtype=np.int64) for s, c in zip(starts, counts) if c]
    )


# ---------------------------------------------------------------------------
# placement counting
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_placement_counts_matches_naive(seed):
    rng = np.random.default_rng(seed)
    n_pages = 4096
    placement = rng.choice(
        np.array([-1, 0, 1], dtype=np.int8), size=n_pages
    )
    page_ids = rng.integers(0, n_pages, size=10_000, dtype=np.int64)
    out = np.empty(page_ids.size, dtype=np.int8)
    n_local, n_cxl = accel.placement_counts(placement, page_ids, out)
    expected = placement[page_ids]
    np.testing.assert_array_equal(out, expected)
    assert n_local == int(np.count_nonzero(expected == 0))
    assert n_local + n_cxl == page_ids.size


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_compressed_counts_match_expanded_stream(seed):
    rng = np.random.default_rng(seed)
    n_pages = 4096
    placement = rng.choice(np.array([-1, 0, 1], dtype=np.int8), size=n_pages)
    starts, counts = _random_runs(rng, n_pages, n_runs=200, max_count=37)
    head = rng.integers(0, n_pages, size=150, dtype=np.int64)

    prefix = np.empty(n_pages + 1, dtype=np.int64)
    accel.placement_prefix(placement, prefix)
    scratch = np.empty(head.size, dtype=np.int8)
    n_local, n_cxl = accel.compressed_placement_counts(
        placement, prefix, head, starts, counts, scratch
    )
    np.testing.assert_array_equal(scratch, placement[head])

    expanded = np.concatenate([head, _expand(starts, counts)])
    out = np.empty(expanded.size, dtype=np.int8)
    exp_local, exp_cxl = accel.placement_counts(placement, expanded, out)
    assert (n_local, n_cxl) == (exp_local, exp_cxl)


def test_compressed_counts_empty_batch():
    placement = np.zeros(8, dtype=np.int8)
    prefix = np.empty(9, dtype=np.int64)
    accel.placement_prefix(placement, prefix)
    empty = np.empty(0, dtype=np.int64)
    assert accel.compressed_placement_counts(
        placement, prefix, empty, empty, empty, np.empty(0, dtype=np.int8)
    ) == (0, 0)


def test_compressed_counts_out_of_range_raises():
    placement = np.zeros(8, dtype=np.int8)
    prefix = np.empty(9, dtype=np.int64)
    accel.placement_prefix(placement, prefix)
    empty = np.empty(0, dtype=np.int64)
    with pytest.raises(IndexError):
        accel.compressed_placement_counts(
            placement,
            prefix,
            empty,
            np.array([6], dtype=np.int64),
            np.array([5], dtype=np.int64),  # run [6, 11) exceeds 8 pages
            np.empty(0, dtype=np.int8),
        )


def test_placement_prefix_definition():
    placement = np.array([0, 1, 0, -1, 0], dtype=np.int8)
    prefix = np.empty(6, dtype=np.int64)
    accel.placement_prefix(placement, prefix)
    np.testing.assert_array_equal(prefix, [0, 1, 1, 2, 2, 3])


# ---------------------------------------------------------------------------
# hashing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 17])
@pytest.mark.parametrize("num_hashes", [1, 3, 5])
def test_classic_indices_match_derive_indices(seed, num_hashes):
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 1 << 48, size=5_000, dtype=np.uint64)
    num_slots = 1_048_573
    got = accel.classic_indices(keys, num_hashes, num_slots, seed)
    expected = derive_indices(keys, num_hashes, num_slots, seed=seed)
    np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("seed", [2, 23])
def test_blocked_indices_match_original_construction(seed):
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 1 << 48, size=5_000, dtype=np.uint64)
    num_blocks, counters_per_block, num_hashes = 4096, 16, 3
    got = accel.blocked_indices(
        keys, seed, num_blocks, counters_per_block, num_hashes
    )
    # The original derivation: one splitmix64+fold picks the block, k
    # more pick in-block slots (repro.cbf.blocked's pre-accel math).
    base = fold_to_range(splitmix64(keys, seed=seed), num_blocks)
    base = base * counters_per_block
    for i in range(num_hashes):
        slot = fold_to_range(
            splitmix64(keys, seed=seed + 101 + i), counters_per_block
        )
        np.testing.assert_array_equal(got[:, i], base + slot)


# ---------------------------------------------------------------------------
# fused CBF update
# ---------------------------------------------------------------------------


def _reference_fused_update(counters, idx, totals):
    """Conservative increase + readback restated with scalar Python.

    Same three-pass contract as the kernel -- per-row minima against
    the *pre-update* store, a slot-wise scatter-max of the row targets
    (duplicate slots keep the largest), then a readback -- but built on
    ``PackedCounterArray.get``/``set`` and a dict instead of array
    kernels, so the comparison is independent of the implementation
    under test.
    """
    pre = counters.get(idx)  # (rows, k) against the untouched store
    targets = np.minimum(pre.min(axis=1) + totals, counters.max_value)
    best: dict[int, int] = {}
    for row, target in zip(idx.tolist(), targets.tolist()):
        for slot in row:
            best[slot] = max(best.get(slot, 0), target)
    slots = np.fromiter(best.keys(), dtype=np.int64, count=len(best))
    raised = np.maximum(
        counters.get(slots),
        np.fromiter(best.values(), dtype=np.int64, count=len(best)),
    )
    counters.set(slots, raised)
    return counters.get(idx).min(axis=1).astype(np.int64)


@pytest.mark.parametrize("bits", [1, 2, 4, 8, 16])
def test_cbf_fused_update_matches_sequential_reference(bits):
    rng = np.random.default_rng(bits)
    size = 512
    ref = PackedCounterArray(size, bits=bits)
    fused = PackedCounterArray(size, bits=bits)
    # Several rounds so saturation and duplicate-slot rows both occur.
    for round_seed in range(4):
        idx = rng.integers(0, size, size=(64, 3), dtype=np.int64)
        totals = rng.integers(1, 5, size=64, dtype=np.int64)
        expected = _reference_fused_update(ref, idx, totals)
        got = accel.cbf_fused_update(
            fused._store,
            fused.bits,
            fused._per_byte,
            fused.max_value,
            idx,
            totals,
        )
        np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(fused._store, ref._store)


# ---------------------------------------------------------------------------
# gap expansion
# ---------------------------------------------------------------------------


def _reference_gap_positions(gaps, pos, n):
    positions = [pos]
    for g in gaps:
        positions.append(positions[-1] + int(g))
    in_batch = [p for p in positions if p < n]
    crossed = [p for p in positions if p >= n]
    carry = crossed[0] - n if crossed else -1
    return in_batch, carry, positions[-1]


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_gap_positions_match_reference(seed):
    rng = np.random.default_rng(seed)
    gaps = rng.integers(1, 50, size=40, dtype=np.int64)
    pos = int(rng.integers(0, 30))
    n = int(rng.integers(100, 1500))
    out = np.empty(gaps.size + 1, dtype=np.int64)
    count, carry, last = accel.gap_positions(gaps, pos, n, out)
    exp_positions, exp_carry, exp_last = _reference_gap_positions(gaps, pos, n)
    np.testing.assert_array_equal(out[:count], exp_positions)
    assert carry == exp_carry
    assert last == exp_last


def test_gap_positions_start_beyond_batch():
    gaps = np.array([5, 7], dtype=np.int64)
    out = np.empty(3, dtype=np.int64)
    count, carry, last = accel.gap_positions(gaps, 10, 4, out)
    assert count == 0
    assert carry == 6  # first position (10) minus n (4)
    assert last == 22


# ---------------------------------------------------------------------------
# run expansion
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_expand_runs_matches_concatenated_aranges(seed):
    rng = np.random.default_rng(seed)
    starts, counts = _random_runs(rng, n_pages=10_000, n_runs=300, max_count=25)
    expected = _expand(starts, counts)
    out = np.empty(int(counts.sum()), dtype=np.int64)
    accel.expand_runs(starts, counts, out)
    np.testing.assert_array_equal(out, expected)


def test_expand_runs_empty():
    empty = np.empty(0, dtype=np.int64)
    out = np.empty(0, dtype=np.int64)
    accel.expand_runs(empty, empty, out)  # must not raise


# ---------------------------------------------------------------------------
# run-compressed batch kernels (position gather, strided sample,
# weighted histogram, hint faults)
# ---------------------------------------------------------------------------


def _compressed(rng, n_pages, n_head=150, n_runs=200, max_count=37):
    head = rng.integers(0, n_pages, size=n_head, dtype=np.int64)
    starts, counts = _random_runs(rng, n_pages, n_runs, max_count)
    expanded = np.concatenate([head, _expand(starts, counts)])
    return head, starts, counts, np.cumsum(counts), expanded


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_run_pages_at_matches_expanded_gather(seed):
    rng = np.random.default_rng(seed)
    head, starts, counts, offsets, expanded = _compressed(rng, n_pages=4096)
    positions = rng.integers(0, expanded.size, size=500, dtype=np.int64)
    got = accel.run_pages_at(head, starts, counts, offsets, positions)
    np.testing.assert_array_equal(got, expanded[positions])
    assert got.dtype == np.int64


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_run_pages_at_sorted_path_matches_general(seed):
    """The sorted-positions promise changes cost, never output."""
    rng = np.random.default_rng(seed)
    head, starts, counts, offsets, expanded = _compressed(rng, n_pages=4096)
    positions = np.sort(
        rng.integers(0, expanded.size, size=500, dtype=np.int64)
    )
    got = accel.run_pages_at(
        head, starts, counts, offsets, positions, sorted_positions=True
    )
    np.testing.assert_array_equal(got, expanded[positions])
    np.testing.assert_array_equal(
        got, accel.run_pages_at(head, starts, counts, offsets, positions)
    )
    for bad in (
        np.array([-1], dtype=np.int64),
        np.array([expanded.size], dtype=np.int64),
    ):
        with pytest.raises(IndexError):
            accel.run_pages_at(
                head, starts, counts, offsets, bad, sorted_positions=True
            )


def test_run_pages_at_boundaries():
    """First/last head position, run joints, and the final access."""
    head = np.array([9, 3], dtype=np.int64)
    starts = np.array([100, 200], dtype=np.int64)
    counts = np.array([3, 2], dtype=np.int64)
    offsets = np.cumsum(counts)
    positions = np.array([0, 1, 2, 4, 5, 6], dtype=np.int64)
    got = accel.run_pages_at(head, starts, counts, offsets, positions)
    np.testing.assert_array_equal(got, [9, 3, 100, 102, 200, 201])


def test_run_pages_at_out_of_range_raises():
    head = np.array([1], dtype=np.int64)
    starts = np.array([5], dtype=np.int64)
    counts = np.array([2], dtype=np.int64)
    offsets = np.cumsum(counts)
    for bad in (-1, 3):
        with pytest.raises(IndexError):
            accel.run_pages_at(
                head, starts, counts, offsets,
                np.array([bad], dtype=np.int64),
            )


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("stride", [1, 7, 16, 1000])
def test_strided_run_pages_matches_expanded_slice(seed, stride):
    rng = np.random.default_rng(seed)
    head, starts, counts, offsets, expanded = _compressed(rng, n_pages=4096)
    got = accel.strided_run_pages(
        head, starts, counts, offsets, stride, expanded.size
    )
    np.testing.assert_array_equal(got, expanded[::stride])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_weighted_page_counts_matches_add_at(seed):
    rng = np.random.default_rng(seed)
    n_pages = 4096
    head, starts, counts, _, expanded = _compressed(rng, n_pages)
    got = rng.integers(0, 5, size=n_pages).astype(np.int64)  # accumulates
    expected = got.copy()
    accel.weighted_page_counts(head, starts, counts, got)
    np.add.at(expected, expanded, 1)
    np.testing.assert_array_equal(got, expected)


def test_weighted_page_counts_out_of_range_raises():
    out = np.zeros(8, dtype=np.int64)
    empty = np.empty(0, dtype=np.int64)
    with pytest.raises(IndexError):
        accel.weighted_page_counts(
            np.array([8], dtype=np.int64), empty, empty, out
        )
    with pytest.raises(IndexError):
        accel.weighted_page_counts(
            empty,
            np.array([6], dtype=np.int64),
            np.array([5], dtype=np.int64),  # run [6, 11) exceeds 8 pages
            out,
        )


def _reference_hint_faults(unmap_time, expanded):
    """First-occurrence fault detection on the expanded stream."""
    total = unmap_time.size
    in_range = expanded[(expanded >= 0) & (expanded < total)]
    if in_range.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    first_idx = np.unique(in_range, return_index=True)[1]
    candidates = in_range[np.sort(first_idx)]
    times = unmap_time[candidates]
    mask = times >= 0.0
    faulted = candidates[mask]
    unmap_time[faulted] = -1.0
    return faulted, times[mask]


def _heads_only_int32(rng, n_pages):
    """An explicit int32 stream: duplicates plus out-of-range ids."""
    head = rng.integers(-64, n_pages + 64, size=6_000).astype(np.int32)
    empty = np.empty(0, dtype=np.int64)
    return head, empty, empty, empty, head


HINT_PAGES = 4096


def _unmapped_at_random(rng, p=0.4):
    return np.where(
        rng.random(HINT_PAGES) < p, rng.random(HINT_PAGES) * 1e6, -1.0
    )


def _runs_below_zero(rng):
    starts = rng.integers(-60, HINT_PAGES - 60, size=300, dtype=np.int64)
    starts[:20] = rng.integers(-60, 0, size=20)  # straddle or miss page 0
    counts = rng.integers(0, 50, size=300, dtype=np.int64)
    return _unmapped_at_random(rng), np.empty(0, np.int64), starts, counts


def _runs_past_total(rng):
    starts = rng.integers(0, HINT_PAGES, size=300, dtype=np.int64)
    starts[:20] = rng.integers(HINT_PAGES - 30, HINT_PAGES, size=20)
    counts = rng.integers(0, 60, size=300, dtype=np.int64)
    return _unmapped_at_random(rng), np.empty(0, np.int64), starts, counts


def _runs_wholly_outside(rng):
    head = rng.integers(0, HINT_PAGES, size=50, dtype=np.int64)
    starts = np.array([-90, -12, 50, HINT_PAGES, HINT_PAGES + 77], np.int64)
    counts = np.array([40, 12, 30, 9, 100], np.int64)
    return _unmapped_at_random(rng), head, starts, counts


def _runs_all_outside(rng):
    head = rng.integers(0, HINT_PAGES, size=50, dtype=np.int64)
    starts = np.array([-90, HINT_PAGES + 3, -5], np.int64)
    counts = np.array([40, 9, 5], np.int64)  # the last ends at page 0
    return _unmapped_at_random(rng), head, starts, counts


def _zero_count_runs_at_span_edges(rng):
    starts = np.array([100, 130, 120, 3000, 2000, 0, HINT_PAGES], np.int64)
    counts = np.array([0, 25, 8, 0, 40, 0, 0], np.int64)
    unmap = _unmapped_at_random(rng, p=0.6)
    unmap[[0, 100, 2999, 3000, HINT_PAGES - 1]] = 7.0
    return unmap, np.empty(0, np.int64), starts, counts


def _narrow_span_far_from_zero(rng):
    # Runs reach only pages [3000, 3040); every unmapped page lies
    # outside that span, so only the heads can fault.
    starts = rng.integers(3000, 3030, size=40, dtype=np.int64)
    counts = rng.integers(0, 11, size=40, dtype=np.int64)
    unmap = np.full(HINT_PAGES, -1.0)
    unmap[:2990] = rng.random(2990) * 1e6
    unmap[3050:] = rng.random(HINT_PAGES - 3050) * 1e6
    head = rng.integers(2900, 3100, size=80, dtype=np.int64)
    return unmap, head, starts, counts


def _narrow_span_unmapped_at_its_edges(rng):
    starts = np.array([3000, 3010, 3020], np.int64)
    counts = np.array([10, 10, 20], np.int64)  # span [3000, 3040)
    unmap = np.full(HINT_PAGES, -1.0)
    unmap[[2999, 3000, 3039, 3040]] = [1.0, 2.0, 3.0, 4.0]
    return unmap, np.empty(0, np.int64), starts, counts


def _head_and_runs_overlap(rng):
    starts = rng.integers(500, 700, size=60, dtype=np.int64)
    counts = rng.integers(1, 40, size=60, dtype=np.int64)
    head = np.concatenate(
        [rng.integers(480, 760, size=200), starts[:10] + 3, starts[:10] + 3]
    ).astype(np.int64)
    return _unmapped_at_random(rng, p=0.7), head, starts, counts


def _int32_heads_out_of_range_with_runs(rng):
    head = rng.integers(-64, HINT_PAGES + 64, size=3_000).astype(np.int32)
    starts, counts = _random_runs(rng, HINT_PAGES, n_runs=200, max_count=37)
    return _unmapped_at_random(rng), head, starts, counts


HINT_CASES = {
    "runs-below-zero": _runs_below_zero,
    "runs-past-total": _runs_past_total,
    "runs-wholly-outside": _runs_wholly_outside,
    "runs-all-outside": _runs_all_outside,
    "zero-count-runs-at-span-edges": _zero_count_runs_at_span_edges,
    "narrow-span-far-from-zero": _narrow_span_far_from_zero,
    "narrow-span-unmapped-at-edges": _narrow_span_unmapped_at_its_edges,
    "head-and-runs-overlap": _head_and_runs_overlap,
    "int32-heads-out-of-range": _int32_heads_out_of_range_with_runs,
}


@pytest.mark.parametrize("case", [0, 1, 2, 3, "heads-int32", *HINT_CASES])
def test_hint_faults_match_expanded_first_occurrence(case):
    """Random batches, plus named cases that reach the clip and span
    paths in-range random runs never do."""
    if case in HINT_CASES:
        rng = np.random.default_rng(5)
        unmap, head, starts, counts = HINT_CASES[case](rng)
        expanded = np.concatenate([head.astype(np.int64), _expand(starts, counts)])
    else:
        if case == "heads-int32":
            rng = np.random.default_rng(4)
            head, starts, counts, _, expanded = _heads_only_int32(rng, HINT_PAGES)
        else:
            rng = np.random.default_rng(case)
            head, starts, counts, _, expanded = _compressed(rng, HINT_PAGES)
        unmap = _unmapped_at_random(rng, p=0.3)
    ref_unmap = unmap.copy()
    pages, times = accel.hint_faults(unmap, head, starts, counts)
    exp_pages, exp_times = _reference_hint_faults(ref_unmap, expanded)
    assert pages.dtype == np.int64 and times.dtype == np.float64
    np.testing.assert_array_equal(pages, exp_pages)  # order included
    np.testing.assert_array_equal(times, exp_times)
    np.testing.assert_array_equal(unmap, ref_unmap)  # same PTE restores


def test_hint_faults_skips_out_of_range_pages():
    unmap = np.array([5.0, -1.0], dtype=np.float64)
    pages, times = accel.hint_faults(
        unmap,
        np.array([7, 0, -3], dtype=np.int64),  # 7 and -3 out of range
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.int64),
    )
    np.testing.assert_array_equal(pages, [0])
    np.testing.assert_array_equal(times, [5.0])
    assert unmap[0] == -1.0


def test_hint_faults_empty_batch():
    unmap = np.array([1.0], dtype=np.float64)
    empty = np.empty(0, dtype=np.int64)
    pages, times = accel.hint_faults(unmap, empty, empty, empty)
    assert pages.size == 0 and times.size == 0
    assert unmap[0] == 1.0
