"""Tests for the XGBoost-like workload generator."""

import numpy as np
import pytest

from repro.memsim.machine import Machine, MachineConfig
from repro.workloads.xgboost_like import XGBoostWorkload


def setup_workload(**kwargs) -> tuple[XGBoostWorkload, list]:
    w = XGBoostWorkload(num_rounds=3, **kwargs)
    m = Machine(
        MachineConfig(
            local_capacity_pages=max(64, w.footprint_pages // 16),
            cxl_capacity_pages=w.footprint_pages * 2,
        )
    )
    w.setup(m)
    return w, list(w.batches())


class TestStructure:
    def test_footprint(self):
        w = XGBoostWorkload(num_features=16, column_pages=8, hot_state_pages=32)
        assert w.matrix_pages == 128
        assert w.footprint_pages == 160

    def test_batches_per_round_is_tree_depth(self):
        w, batches = setup_workload(seed=0)
        assert len(batches) == 3 * w.tree_depth

    def test_round_labels(self):
        __, batches = setup_workload(seed=0)
        labels = {b.label for b in batches}
        assert labels == {"round0", "round1", "round2"}

    def test_ops_sum_to_one_per_round(self):
        w, batches = setup_workload(seed=0)
        round0 = [b for b in batches if b.label == "round0"]
        assert sum(b.num_ops for b in round0) == pytest.approx(1.0)

    def test_stream_continues_then_rewinds(self):
        """A second ``batches()`` call continues from the position; once
        the last round is done the position rewinds to round 0."""
        w, __ = setup_workload(seed=0)
        assert w.position == 0
        partial = w.batches()
        next(partial)
        assert w.position == 1
        rest = [b.label for b in w.batches()]
        assert len(rest) == 3 * w.tree_depth - 1
        assert [b.label for b in w.batches()][:1] == ["round0"]

    def test_validation(self):
        with pytest.raises(ValueError):
            XGBoostWorkload(num_features=0)
        with pytest.raises(ValueError):
            XGBoostWorkload(hot_accesses_fraction=1.0)


class TestAccessPattern:
    def test_accesses_within_footprint(self):
        w, batches = setup_workload(seed=1)
        for b in batches:
            assert b.page_ids.min() >= 0
            assert b.page_ids.max() < w.footprint_pages

    def test_hot_region_share(self):
        w, batches = setup_workload(seed=2)
        hot_lo, hot_hi = w._hot_start, w._hot_start + w.hot_state_pages
        total, hot = 0, 0
        for b in batches:
            total += b.num_accesses
            hot += int(np.count_nonzero((b.page_ids >= hot_lo) & (b.page_ids < hot_hi)))
        assert hot / total == pytest.approx(w.hot_accesses_fraction, abs=0.05)

    def test_column_skew(self):
        """Popular columns are rescanned far more often."""
        w, batches = setup_workload(seed=3, num_features=64)
        counts = np.zeros(w.num_features, dtype=np.int64)
        for b in batches:
            in_matrix = b.page_ids[b.page_ids >= w._matrix_start]
            cols = (in_matrix - w._matrix_start) // w.column_pages
            np.add.at(counts, cols, 1)
        top_share = np.sort(counts)[::-1][:6].sum() / max(counts.sum(), 1)
        assert top_share > 0.4

    def test_scans_are_sequential_runs(self):
        w, batches = setup_workload(seed=4)
        # Each scanned page appears lines_per_page times.
        b = batches[0]
        matrix = b.page_ids[b.page_ids >= w._matrix_start]
        __, counts = np.unique(matrix, return_counts=True)
        assert counts.max() >= w.lines_per_page

    def test_deterministic(self):
        __, a = setup_workload(seed=5)
        __, b = setup_workload(seed=5)
        for x, y in zip(a, b):
            assert np.array_equal(np.sort(x.page_ids), np.sort(y.page_ids))

    def test_bytes_per_access_forwarded(self):
        __, batches = setup_workload(seed=6)
        assert batches[0].bytes_per_access == 256.0

    def test_describe(self):
        w, __ = setup_workload(seed=0)
        d = w.describe()
        assert d["num_rounds"] == 3
        assert d["name"] == "xgboost"
