"""Tests for the GAP kernel trace generators."""

import numpy as np
import pytest

from repro.memsim.machine import Machine, MachineConfig
from repro.workloads.gap import GapWorkload, _lines_of_ranges


def run_workload(kernel: str, scale: int = 10, trials: int = 1, seed: int = 0):
    w = GapWorkload(kernel, scale=scale, num_trials=trials, seed=seed)
    m = Machine(
        MachineConfig(
            local_capacity_pages=max(32, w.footprint_pages // 8),
            cxl_capacity_pages=w.footprint_pages * 2,
        )
    )
    w.setup(m)
    return w, list(w.batches())


class TestLinesOfRanges:
    def test_single_range(self):
        lines = _lines_of_ranges(np.array([0]), np.array([128]))
        assert np.array_equal(lines, [0, 1])

    def test_unaligned_range(self):
        lines = _lines_of_ranges(np.array([60]), np.array([10]))
        # Bytes 60..69 touch lines 0 and 1.
        assert np.array_equal(lines, [0, 1])

    def test_multiple_ranges(self):
        lines = _lines_of_ranges(np.array([0, 640]), np.array([64, 64]))
        assert np.array_equal(lines, [0, 10])

    def test_zero_length_skipped(self):
        lines = _lines_of_ranges(np.array([0, 100]), np.array([0, 1]))
        assert np.array_equal(lines, [1])

    def test_empty(self):
        assert _lines_of_ranges(np.array([]), np.array([])).size == 0


class TestWorkloadSetup:
    def test_invalid_kernel(self):
        with pytest.raises(ValueError):
            GapWorkload("pagerank")

    @pytest.mark.parametrize("trials", [0, -1])
    def test_num_trials_validated_before_graph_build(self, trials, monkeypatch):
        def no_build(*args, **kwargs):
            raise AssertionError("graph built before num_trials was checked")

        monkeypatch.setattr("repro.workloads.gap.generate_kronecker", no_build)
        with pytest.raises(ValueError, match="num_trials"):
            GapWorkload("cc", num_trials=trials)

    def test_footprint_covers_all_arrays(self):
        w = GapWorkload("bfs", scale=10, seed=0)
        assert w.footprint_pages == (
            w._indptr_arr.num_pages
            + w._indices_arr.num_pages
            + w._prop32.num_pages
            + w._prop64_a.num_pages
            + w._prop64_b.num_pages
        )

    def test_regions_disjoint(self):
        w, __ = run_workload("bfs")
        regions = w.machine.address_space.regions
        for a, b in zip(regions, regions[1:]):
            assert a.end_page == b.start_page


@pytest.mark.parametrize("kernel", ["bfs", "cc", "bc"])
class TestTraces:
    def test_accesses_within_footprint(self, kernel):
        w, batches = run_workload(kernel)
        assert len(batches) > 0
        for batch in batches:
            if batch.num_accesses:
                assert batch.page_ids.min() >= 0
                assert batch.page_ids.max() < w.footprint_pages

    def test_trace_is_substantial(self, kernel):
        __, batches = run_workload(kernel)
        total = sum(b.num_accesses for b in batches)
        assert total > 1_000  # kernels really traverse the graph

    def test_labels_carry_trials(self, kernel):
        __, batches = run_workload(kernel, trials=2, seed=1)
        labels = {b.label for b in batches}
        assert labels == {"trial0", "trial1"}

    def test_deterministic(self, kernel):
        __, a = run_workload(kernel, seed=3)
        __, b = run_workload(kernel, seed=3)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert np.array_equal(x.page_ids, y.page_ids)


class TestKernelSemantics:
    def test_bfs_reaches_large_component(self):
        w = GapWorkload("bfs", scale=10, num_trials=1, seed=0)
        m = Machine(
            MachineConfig(
                local_capacity_pages=w.footprint_pages,
                cxl_capacity_pages=64,
            )
        )
        w.setup(m)
        levels = list(w.batches())
        # A power-law graph's giant component spans several BFS levels.
        assert len(levels) >= 3

    def test_cc_converges(self):
        __, batches = run_workload("cc", scale=9, seed=1)
        # Label propagation converges well under the 64-iteration bound.
        assert len(batches) < 64

    def test_bc_has_forward_and_backward_phases(self):
        __, batches = run_workload("bc", scale=9, seed=2)
        # Backward pass adds batches beyond the BFS depth.
        bfs_only = run_workload("bfs", scale=9, seed=2)[1]
        assert len(batches) > len(bfs_only)

    def test_source_never_isolated(self):
        w = GapWorkload("bfs", scale=10, seed=0)
        degrees = w.graph.degrees()
        for __ in range(10):
            assert degrees[w._pick_source()] > 0

    def test_indices_and_property_traffic_both_present(self):
        """Sequential CSR reads (line-granular) plus random property
        accesses (element-granular) both appear; the random property
        checks dominate counts, like the visited-checks of real BFS."""
        w, batches = run_workload("bfs", scale=12, seed=0)
        lo = w._indices_arr.start_page
        hi = lo + w._indices_arr.num_pages
        total, in_indices = 0, 0
        for b in batches:
            total += b.num_accesses
            in_indices += int(
                np.count_nonzero((b.page_ids >= lo) & (b.page_ids < hi))
            )
        share = in_indices / max(total, 1)
        assert 0.02 < share < 0.9
