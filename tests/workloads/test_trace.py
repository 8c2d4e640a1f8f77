"""Tests for the synthetic Zipf workload and replayed streams."""

import dataclasses

import numpy as np
import pytest

from repro.core.config import ExperimentConfig
from repro.core.parallel import PolicySpec, WorkloadSpec
from repro.core.runner import build_all_local_machine, run_experiment
from repro.core.shm import SharedStreamFactory, publish_stream
from repro.memsim.machine import Machine, MachineConfig
from repro.memsim.tier import CXL1_CONFIG
from repro.workloads.trace import SyntheticZipfWorkload
from repro.workloads.traceio import TraceFileWorkload, save_trace


def build_machine(pages: int) -> Machine:
    return Machine(
        MachineConfig(
            local_capacity_pages=max(32, pages // 8),
            cxl_capacity_pages=pages * 2,
        )
    )


class TestSyntheticZipf:
    def test_batches(self):
        w = SyntheticZipfWorkload(num_pages=1000, accesses_per_batch=500, seed=0)
        m = build_machine(1000)
        w.setup(m)
        batch = next(iter(w.batches()))
        assert batch.num_accesses == 500
        assert batch.page_ids.max() < 1000

    def test_hottest_pages_oracle(self):
        w = SyntheticZipfWorkload(num_pages=1000, alpha=1.5, seed=1)
        m = build_machine(1000)
        w.setup(m)
        hot = set(w.hottest_pages(50).tolist())
        batch = next(iter(w.batches()))
        hit = np.fromiter((p in hot for p in batch.page_ids), dtype=bool)
        assert hit.mean() > 0.4  # top-5% pages dominate at alpha=1.5

    def test_use_before_setup_raises(self):
        w = SyntheticZipfWorkload(num_pages=100)
        with pytest.raises(RuntimeError):
            w.machine

    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticZipfWorkload(num_pages=0)


class TestReplay:
    @pytest.mark.parametrize("source", ["file", "executor"])
    def test_replayed_cdn_run_equals_live_run(self, source, tmp_path):
        """A recording -- in a saved trace file or published by the
        executor -- keeps the runs, the head dtype and CDN's 1024-byte
        accesses, so the replayed run costs exactly what the live run
        did."""
        cdn = WorkloadSpec("cdn", slab_pages=2_048, ops_per_batch=2_000, seed=7)
        config = ExperimentConfig(
            local_fraction=0.12, ratio_label="1:16", max_batches=20, seed=7
        )

        def live_stream():
            workload = cdn()
            workload.setup(
                build_all_local_machine(workload.footprint_pages, CXL1_CONFIG)
            )
            return workload

        if source == "file":
            path = tmp_path / "cdn.trace"
            stream = live_stream()
            save_trace(path, stream.batches(), stream.footprint_pages, 20)

            def replay():
                return TraceFileWorkload(path)

            def replayed_batches():
                return TraceFileWorkload(path).batches()

        else:
            handle = publish_stream(cdn, 20)
            replay = SharedStreamFactory(cdn, handle)

            def replayed_batches():
                return handle.open().batches()

        policy = PolicySpec("freqtier", seed=1)
        try:
            live = dataclasses.asdict(run_experiment(cdn, policy, config))
            replayed = dataclasses.asdict(run_experiment(replay, policy, config))
            batch = next(iter(replayed_batches()))
        finally:
            if source == "executor":
                handle.unlink()
        live.pop("workload_name")
        replayed.pop("workload_name")
        assert replayed == live
        assert batch.run_starts.size > 0
        assert batch.bytes_per_access == 1024.0
        live_batch = next(live_stream().batches())
        assert batch.head_page_ids.dtype == live_batch.head_page_ids.dtype
