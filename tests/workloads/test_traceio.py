"""Tests for trace persistence and replay."""

import numpy as np
import pytest

from repro.core.config import ExperimentConfig
from repro.core.runner import run_experiment
from repro.memsim.machine import Machine, MachineConfig
from repro.policies.static_policy import StaticNoMigration
from repro.workloads.trace import SyntheticZipfWorkload
from repro.workloads.traceio import TraceFileWorkload, save_trace


@pytest.fixture
def saved_trace(tmp_path):
    workload = SyntheticZipfWorkload(
        num_pages=1000, accesses_per_batch=500, seed=7
    )
    machine = Machine(
        MachineConfig(local_capacity_pages=100, cxl_capacity_pages=2000)
    )
    workload.setup(machine)
    path = tmp_path / "trace.npz"
    count = save_trace(path, workload.batches(), 1000, max_batches=6)
    assert count == 6
    return path, workload


class TestSaveLoad:
    def test_roundtrip_identical(self, saved_trace):
        path, original = saved_trace
        replay = TraceFileWorkload(path)
        assert replay.footprint_pages == 1000
        assert replay.num_batches == 6

        # Regenerate the original stream for comparison.
        original2 = SyntheticZipfWorkload(
            num_pages=1000, accesses_per_batch=500, seed=7
        )
        machine = Machine(
            MachineConfig(local_capacity_pages=100, cxl_capacity_pages=2000)
        )
        original2.setup(machine)
        machine2 = Machine(
            MachineConfig(local_capacity_pages=100, cxl_capacity_pages=2000)
        )
        replay.setup(machine2)
        src = original2.batches()
        for i, batch in enumerate(replay.batches()):
            expected = next(src)
            assert np.array_equal(batch.page_ids, expected.page_ids), i
            assert batch.num_ops == expected.num_ops
            assert batch.cpu_ns == expected.cpu_ns

    def test_replay_is_rewindable(self, saved_trace):
        path, __ = saved_trace
        replay = TraceFileWorkload(path)
        machine = Machine(
            MachineConfig(local_capacity_pages=100, cxl_capacity_pages=2000)
        )
        replay.setup(machine)
        first = [b.page_ids.copy() for b in replay.batches()]
        second = [b.page_ids.copy() for b in replay.batches()]
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    def test_empty_trace_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_trace(tmp_path / "x.npz", iter([]), 100)

    def test_runs_through_experiment_facade(self, saved_trace):
        path, __ = saved_trace
        config = ExperimentConfig(local_fraction=0.1, max_batches=None, seed=0)
        result = run_experiment(
            lambda: TraceFileWorkload(path), StaticNoMigration, config
        )
        assert result.total_accesses == 6 * 500
        assert result.workload_name.startswith("trace:")

    def test_footprint_validation(self, tmp_path):
        from repro.sampling.events import AccessBatch

        batch = AccessBatch(
            page_ids=np.array([500]), num_ops=1.0, cpu_ns=0.0
        )
        path = tmp_path / "bad.npz"
        save_trace(path, [batch], footprint_pages=100)
        with pytest.raises(ValueError):
            TraceFileWorkload(path)


def _write_raw_trace(path, page_ids, batch_ends, footprint=100):
    """An ``.npz`` in the trace layout, bypassing save_trace's checks."""
    n = len(batch_ends)
    np.savez(
        path,
        page_ids=np.asarray(page_ids, dtype=np.int64),
        batch_ends=np.asarray(batch_ends, dtype=np.int64),
        num_ops=np.ones(n),
        cpu_ns=np.zeros(n),
        bytes_per_access=np.full(n, 64.0),
        labels=np.asarray([""] * n, dtype="U64"),
        footprint_pages=np.int64(footprint),
    )


class TestTraceFileValidation:
    def test_well_formed_raw_trace_loads(self, tmp_path):
        path = tmp_path / "ok.npz"
        _write_raw_trace(path, [1, 2, 3, 4], [1, 1, 4])
        assert TraceFileWorkload(path).num_batches == 3

    def test_negative_page_ids_rejected(self, tmp_path):
        path = tmp_path / "negative.npz"
        _write_raw_trace(path, [3, -1, 7], [3])
        with pytest.raises(ValueError, match="outside"):
            TraceFileWorkload(path)

    def test_decreasing_batch_ends_rejected(self, tmp_path):
        path = tmp_path / "decreasing.npz"
        _write_raw_trace(path, [1, 2, 3, 4], [3, 2, 4])
        with pytest.raises(ValueError, match="batch_ends"):
            TraceFileWorkload(path)

    def test_batch_ends_must_cover_every_access(self, tmp_path):
        path = tmp_path / "short.npz"
        _write_raw_trace(path, [1, 2, 3, 4], [1, 3])
        with pytest.raises(ValueError, match="batch_ends"):
            TraceFileWorkload(path)
