"""Tests for trace persistence and replay."""

import numpy as np
import pytest

from repro.core.config import ExperimentConfig
from repro.core.runner import run_experiment
from repro.memsim.machine import Machine, MachineConfig
from repro.policies.static_policy import StaticNoMigration
from repro.sampling.events import AccessBatch
from repro.workloads.recording import Recording
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
    path = tmp_path / "zipf.trace"
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
            save_trace(tmp_path / "x.trace", iter([]), 100)

    def test_runs_through_experiment_facade(self, saved_trace):
        path, __ = saved_trace
        config = ExperimentConfig(local_fraction=0.1, max_batches=None, seed=0)
        result = run_experiment(
            lambda: TraceFileWorkload(path), StaticNoMigration, config
        )
        assert result.total_accesses == 6 * 500
        assert result.workload_name.startswith("trace:")

    def test_footprint_validation(self, tmp_path):
        batch = AccessBatch(
            page_ids=np.array([500]), num_ops=1.0, cpu_ns=0.0
        )
        path = tmp_path / "bad.trace"
        save_trace(path, [batch], footprint_pages=100)
        with pytest.raises(ValueError):
            TraceFileWorkload(path)


def _write_recording(path, labels=("",), **columns):
    """A one-batch recording file (two heads, one 5-page run) over 100
    pages, bypassing the recorder; ``columns`` replace the defaults."""
    Recording(
        labels=labels,
        footprint_pages=100,
        **{
            "head_page_ids": np.array([1, 2]),
            "run_starts": np.array([10]),
            "run_counts": np.array([5]),
            "head_batch_ends": np.array([2]),
            "run_batch_ends": np.array([1]),
            "num_ops": np.array([1.0]),
            "cpu_ns": np.array([0.0]),
            "bytes_per_access": np.array([64.0]),
            "label_codes": np.array([0], dtype=np.int32),
            **columns,
        },
    ).save(path)


def _write_heads_only(path, page_ids, batch_ends, **columns):
    """A heads-only recording file of ``len(batch_ends)`` batches over
    100 pages, via :func:`_write_recording`; ``columns`` replace the
    defaults."""
    n = len(batch_ends)
    _write_recording(
        path,
        **{
            "head_page_ids": np.asarray(page_ids),
            "run_starts": np.empty(0, dtype=np.int64),
            "run_counts": np.empty(0, dtype=np.int64),
            "head_batch_ends": np.asarray(batch_ends),
            "run_batch_ends": np.zeros(n, dtype=np.int64),
            "num_ops": np.ones(n),
            "cpu_ns": np.zeros(n),
            "bytes_per_access": np.full(n, 64.0),
            "label_codes": np.zeros(n, dtype=np.int32),
            **columns,
        },
    )


class TestTraceFileValidation:
    def test_well_formed_raw_trace_loads(self, tmp_path):
        path = tmp_path / "ok.trace"
        _write_heads_only(path, [1, 2, 3, 4], [1, 1, 4])
        trace = TraceFileWorkload(path)
        assert trace.num_batches == 3
        assert [b.page_ids.tolist() for b in trace.batches()] == [[1], [], [2, 3, 4]]

    def test_negative_page_ids_rejected(self, tmp_path):
        path = tmp_path / "negative.trace"
        _write_heads_only(path, [3, -1, 7], [3])
        with pytest.raises(ValueError, match="outside"):
            TraceFileWorkload(path)

    def test_decreasing_batch_ends_rejected(self, tmp_path):
        path = tmp_path / "decreasing.trace"
        _write_heads_only(path, [1, 2, 3, 4], [3, 2, 4])
        with pytest.raises(ValueError, match="batch_ends"):
            TraceFileWorkload(path)

    def test_batch_ends_must_cover_every_access(self, tmp_path):
        path = tmp_path / "short.trace"
        _write_heads_only(path, [1, 2, 3, 4], [1, 3])
        with pytest.raises(ValueError, match="batch_ends"):
            TraceFileWorkload(path)

    @pytest.mark.parametrize(
        "columns, match",
        [
            ({"bytes_per_access": np.full(2, 64.0)}, "bytes_per_access"),
            ({"label_codes": np.zeros(2, dtype=np.int32)}, "label_codes"),
            ({"num_ops": np.array([1.0, 1.0, -1.0])}, "num_ops"),
            ({"cpu_ns": np.array([0.0, -5.0, 0.0])}, "cpu_ns"),
            ({"bytes_per_access": np.array([64.0, 0.0, 64.0])}, "bytes_per_access"),
        ],
    )
    def test_malformed_batch_columns_rejected(self, tmp_path, columns, match):
        path = tmp_path / "bad.trace"
        _write_heads_only(path, [1, 2, 3], [1, 2, 3], **columns)
        with pytest.raises(ValueError, match=match):
            TraceFileWorkload(path)

    def test_float_page_ids_rejected(self, tmp_path):
        path = tmp_path / "float.trace"
        _write_heads_only(path, [1.7, 2.2], [2])
        with pytest.raises(ValueError, match="not a flat int32 or int64"):
            TraceFileWorkload(path)

    def test_long_label_survives_round_trip(self, tmp_path):
        label = "phase-" + "x" * 74
        batch = AccessBatch(
            page_ids=np.array([5]), num_ops=1.0, cpu_ns=0.0, label=label
        )
        path = tmp_path / "long_label.trace"
        save_trace(path, [batch], footprint_pages=100)
        [replayed] = TraceFileWorkload(path).batches()
        assert replayed.label == label

    def test_well_formed_recording_is_memory_mapped(self, tmp_path):
        path = tmp_path / "ok.trace"
        _write_recording(path)
        [batch] = TraceFileWorkload(path).batches()
        assert batch.page_ids.tolist() == [1, 2, 10, 11, 12, 13, 14]
        assert not batch.head_page_ids.flags.writeable
        base = batch.run_starts
        while not isinstance(base, np.memmap):
            base = base.base
        assert base.mode == "r"

    @pytest.mark.parametrize(
        "columns, match",
        [
            ({"run_counts": np.array([-5])}, "run_counts"),
            ({"run_starts": np.array([98])}, "outside"),
            ({"run_starts": np.array([10.5])}, "not a flat int64"),
            (
                {"head_page_ids": np.array([1, 2], dtype=np.uint64)},
                "not a flat int32 or int64",
            ),
            ({"label_codes": np.array([1], dtype=np.int32)}, "vocabulary"),
        ],
    )
    def test_malformed_recording_rejected(self, tmp_path, columns, match):
        path = tmp_path / "bad.trace"
        _write_recording(path, **columns)
        with pytest.raises(ValueError, match=match):
            TraceFileWorkload(path)

    def test_unknown_format_version_rejected(self, tmp_path):
        path = tmp_path / "future.trace"
        _write_recording(path)
        data = path.read_bytes().replace(
            b'"format_version": 1', b'"format_version": 9'
        )
        path.write_bytes(data)
        with pytest.raises(ValueError, match="version"):
            TraceFileWorkload(path)

    def test_unsigned_decreasing_batch_ends_rejected(self, tmp_path):
        path = tmp_path / "unsigned_ends.trace"
        _write_heads_only(path, [1, 2, 3, 4], np.array([3, 2, 4], np.uint64))
        with pytest.raises(ValueError, match="head_batch_ends of dtype uint64"):
            TraceFileWorkload(path)

    def test_numpy_archive_is_refused(self, tmp_path):
        path = tmp_path / "old.npz"
        np.savez(path, page_ids=np.array([1, 2]), batch_ends=np.array([2]))
        with pytest.raises(ValueError, match="old.npz.*not a version-1 trace file"):
            TraceFileWorkload(path)
