"""Zero-copy shared-memory stream executor: identity, fallback, lifecycle.

The contract: turning ``share_streams`` on changes *nothing* about the
results -- every cell of a grid must be byte-identical to serial
execution -- while the workload's access stream is generated once and
mapped read-only by every worker.  Recording files must not outlive
the grid.
"""

from __future__ import annotations

import dataclasses
import os
import pickle

import numpy as np
import pytest

from repro.core.config import ExperimentConfig
from repro.core.parallel import (
    CellSpec,
    ParallelExecutor,
    PolicySpec,
    WorkloadSpec,
)
from repro.core.shm import (
    SharedStreamFactory,
    SharedStreamWorkload,
    publish_stream,
)

WORKLOAD = WorkloadSpec("cdn", slab_pages=2_048, ops_per_batch=2_000, seed=11)
CONFIG = ExperimentConfig(
    local_fraction=0.12, ratio_label="1:16", max_batches=20, seed=11
)
POLICIES = ("freqtier", "autonuma", "tpp")


def _grid():
    return [
        CellSpec(WORKLOAD, PolicySpec(name, seed=11), CONFIG, label=name)
        for name in POLICIES
    ]


def _dicts(results):
    return [dataclasses.asdict(r) for r in results]


# ---------------------------------------------------------------------------
# recording / replay
# ---------------------------------------------------------------------------


def test_replay_reproduces_generated_stream():
    handle = publish_stream(WORKLOAD, 20)
    try:
        assert len(handle.open()) == 20
        replay = SharedStreamWorkload(WORKLOAD, handle)
        fresh = WORKLOAD()
        from repro.core.runner import build_all_local_machine
        from repro.memsim.tier import CXL1_CONFIG

        fresh.setup(build_all_local_machine(fresh.footprint_pages, CXL1_CONFIG))
        fresh_stream = fresh.batches()
        for got in replay.batches():
            want = next(fresh_stream)
            assert got.label == want.label
            assert got.num_ops == want.num_ops
            assert got.cpu_ns == want.cpu_ns
            # page_ids materializes compressed batches on both sides.
            np.testing.assert_array_equal(got.page_ids, want.page_ids)
            assert not got.head_page_ids.flags.writeable
    finally:
        handle.unlink()


def test_replay_views_are_read_only():
    handle = publish_stream(WORKLOAD, 5)
    try:
        for batch in handle.open().batches():
            for view in (batch.head_page_ids, batch.run_starts, batch.run_counts):
                with pytest.raises(ValueError):
                    view[0] = 0
    finally:
        handle.unlink()


def test_handle_pickles_by_value_and_reattaches():
    handle = publish_stream(WORKLOAD, 5)
    try:
        clone = pickle.loads(pickle.dumps(handle))
        assert clone == handle
        for mine, theirs in zip(handle.open().batches(), clone.open().batches()):
            np.testing.assert_array_equal(mine.page_ids, theirs.page_ids)
    finally:
        handle.unlink()


def test_unlink_is_idempotent_and_removes_segment():
    handle = publish_stream(WORKLOAD, 5)
    path = handle.path
    handle.unlink()
    handle.unlink()  # second call is a no-op
    assert not os.path.exists(path)


def test_shared_workload_delegates_identity():
    handle = publish_stream(WORKLOAD, 5)
    try:
        replay = SharedStreamWorkload(WORKLOAD, handle)
        fresh = WORKLOAD()
        assert replay.name == fresh.name
        assert replay.seed == fresh.seed
        assert replay.footprint_pages == fresh.footprint_pages
        assert replay.describe().get("shared_stream") is True
    finally:
        handle.unlink()


# ---------------------------------------------------------------------------
# executor integration
# ---------------------------------------------------------------------------


def test_pool_with_shared_streams_matches_serial():
    serial = ParallelExecutor(jobs=1).run(_grid())
    shared = ParallelExecutor(jobs=2, share_streams=True)
    pooled = shared.run(_grid())
    assert _dicts(pooled) == _dicts(serial)
    assert shared.stats.shm_segments == 1  # one workload group
    assert shared.stats.shm_bytes > 0
    assert shared.stats.shm_fallbacks == 0


def test_pool_without_sharing_still_matches_serial():
    serial = ParallelExecutor(jobs=1).run(_grid())
    off = ParallelExecutor(jobs=2, share_streams=False)
    pooled = off.run(_grid())
    assert _dicts(pooled) == _dicts(serial)
    assert off.stats.shm_segments == 0


def test_segments_unlinked_after_grid():
    executor = ParallelExecutor(jobs=2, share_streams=True)
    specs, handles = executor._substitute_shared(_grid())
    assert len(handles) == 1
    path = handles[0].path
    assert isinstance(specs[0].workload, SharedStreamFactory)
    for handle in handles:
        handle.unlink()
    assert not os.path.exists(path)


# ---------------------------------------------------------------------------
# eligibility / fallback
# ---------------------------------------------------------------------------


def test_single_cell_groups_not_published():
    executor = ParallelExecutor(jobs=2, share_streams=True)
    specs, handles = executor._substitute_shared(_grid()[:1])
    assert handles == []
    assert not isinstance(specs[0].workload, SharedStreamFactory)


def test_unbounded_budget_ineligible():
    config = dataclasses.replace(CONFIG, max_batches=None, max_accesses=10_000)
    spec = CellSpec(WORKLOAD, PolicySpec("freqtier", seed=11), config)
    assert ParallelExecutor._stream_key(spec) is None


def test_max_accesses_limit_ineligible():
    config = dataclasses.replace(CONFIG, max_accesses=10_000)
    spec = CellSpec(WORKLOAD, PolicySpec("freqtier", seed=11), config)
    assert ParallelExecutor._stream_key(spec) is None


def test_closure_factory_ineligible():
    spec = CellSpec(lambda: None, PolicySpec("freqtier", seed=11), CONFIG)
    assert ParallelExecutor._stream_key(spec) is None


def test_checkpointing_cell_ineligible(tmp_path):
    spec = CellSpec(
        WORKLOAD, PolicySpec("freqtier", seed=11), CONFIG,
        checkpoint_dir=str(tmp_path),
    )
    assert ParallelExecutor._stream_key(spec) is None


def test_shared_workload_has_no_stream_position():
    handle = publish_stream(WORKLOAD, 5)
    try:
        replay = SharedStreamWorkload(WORKLOAD, handle)
        for name in ("state_dict", "load_state", "load_position", "position"):
            with pytest.raises(AttributeError, match="no position"):
                getattr(replay, name)
    finally:
        handle.unlink()


def test_same_workload_same_key_different_workload_different_key():
    a = CellSpec(WORKLOAD, PolicySpec("freqtier", seed=11), CONFIG)
    b = CellSpec(WORKLOAD, PolicySpec("tpp", seed=3), CONFIG)
    other = CellSpec(
        WorkloadSpec("cdn", slab_pages=2_048, ops_per_batch=2_000, seed=99),
        PolicySpec("freqtier", seed=11),
        CONFIG,
    )
    key_a = ParallelExecutor._stream_key(a)
    assert key_a is not None
    assert key_a == ParallelExecutor._stream_key(b)  # policy-independent
    assert key_a != ParallelExecutor._stream_key(other)


def test_publish_failure_counts_fallback(monkeypatch):
    import repro.core.shm as shm_mod

    def boom(*args, **kwargs):
        raise OSError("no shared memory on this platform")

    monkeypatch.setattr(shm_mod, "publish_stream", boom)
    executor = ParallelExecutor(jobs=2, share_streams=True)
    specs, handles = executor._substitute_shared(_grid())
    assert handles == []
    assert executor.stats.shm_fallbacks == 1
    assert not any(isinstance(s.workload, SharedStreamFactory) for s in specs)


def _batch_bytes() -> list[int]:
    """Recorded bytes of each batch of the grid's stream."""
    handle = publish_stream(WORKLOAD, CONFIG.max_batches)
    try:
        return [
            b.head_page_ids.nbytes + b.run_starts.nbytes + b.run_counts.nbytes
            for b in handle.open().batches()
        ]
    finally:
        handle.unlink()


def test_stream_counted_once_against_memory_budget(monkeypatch):
    import repro.workloads.recording as recording_mod

    batch_bytes = _batch_bytes()
    # Room for one copy of the stream (and of the first batch's
    # projection), not for two.
    one_copy = max(sum(batch_bytes), batch_bytes[0] * CONFIG.max_batches)
    monkeypatch.setattr(recording_mod, "_memory_budget", lambda: 3 * one_copy // 2)
    executor = ParallelExecutor(jobs=2, share_streams=True)
    _, handles = executor._substitute_shared(_grid())
    for handle in handles:
        handle.unlink()
    assert executor.stats.shm_segments == 1
    assert executor.stats.shm_fallbacks == 0


def test_stream_over_memory_budget_falls_back(monkeypatch):
    import repro.core.shm as shm_mod
    import repro.workloads.recording as recording_mod

    batch_bytes = _batch_bytes()
    # Room for half the stream.
    budget = sum(batch_bytes) // 2
    stopped = []
    publish = shm_mod.publish_stream

    def publishing(*args, **kwargs):
        try:
            return publish(*args, **kwargs)
        except recording_mod.StreamTooLarge as exc:
            stopped.append(exc)
            raise

    monkeypatch.setattr(recording_mod, "_memory_budget", lambda: budget)
    monkeypatch.setattr(shm_mod, "publish_stream", publishing)
    capped = ParallelExecutor(jobs=2, share_streams=True)
    results = capped.run(_grid())

    [exc] = stopped
    assert exc.budget == budget
    # At most one batch past the budget.
    assert exc.recorded_bytes - max(batch_bytes) <= budget
    assert capped.stats.shm_fallbacks == 1
    assert capped.stats.shm_segments == 0
    unshared = ParallelExecutor(jobs=2, share_streams=False).run(_grid())
    assert _dicts(results) == _dicts(unshared)
