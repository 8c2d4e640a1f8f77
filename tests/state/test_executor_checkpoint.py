"""Executor-level durability: crash-retry resume and the result store.

With a ``checkpoint_root`` and no ``cache``, finished cells live in
``ResultCache(<root>/results)``: that store is the grid's journal of
completed cells, and ``stats.cache_hits`` counts the cells it skips.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.core.config import ExperimentConfig
from repro.core.parallel import (
    CellSpec,
    FailedCell,
    ParallelExecutor,
    PolicySpec,
    WorkloadSpec,
)
from repro.core.runner import run_all_local, run_experiment
from repro.faults import FaultPlan

WORKLOAD = WorkloadSpec("zipf", num_pages=2048, alpha=1.2, seed=5)
POLICY = PolicySpec("freqtier", seed=5)
CONFIG = ExperimentConfig(
    local_fraction=0.1, ratio_label="1:8", max_batches=36, seed=5
)

CRASH_PLAN = FaultPlan(migration_fail_prob=0.05, crash_after_batches=18, seed=5)
#: The crash check consumes no RNG, so a crashed-then-resumed run must
#: equal a run under the same plan with the crash removed.
REFERENCE_PLAN = dataclasses.replace(CRASH_PLAN, crash_after_batches=None)


def _reference():
    return run_experiment(WORKLOAD, POLICY, CONFIG, faults=REFERENCE_PLAN)


def test_crash_retry_resumes_from_checkpoint(tmp_path):
    executor = ParallelExecutor(
        jobs=2, retries=1, checkpoint_root=tmp_path, checkpoint_every=5
    )
    result = executor.run_one(
        CellSpec(WORKLOAD, POLICY, CONFIG, label="crash", faults=CRASH_PLAN)
    )
    assert not isinstance(result, FailedCell)
    assert result.to_dict() == _reference().to_dict()
    assert executor.stats.retries == 1
    # The cell got its own directory under <root>/cells/ with snapshots.
    cells = list((tmp_path / "cells").iterdir())
    assert len(cells) == 1
    assert list(cells[0].glob("snap-*.ckpt"))


def test_hard_crash_retry_resumes_after_pool_rebuild(tmp_path):
    # A second, innocent cell forces the pool path (a lone cell runs
    # serially in this process, which a hard crash would take down).
    plan = dataclasses.replace(CRASH_PLAN, crash_hard=True)
    executor = ParallelExecutor(
        jobs=2, retries=1, checkpoint_root=tmp_path, checkpoint_every=5
    )
    crasher = CellSpec(WORKLOAD, POLICY, CONFIG, label="hardcrash", faults=plan)
    innocent = CellSpec(WORKLOAD, POLICY, CONFIG, label="innocent")
    crashed, clean = executor.run([crasher, innocent])
    assert not isinstance(crashed, FailedCell)
    assert crashed.to_dict() == _reference().to_dict()
    assert clean.to_dict() == run_experiment(WORKLOAD, POLICY, CONFIG).to_dict()
    assert executor.stats.pool_rebuilds >= 1


def test_journal_skips_completed_cells_across_invocations(tmp_path):
    """A re-invoked grid executes nothing; a ``journal.jsonl`` left in
    the root by older releases is ignored."""
    specs = [
        CellSpec(WORKLOAD, POLICY, CONFIG, label="ft"),
        CellSpec(WORKLOAD, PolicySpec("tpp", seed=5), CONFIG, label="tpp"),
        CellSpec(WORKLOAD, None, CONFIG, label="base"),
    ]
    stale = {
        "fingerprint": specs[0].fingerprint(),
        "result": run_all_local(WORKLOAD, CONFIG).to_dict(),
    }
    (tmp_path / "journal.jsonl").write_text(json.dumps(stale) + "\n")
    first = ParallelExecutor(jobs=1, checkpoint_root=tmp_path)
    cold = first.run(specs)
    assert first.stats.cache_hits == 0
    assert first.stats.executed == len(specs)
    assert len(list((tmp_path / "results").glob("*.json"))) == len(specs)

    second = ParallelExecutor(jobs=1, checkpoint_root=tmp_path)
    warm = second.run(specs)
    assert second.stats.cache_hits == len(specs)
    assert second.stats.executed == 0
    assert [r.to_dict() for r in warm] == [r.to_dict() for r in cold]


def test_journal_results_match_fresh_computation(tmp_path):
    inline = run_experiment(WORKLOAD, POLICY, CONFIG)
    executor = ParallelExecutor(jobs=1, checkpoint_root=tmp_path)
    journalled = executor.run_one(CellSpec(WORKLOAD, POLICY, CONFIG))
    assert journalled.to_dict() == inline.to_dict()


def test_all_local_cells_journal_but_do_not_checkpoint(tmp_path):
    executor = ParallelExecutor(jobs=1, checkpoint_root=tmp_path)
    executor.run_one(CellSpec(WORKLOAD, None, CONFIG, label="base"))
    assert not (tmp_path / "cells").exists()
    again = ParallelExecutor(jobs=1, checkpoint_root=tmp_path)
    again.run_one(CellSpec(WORKLOAD, None, CONFIG, label="base"))
    assert again.stats.cache_hits == 1


def test_checkpoint_every_must_be_positive(tmp_path):
    with pytest.raises(ValueError, match="checkpoint_every"):
        ParallelExecutor(checkpoint_root=tmp_path, checkpoint_every=0)
