"""A resume never silently starts over from batch 0.

A generation of another schema -- here the committed schema-4 JSON
checkpoint, or the schema-5 FreqTier one -- stays in place and fails the run or the cell
with a message naming both schemas; a daemon refuses the directory
before it serves anything.  A stream cursor that disagrees
with the snapshot's ``batches_done`` raises rather than replay from the
wrong place.
"""

from __future__ import annotations

import pathlib
import shutil

import pytest

from repro.cli import main
from repro.core.config import ExperimentConfig
from repro.core.engine import SimulationEngine
from repro.core.parallel import CellSpec, FailedCell, ParallelExecutor, PolicySpec, WorkloadSpec
from repro.core.runner import build_machine, run_experiment
from repro.faults import FaultPlan
from repro.serve import ServeConfig
from repro.state import (
    STATE_SCHEMA_VERSION,
    CheckpointManager,
    SnapshotSchemaError,
)

from tests.serve.conftest import make_daemon

SCHEMA4 = pathlib.Path(__file__).parent / "data" / "schema4" / "snap-00000001.json"
SCHEMA5 = pathlib.Path(__file__).parent / "data" / "schema5" / "snap-00000001.ckpt"
#: How a schema-4 generation is refused.
REFUSED = f"schema 4.*only schema {STATE_SCHEMA_VERSION}"
ZIPF = WorkloadSpec("zipf", num_pages=1024, alpha=1.2, seed=5)
CONFIG = ExperimentConfig(local_fraction=0.1, ratio_label="1:8", max_batches=12, seed=5)


@pytest.fixture
def old_generation(tmp_path) -> pathlib.Path:
    """A checkpoint directory holding only the schema-4 generation."""
    directory = tmp_path / "ck"
    directory.mkdir()
    shutil.copy(SCHEMA4, directory / SCHEMA4.name)
    return directory


def _left_in_place(directory: pathlib.Path) -> bool:
    return sorted(p.name for p in directory.iterdir()) == [SCHEMA4.name]


def test_older_schema_fails_the_run_before_any_batch(old_generation, monkeypatch):
    steps = []
    step = SimulationEngine.step
    monkeypatch.setattr(
        SimulationEngine, "step", lambda self, *a, **k: steps.append(1) or step(self, *a, **k)
    )
    with pytest.raises(SnapshotSchemaError, match=REFUSED):
        run_experiment(
            ZIPF, PolicySpec("freqtier", seed=5), CONFIG,
            checkpoint_dir=old_generation, checkpoint_every_batches=1,
            resume_from=old_generation,
        )
    assert steps == []
    assert _left_in_place(old_generation)


def test_cli_run_resume_exits_with_one_line(old_generation):
    with pytest.raises(SystemExit) as info:
        main([
            "run", "--workload", "zipf", "--policy", "freqtier", "--batches", "3",
            "--checkpoint-dir", str(old_generation), "--resume",
        ])
    message = str(info.value.code)
    assert "schema 4" in message and f"schema {STATE_SCHEMA_VERSION}" in message
    assert "\n" not in message
    assert _left_in_place(old_generation)


def test_executor_cell_fails_with_the_message(old_generation):
    cell = CellSpec(
        ZIPF, PolicySpec("freqtier", seed=5), CONFIG,
        label="old", checkpoint_dir=str(old_generation), checkpoint_every=1,
    )
    [result] = ParallelExecutor(jobs=1, retries=1, keep_going=True).run([cell])
    assert isinstance(result, FailedCell)
    assert "schema 4" in result.error and f"schema {STATE_SCHEMA_VERSION}" in result.error
    assert _left_in_place(old_generation)


def test_daemon_tick_fails_instead_of_restarting_at_tick_zero(old_generation):
    # The daemon never gets to a tick: a directory that already holds
    # generations is refused when the daemon is built.
    with pytest.raises(ValueError, match="already holds snapshot generations"):
        make_daemon(
            serve=ServeConfig(checkpoint_every_ticks=1000, max_restarts=3),
            faults=FaultPlan(seed=2, crash_after_batches=3),
            checkpoint_dir=str(old_generation),
        )
    assert _left_in_place(old_generation)


def test_schema_5_freqtier_checkpoint_refused_in_place(tmp_path):
    """Schema 6 renamed keys inside the FreqTier state: restoring a
    schema-5 generation must name both schemas, not fail on a key."""
    shutil.copy(SCHEMA5, tmp_path / SCHEMA5.name)
    with pytest.raises(
        SnapshotSchemaError, match=f"schema 5.*only schema {STATE_SCHEMA_VERSION}"
    ):
        run_experiment(
            ZIPF, PolicySpec("freqtier", seed=5), CONFIG, resume_from=tmp_path
        )
    assert sorted(p.name for p in tmp_path.iterdir()) == [SCHEMA5.name]


def _engine(spec: WorkloadSpec, directory=None, every: int = 0) -> SimulationEngine:
    workload = spec()
    return SimulationEngine(
        build_machine(workload.footprint_pages, CONFIG),
        workload,
        PolicySpec("freqtier", seed=5)(),
        checkpoint_manager=CheckpointManager(directory) if directory else None,
        checkpoint_every_batches=every,
    )


@pytest.mark.parametrize(
    "spec",
    [ZIPF, WorkloadSpec("gap", kernel="bfs", scale=10, num_trials=3, seed=3)],
    ids=["zipf", "gap"],
)
def test_cursor_disagreeing_with_batches_done_raises(tmp_path, spec):
    _engine(spec, tmp_path, every=5).run(max_batches=5)
    payload = CheckpointManager(tmp_path).load_latest().payload
    payload["progress"]["batches_done"] += 1
    with pytest.raises(ValueError, match="batch 5 of its stream.*batch 6"):
        _engine(spec).restore_state(payload)
