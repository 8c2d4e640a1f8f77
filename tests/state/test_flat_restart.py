"""Restart cost does not grow with the run: resume continues the stream.

Engine snapshots and the daemon's queue checkpoints carry each
workload's stream position, so a resumed engine pulls the first batch
after its snapshot and a restarted daemon regenerates only the backlog
its queues held -- however late the crash.  A workload whose position
cannot be continued makes the resume raise instead of silently
restarting the stream from its first batch.
"""

from __future__ import annotations

import json

import pytest

from repro.core.config import ExperimentConfig
from repro.core.engine import SimulationEngine
from repro.core.parallel import PolicySpec
from repro.core.runner import build_machine
from repro.faults import FaultPlan
from repro.memsim.machine import Machine
from repro.sampling.events import AccessBatch
from repro.serve import ServeConfig, VirtualTimeDriver
from repro.state import CheckpointManager
from repro.workloads.spec import Workload
from repro.workloads.trace import SyntheticZipfWorkload

from tests.serve.conftest import make_daemon

CONFIG = ExperimentConfig(local_fraction=0.1, ratio_label="1:8", seed=4)


class CountingZipf(SyntheticZipfWorkload):
    """A Zipf workload that counts the batches it generates."""

    def __init__(self, seed: int = 4):
        super().__init__(num_pages=512, accesses_per_batch=200, seed=seed)
        self.generated = 0

    def batches(self):
        for batch in super().batches():
            self.generated += 1
            yield batch


def _engine(workload: Workload, checkpoint_dir=None, every: int = 0):
    return SimulationEngine(
        build_machine(workload.footprint_pages, CONFIG),
        workload,
        PolicySpec("freqtier", seed=4)(),
        checkpoint_manager=(
            CheckpointManager(checkpoint_dir) if checkpoint_dir else None
        ),
        checkpoint_every_batches=every,
    )


@pytest.mark.parametrize("resume_at", [10, 200])
def test_resumed_engine_generates_no_prefix(tmp_path, resume_at):
    _engine(CountingZipf(), tmp_path, every=resume_at).run(max_batches=resume_at)
    payload = CheckpointManager(tmp_path).load_latest().payload
    assert payload["progress"]["batches_done"] == resume_at

    workload = CountingZipf()
    engine = _engine(workload)
    engine.restore_state(payload)
    resumed = engine.run(max_batches=resume_at + 2)
    # Two batches serviced plus the one pulled past the budget.
    assert workload.generated == 3
    reference = _engine(CountingZipf()).run(max_batches=resume_at + 2)
    assert resumed.to_dict() == reference.to_dict()


def _canonical(state: dict) -> str:
    # The crash-disarm flag differs between the two runs by design.
    return json.dumps({**state, "faults": None}, sort_keys=True, default=str)


def _serve(tmp_path, crash_after: int | None):
    """Two overloaded shed-oldest tenants, checkpointing every 5 ticks."""
    daemon = make_daemon(
        serve=ServeConfig(
            queue_capacity=6,
            backpressure="shed-oldest",
            max_batches_per_tick=3,
            checkpoint_every_ticks=5,
            max_restarts=2,
        ),
        tenants={"a": lambda: CountingZipf(1), "b": lambda: CountingZipf(2)},
        faults=FaultPlan(seed=3, crash_after_batches=crash_after),
        checkpoint_dir=str(tmp_path),
    )
    return daemon, VirtualTimeDriver(daemon, arrivals=2, max_offers=1_700)


@pytest.mark.parametrize("crash_after", [250, 2_500])
def test_restarted_daemon_regenerates_only_the_backlog(tmp_path, crash_after):
    daemon, driver = _serve(tmp_path / "crashed", crash_after)
    regenerated = None
    while regenerated is None:
        if driver.step() is None:
            # The rebuilt tenants have generated just the re-admitted
            # backlog so far.
            regenerated = {t: w.generated for t, w in daemon.tenants.items()}
            readmitted = {t: len(q) for t, q in daemon.queues.items()}
    # Rolled back at most one checkpoint interval (5 ticks of 3).
    assert daemon.engine.batches_done >= crash_after - 15
    for tenant, count in regenerated.items():
        assert count == readmitted[tenant] <= 6, tenant
    driver.finish()

    reference, ref_driver = _serve(tmp_path / "reference", None)
    ref_driver.finish()
    assert driver.restarts_seen == 1
    assert _canonical(daemon.engine.capture_state()) == _canonical(
        reference.engine.capture_state()
    )


class _Positionless(Workload):
    """A test-local generator whose position lives in generator locals."""

    name = "positionless"

    @property
    def footprint_pages(self) -> int:
        return 64

    def setup(self, machine: Machine) -> None:
        machine.allocate(64, name="positionless")
        self._machine = machine

    def batches(self):
        for i in range(100):
            yield AccessBatch(page_ids=[i % 64], num_ops=1.0, cpu_ns=10.0)


def test_resume_without_a_declared_position_raises(tmp_path):
    _engine(_Positionless(), tmp_path, every=5).run(max_batches=5)
    payload = CheckpointManager(tmp_path).load_latest().payload
    engine = _engine(_Positionless())
    with pytest.raises(ValueError, match="declares no stream position"):
        engine.restore_state(payload)


def test_resume_at_a_mismatched_cursor_raises(tmp_path):
    from repro.workloads.xgboost_like import XGBoostWorkload

    def xgb():
        return XGBoostWorkload(num_features=16, column_pages=8, num_rounds=4)

    _engine(xgb(), tmp_path, every=5).run(max_batches=5)
    payload = CheckpointManager(tmp_path).load_latest().payload
    payload["workload"]["level"] -= 1
    with pytest.raises(ValueError, match="batch 4 of its stream.*batch 5"):
        _engine(xgb()).restore_state(payload)
