"""Committed snapshots pin the checkpoint layout and still resume.

``data/<policy>/snap-00000001.ckpt`` are schema-6 checkpoints taken at
batch 10 of a 12-batch zipf run (1,024 pages, seed 5).  Their payloads
equal the schema-5 ones they replace except in the page table, the
CBF coalescer and the perf-stat counter, whose state schema 6 encodes
by declared fields; the schema-5 FreqTier file is kept as
``data/schema5/snap-00000001.ckpt`` and the oldest, a schema-4 JSON
document, as ``data/schema4/snap-00000001.json``.  Loading one and
capturing the restored engine must write the identical file, and
resuming from it must equal the uninterrupted run.

``data/cbf-since-aging/snap-00000001.ckpt`` is the same FreqTier
checkpoint as written while the CBF still kept an aging clock: its
``policy.cbf`` entry holds a ``since_aging`` key that no field declares
now.  It is still schema 6, and still resumes.
"""

from __future__ import annotations

import pathlib
import shutil

import pytest

from repro.core.config import ExperimentConfig
from repro.core.engine import SimulationEngine
from repro.core.parallel import PolicySpec, WorkloadSpec
from repro.core.runner import build_machine, run_experiment
from repro.state import Snapshot

DATA = pathlib.Path(__file__).parent / "data"
SNAPSHOT = "snap-00000001.ckpt"


def _cell(policy: str):
    return (
        WorkloadSpec("zipf", num_pages=1024, alpha=1.2, seed=5),
        PolicySpec(policy, seed=5),
        ExperimentConfig(
            local_fraction=0.1, ratio_label="1:8", max_batches=12, seed=5
        ),
    )


@pytest.mark.parametrize("policy", ["freqtier", "autonuma"])
def test_committed_snapshot_reencodes_identically(policy, tmp_path):
    path = DATA / policy / SNAPSHOT
    snapshot = Snapshot.read(path)
    assert snapshot.payload["workload"]["batch"] == 10
    workload_spec, policy_spec, config = _cell(policy)
    workload = workload_spec()
    engine = SimulationEngine(
        build_machine(workload.footprint_pages, config),
        workload,
        policy_spec(),
    )
    engine.restore_state(snapshot.payload)
    with open(tmp_path / SNAPSHOT, "wb") as fh:
        Snapshot.write(fh, engine.capture_state())
    assert (tmp_path / SNAPSHOT).read_bytes() == path.read_bytes()


@pytest.mark.parametrize("policy", ["freqtier", "autonuma"])
def test_committed_snapshot_resumes_bit_identically(tmp_path, policy):
    resume_dir = tmp_path / policy
    resume_dir.mkdir()
    shutil.copy(DATA / policy / SNAPSHOT, resume_dir / SNAPSHOT)
    workload, pol, config = _cell(policy)
    reference = run_experiment(workload, pol, config)
    resumed = run_experiment(workload, pol, config, resume_from=resume_dir)
    # Still in place: an invalid generation would have been quarantined
    # and the run started fresh.
    assert (resume_dir / SNAPSHOT).exists()
    assert resumed.to_dict() == reference.to_dict()


def test_snapshot_with_cbf_since_aging_resumes_bit_identically(tmp_path):
    snapshot = Snapshot.read(DATA / "cbf-since-aging" / SNAPSHOT)
    assert "since_aging" in snapshot.payload["policy"]["cbf"]
    shutil.copy(DATA / "cbf-since-aging" / SNAPSHOT, tmp_path / SNAPSHOT)
    workload, pol, config = _cell("freqtier")
    reference = run_experiment(workload, pol, config)
    resumed = run_experiment(workload, pol, config, resume_from=tmp_path)
    assert (tmp_path / SNAPSHOT).exists()
    assert resumed.to_dict() == reference.to_dict()
