"""Acceptance property: kill-at-any-batch resume is bit-identical.

For fixed seeds, a run checkpointed and killed mid-flight, then
resumed, must produce an :class:`ExperimentResult` exactly equal to an
uninterrupted run -- across seeds, across policies, and with an active
fault plan injecting migration/sampling failures.
"""

from __future__ import annotations

import json

import pytest

from repro.core.config import ExperimentConfig
from repro.core.parallel import PolicySpec, WorkloadSpec
from repro.core.runner import run_experiment
from repro.faults import FaultPlan
from repro.state import STATE_SCHEMA_VERSION, CheckpointManager

TOTAL_BATCHES = 36
KILL_AT = 17  # not a checkpoint multiple: resume replays a partial interval
EVERY = 5

ACTIVE_PLAN = FaultPlan(
    migration_fail_prob=0.1, sample_loss_prob=0.05, seed=11
)


def _cfg(seed: int, batches: int) -> ExperimentConfig:
    return ExperimentConfig(
        local_fraction=0.1, ratio_label="1:8", max_batches=batches, seed=seed
    )


def _specs(policy: str, seed: int):
    workload = WorkloadSpec("zipf", num_pages=2048, alpha=1.2, seed=seed)
    return workload, PolicySpec(policy, seed=seed)


@pytest.mark.parametrize("faults", [None, ACTIVE_PLAN], ids=["nofaults", "faults"])
@pytest.mark.parametrize("policy", ["freqtier", "hemem"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kill_resume_is_bit_identical(tmp_path, seed, policy, faults):
    workload, pol = _specs(policy, seed)
    reference = run_experiment(
        workload, pol, _cfg(seed, TOTAL_BATCHES), faults=faults
    )

    # "Kill at batch KILL_AT": run only that far, checkpointing as we go.
    ckpt = tmp_path / "ck"
    run_experiment(
        workload,
        pol,
        _cfg(seed, KILL_AT),
        faults=faults,
        checkpoint_dir=ckpt,
        checkpoint_every_batches=EVERY,
    )
    resumed = run_experiment(
        workload, pol, _cfg(seed, TOTAL_BATCHES), faults=faults, resume_from=ckpt
    )
    assert resumed.to_dict() == reference.to_dict()


@pytest.mark.parametrize(
    "policy", ["autonuma", "tpp", "multiclock", "hemem", "damon"]
)
@pytest.mark.parametrize("seed", [0, 1])
def test_kill_resume_on_compressed_workload(tmp_path, seed, policy):
    """Kill-resume stays bit-identical on the run-compressed fast path.

    The cdn workload emits run-compressed batches and every policy here
    opts out of stream materialization, so this drives resume through
    the compressed observers (position-sampled PEBS, compressed hint
    faults, strided touched sets) rather than the zipf matrix's
    expanded streams.
    """
    workload = WorkloadSpec(
        "cdn", slab_pages=2_048, ops_per_batch=2_000, seed=seed
    )
    pol = PolicySpec(policy, seed=seed)
    reference = run_experiment(workload, pol, _cfg(seed, TOTAL_BATCHES))
    ckpt = tmp_path / "ck"
    run_experiment(
        workload,
        pol,
        _cfg(seed, KILL_AT),
        checkpoint_dir=ckpt,
        checkpoint_every_batches=EVERY,
    )
    resumed = run_experiment(
        workload, pol, _cfg(seed, TOTAL_BATCHES), resume_from=ckpt
    )
    assert resumed.to_dict() == reference.to_dict()


def test_checkpointing_itself_does_not_perturb_results(tmp_path):
    workload, pol = _specs("freqtier", 4)
    reference = run_experiment(workload, pol, _cfg(4, TOTAL_BATCHES))
    checkpointed = run_experiment(
        workload,
        pol,
        _cfg(4, TOTAL_BATCHES),
        checkpoint_dir=tmp_path / "ck",
        checkpoint_every_batches=EVERY,
    )
    assert checkpointed.to_dict() == reference.to_dict()


def test_corrupt_newest_generation_falls_back_and_completes(tmp_path):
    workload, pol = _specs("freqtier", 7)
    reference = run_experiment(workload, pol, _cfg(7, TOTAL_BATCHES))

    ckpt = tmp_path / "ck"
    run_experiment(
        workload,
        pol,
        _cfg(7, KILL_AT),
        checkpoint_dir=ckpt,
        checkpoint_every_batches=EVERY,
    )
    generations = CheckpointManager(ckpt).generations()
    assert len(generations) >= 2
    generations[-1].write_text("{ torn mid-write", encoding="utf-8")

    resumed = run_experiment(
        workload, pol, _cfg(7, TOTAL_BATCHES), resume_from=ckpt
    )
    assert resumed.to_dict() == reference.to_dict()
    # The bad generation was quarantined for diagnosis.
    assert list(ckpt.glob("*.corrupt"))


def test_resume_from_missing_directory_is_a_fresh_start(tmp_path):
    workload, pol = _specs("freqtier", 5)
    reference = run_experiment(workload, pol, _cfg(5, 12))
    resumed = run_experiment(
        workload, pol, _cfg(5, 12), resume_from=tmp_path / "never-written"
    )
    assert resumed.to_dict() == reference.to_dict()


def test_identity_mismatch_is_rejected(tmp_path):
    workload, pol = _specs("freqtier", 6)
    ckpt = tmp_path / "ck"
    run_experiment(
        workload,
        pol,
        _cfg(6, KILL_AT),
        checkpoint_dir=ckpt,
        checkpoint_every_batches=EVERY,
    )
    other_workload, other_pol = _specs("hemem", 6)
    with pytest.raises(ValueError, match="does not match"):
        run_experiment(
            other_workload,
            other_pol,
            _cfg(6, TOTAL_BATCHES),
            resume_from=ckpt,
        )


def test_snapshots_are_json_documents(tmp_path):
    """Checkpoint files open with a plain JSON header (inspectable,
    diffable): after the 8-byte magic and its little-endian length."""
    workload, pol = _specs("freqtier", 8)
    ckpt = tmp_path / "ck"
    run_experiment(
        workload,
        pol,
        _cfg(8, 10),
        checkpoint_dir=ckpt,
        checkpoint_every_batches=5,
    )
    paths = CheckpointManager(ckpt).generations()
    assert paths
    data = paths[-1].read_bytes()
    doc = json.loads(data[16 : 16 + int.from_bytes(data[8:16], "little")])
    assert doc["schema"] == STATE_SCHEMA_VERSION
    assert doc["payload"]["progress"]["batches_done"] == 10
