"""The engine's run-compressed fast path must never change results.

The compressed path (prefix-sum counting, position-sampled observers,
compressed hint faults -- no stream expansion anywhere) must match the
expanded-stream path bit-for-bit for every policy that opts out of
stream materialization, which is all of them.
``tests/accel/test_kernel_equivalence.py`` pins the individual
kernels; this pins their composition.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import policies
from repro.core.config import ExperimentConfig
from repro.core.parallel import PolicySpec, WorkloadSpec
from repro.core.runner import run_experiment

WORKLOAD = WorkloadSpec("cdn", slab_pages=2_048, ops_per_batch=2_000, seed=7)
CONFIG = ExperimentConfig(
    local_fraction=0.12, ratio_label="1:16", max_batches=25, seed=7
)

SEEDS = (1, 2, 3)

#: Registry name -> class whose ``needs_access_stream`` flag forces the
#: expanded reference path when monkeypatched to True.
POLICY_CLASSES = {
    "freqtier": policies.FreqTier,
    "hybridtier": policies.HybridTier,
    "autonuma": policies.AutoNUMA,
    "tpp": policies.TPP,
    "multiclock": policies.MultiClock,
    "hemem": policies.HeMem,
    "damon": policies.DAMONRegion,
    "static": policies.StaticNoMigration,
    "alllocal": policies.AllLocal,
}


def _as_dict(result):
    return dataclasses.asdict(result)


def test_every_policy_opts_out_of_stream_materialization():
    """The whole registry runs compressed batches without expansion."""
    for name, cls in POLICY_CLASSES.items():
        assert cls.needs_access_stream is False, name


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("policy", sorted(POLICY_CLASSES))
def test_compressed_path_matches_expanded_path(policy, seed, monkeypatch):
    """Compressed fast path == expanded reference path, per policy.

    The compressed run exercises prefix-sum tier counting plus the
    policy's compressed observers (``pages_at`` sampling, compressed
    hint faults, strided touched sets); forcing
    ``needs_access_stream=True`` makes the engine materialize the
    stream and gather per-access tiers, sending every observer down its
    expanded reference path.  Everything downstream (counts, sampling,
    migrations, costs) must be unaffected.
    """
    compressed = run_experiment(WORKLOAD, PolicySpec(policy, seed=seed), CONFIG)
    monkeypatch.setattr(POLICY_CLASSES[policy], "needs_access_stream", True)
    expanded = run_experiment(WORKLOAD, PolicySpec(policy, seed=seed), CONFIG)
    assert _as_dict(compressed) == _as_dict(expanded)


def test_engine_results_deterministic_across_runs():
    first = run_experiment(WORKLOAD, PolicySpec("freqtier", seed=2), CONFIG)
    second = run_experiment(WORKLOAD, PolicySpec("freqtier", seed=2), CONFIG)
    assert _as_dict(first) == _as_dict(second)
