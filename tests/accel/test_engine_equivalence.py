"""A batch's encoding must never change results.

Every batch is run-compressed: a head of single-page accesses plus
page runs.  The CDN generator emits long runs; explicit streams (GAP,
Zipf, traces) become heads-only batches.  Re-encoding the CDN stream
heads-only (its expanded ``page_ids``, same ``bytes_per_access``)
sends every consumer -- prefix-sum vs head-gather tier counting,
position sampling, hint faults, strided touched sets -- down its other
branch, and the results must match bit-for-bit for every registry
policy.  ``tests/accel/test_kernel_equivalence.py`` pins the
individual kernels; this pins their composition.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.config import ExperimentConfig
from repro.core.parallel import PolicySpec, WorkloadSpec
from repro.core.runner import run_experiment
from repro.faults import FAULT_PRESETS
from repro.sampling.events import AccessBatch
from repro.workloads.spec import Workload

WORKLOAD = WorkloadSpec("cdn", slab_pages=2_048, ops_per_batch=2_000, seed=7)
CONFIG = ExperimentConfig(
    local_fraction=0.12, ratio_label="1:16", max_batches=25, seed=7
)

SEEDS = (1, 2, 3)

POLICIES = (
    "alllocal",
    "autonuma",
    "damon",
    "freqtier",
    "hemem",
    "hybridtier",
    "multiclock",
    "static",
    "tpp",
)


class HeadsOnly(Workload):
    """The CDN stream, each batch re-encoded as an explicit stream."""

    def __init__(self) -> None:
        self.inner = WORKLOAD()
        super().__init__(seed=self.inner.seed)
        self.name = self.inner.name

    @property
    def footprint_pages(self) -> int:
        return self.inner.footprint_pages

    def setup(self, machine) -> None:
        self.inner.setup(machine)

    def batches(self):
        for batch in self.inner.batches():
            assert batch.run_starts.size  # the CDN stream has runs
            yield AccessBatch(
                page_ids=batch.page_ids.copy(),
                num_ops=batch.num_ops,
                cpu_ns=batch.cpu_ns,
                label=batch.label,
                bytes_per_access=batch.bytes_per_access,
            )


def _as_dict(result):
    return dataclasses.asdict(result)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("policy", POLICIES)
def test_compressed_path_matches_expanded_path(policy, seed):
    """The CDN stream compressed == the same stream heads-only."""
    compressed = run_experiment(WORKLOAD, PolicySpec(policy, seed=seed), CONFIG)
    heads_only = run_experiment(HeadsOnly, PolicySpec(policy, seed=seed), CONFIG)
    assert _as_dict(compressed) == _as_dict(heads_only)


def test_encodings_match_under_transient_faults():
    """FreqTier long enough to migrate, with some migrations failing."""
    config = dataclasses.replace(CONFIG, max_batches=80)
    faults = FAULT_PRESETS["transient"]
    spec = PolicySpec("freqtier", seed=2)
    compressed = run_experiment(WORKLOAD, spec, config, faults=faults)
    heads_only = run_experiment(HeadsOnly, spec, config, faults=faults)
    assert compressed.policy_stats.get("promotions_failed", 0) > 0
    assert _as_dict(compressed) == _as_dict(heads_only)


def test_engine_results_deterministic_across_runs():
    first = run_experiment(WORKLOAD, PolicySpec("freqtier", seed=2), CONFIG)
    second = run_experiment(WORKLOAD, PolicySpec("freqtier", seed=2), CONFIG)
    assert _as_dict(first) == _as_dict(second)
