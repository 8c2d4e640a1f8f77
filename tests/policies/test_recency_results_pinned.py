"""AutoNUMA and TPP results, pinned at recorded digests.

Both policies profile through hint faults (``accel.hint_faults``) and
strided touched sets (``AccessBatch.strided_pages``).  How those scans
are computed must never move a result: the faults, their order and
their latencies feed promotion, and the touched sets feed recency.
``test_engine_equivalence.py`` compares two encodings of one stream,
both through the same kernels; this file compares today's kernels
with the results recorded before they last changed.

Each cell's digest is the SHA-256 of ``ExperimentResult.to_dict()``
as sorted-key JSON.  The CDN cells send the run-compressed path
through the kernel, the GAP CC cells the heads-only path.  A digest
that moves means a result moved: find the change that moved it
rather than re-recording the digest.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.config import ExperimentConfig
from repro.core.parallel import PolicySpec, WorkloadSpec
from repro.core.runner import run_experiment

CELLS = {
    "cdn": (
        WorkloadSpec("cdn", slab_pages=4_096, ops_per_batch=4_000, seed=11),
        ExperimentConfig(
            local_fraction=0.06, ratio_label="1:32", max_batches=300, seed=11
        ),
    ),
    "gap-cc": (
        WorkloadSpec("gap", kernel="cc", scale=16, num_trials=6, seed=11),
        ExperimentConfig(
            local_fraction=0.06, ratio_label="1:32", max_batches=200, seed=11
        ),
    ),
}

DIGESTS = {
    ("cdn", "autonuma"): "5c8c79e2be2aa398f4f3d5c4371c7e8743e1e62cb26147f1a81d4aca9d48d08c",
    ("cdn", "tpp"): "a0db1ba7830493c6ca0eb386e4ecb7b0f5dbde96999463862038e9673a77a0b5",
    ("gap-cc", "autonuma"): "2aa6f24363037db8950b19af14c82f86e9885f82f96e52a6ca38b6017aa191d2",
    ("gap-cc", "tpp"): "285460e4ff47f36bd6d7e61763a6240008ae12fe0fb020bc83d8d898663a47df",
}


@pytest.mark.parametrize("workload,policy", sorted(DIGESTS))
def test_result_matches_recorded_digest(workload, policy):
    factory, config = CELLS[workload]
    result = run_experiment(factory, PolicySpec(policy, seed=11), config)
    data = result.to_dict()
    # Promotions come only from hint faults: the cell exercises them.
    assert data["policy_stats"]["promotions"] > 0
    blob = json.dumps(data, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == DIGESTS[(workload, policy)]
