"""Policy results, pinned at recorded digests.

AutoNUMA and TPP profile through hint faults (``accel.hint_faults``)
and strided touched sets (``AccessBatch.strided_pages``).  How those
scans are computed must never move a result: the faults, their order
and their latencies feed promotion, and the touched sets feed recency.
``test_engine_equivalence.py`` compares two encodings of one stream,
both through the same kernels; this file compares today's kernels
with the results recorded before they last changed.

AutoNUMA, TPP, HeMem and MULTI-CLOCK also share the kernel's
make-room-and-promote protocol and a coldest-k demotion.  Each policy
ranks local pages by its own score and tie-break, and the order of
the demoted pages is part of the result: under faults,
``FaultInjector.filter_migration`` draws one transient-failure number
per page in arrival order.  The
``chaos`` cells run the ``cdn`` cell under ``FAULT_PRESETS["chaos"]``
and fail demotions in every policy, so a change to the demotion set
*or* its order moves their digests.

FreqTier, HeMem, MULTI-CLOCK and DAMON sample through PEBS: one
skip-sampler stream per policy, drained into per-policy metadata.
Their cells pin the sampled stream, the ring's loss and corruption
handling under faults and the ``samples_processed`` count, so a change
to how samples are drawn, charged, filtered or counted moves them.

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
from repro.faults import FAULT_PRESETS

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
CELLS["chaos"] = CELLS["cdn"]

DIGESTS = {
    ("cdn", "freqtier"): "2c5f443a4b5107a80a83713866137e7cd08f31ea62fdd5c5450210a8fd6f2320",
    ("cdn", "damon"): "03cf79a61563c2417824f7e9130d648b1f310cf937ac2e98ce9d52ea82a928b0",
    ("cdn", "autonuma"): "5c8c79e2be2aa398f4f3d5c4371c7e8743e1e62cb26147f1a81d4aca9d48d08c",
    ("cdn", "tpp"): "a0db1ba7830493c6ca0eb386e4ecb7b0f5dbde96999463862038e9673a77a0b5",
    ("cdn", "hemem"): "c5b65f69c55c55ffa844fe3a97fdb1f475bb82bb422c4e875574cb88b826626f",
    ("cdn", "multiclock"): "4743ad51a4256fddf81819afc744e4af4877cd08756918e5566208d45160426c",
    ("gap-cc", "autonuma"): "2aa6f24363037db8950b19af14c82f86e9885f82f96e52a6ca38b6017aa191d2",
    ("gap-cc", "tpp"): "285460e4ff47f36bd6d7e61763a6240008ae12fe0fb020bc83d8d898663a47df",
    ("gap-cc", "freqtier"): "97d0f6cb31fa3abd7daa0f787e89b4c6e27b42ee737e4b54551ca5b71d535ef7",
    ("gap-cc", "damon"): "3b3860dc915200ddce9dbe91e4589eedebb2b7d81787484ed27c4c3d8a38b6a3",
    ("chaos", "autonuma"): "d043449cf39bcdc35a9405dcbd630ab6d7c7f3a2da5b2c3a7365937c8381f522",
    ("chaos", "tpp"): "a7f5840a48b6973ad027a1976fb7981cb93d1e4d9073f13d36163c6322deedbd",
    ("chaos", "hemem"): "c653dbf2ccf990f79607fdd9f901538141349fdf084087c2350cbba1f480a00a",
    ("chaos", "multiclock"): "be5ce99663fe7f2a6534ff90e7144bb87a7d9b6abf03fcddea9007cbe488eb58",
    ("chaos", "freqtier"): "123780153f26f6910cbe829cf9ddba9e0eef77aa6ae886ee76bfb201ba1265c7",
    ("chaos", "damon"): "2d28a8253a6c0e9493b465f656db87070a0eb880307ba4405d1d8c6055a78e04",
}


@pytest.mark.parametrize("workload,policy", sorted(DIGESTS))
def test_result_matches_recorded_digest(workload, policy):
    factory, config = CELLS[workload]
    faults = FAULT_PRESETS["chaos"] if workload == "chaos" else None
    result = run_experiment(
        factory, PolicySpec(policy, seed=11), config, faults=faults
    )
    data = result.to_dict()
    stats = data["policy_stats"]
    # Every cell promotes, so it runs the make-room-and-promote path.
    assert stats["promotions"] > 0
    if policy in ("freqtier", "hemem", "multiclock", "damon"):
        # Every PEBS policy counts the samples it drained.
        assert stats["samples_processed"] > 0
    if faults is not None:
        # Failed demotions make the digest see the demotion order.
        assert stats["demotions_failed"] > 0
    blob = json.dumps(data, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == DIGESTS[(workload, policy)]
