"""Property: every policy and workload round-trips its state dict.

``p2.load_state(p1.state_dict())`` on a freshly built, attached
instance must reproduce ``p1``'s state bit-identically -- including
through a snapshot file (the form checkpoints take on disk), which
gives a whole captured engine state back exactly.  Parametrized over
every registered policy x every workload family; workload generators additionally prove their *future draws*
are frozen by the round trip, and that a fresh ``batches()`` call after
``load_state`` continues the stream exactly where it stood -- the stream
position is part of the state.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.config import ExperimentConfig
from repro.core.engine import SimulationEngine
from repro.core.parallel import PolicySpec, WorkloadSpec
from repro.core.runner import build_machine
from repro.workloads import gap
from repro.workloads.cachelib import CDN_PROFILE, CacheLibWorkload, Phase
from repro.workloads.traceio import TraceFileWorkload, save_trace

from tests.state.conftest import assert_same_state, snapshot_round_trip

CONFIG = ExperimentConfig(local_fraction=0.1, ratio_label="1:8", seed=3)

POLICY_NAMES = [
    "freqtier",
    "hybridtier",
    "autonuma",
    "tpp",
    "hemem",
    "multiclock",
    "damon",
    "static",
]

WORKLOADS = {
    "zipf": WorkloadSpec("zipf", num_pages=1024, alpha=1.1, seed=3),
    "cdn": WorkloadSpec("cdn", slab_pages=1024, ops_per_batch=2000, seed=3),
    "social": WorkloadSpec(
        "social", slab_pages=1024, ops_per_batch=2000, seed=3
    ),
    "gap-bfs": WorkloadSpec("gap", kernel="bfs", scale=11, num_trials=2, seed=3),
    "xgboost": WorkloadSpec("xgboost", num_rounds=4, seed=3),
}


def _policy_spec(name: str) -> PolicySpec:
    return PolicySpec(name) if name == "static" else PolicySpec(name, seed=3)


def _engine(policy_name: str, workload_key: str) -> SimulationEngine:
    workload = WORKLOADS[workload_key]()
    machine = build_machine(workload.footprint_pages, CONFIG)
    return SimulationEngine(machine, workload, _policy_spec(policy_name)())


@pytest.mark.parametrize("workload_key", sorted(WORKLOADS))
@pytest.mark.parametrize("policy_name", POLICY_NAMES)
def test_policy_state_round_trips(policy_name, workload_key):
    engine = _engine(policy_name, workload_key)
    engine.run(max_batches=6)
    state = engine.policy.state_dict()

    fresh = _engine(policy_name, workload_key)
    fresh.capture_state()  # forces setup: components attached
    fresh.policy.load_state(snapshot_round_trip(state))
    assert_same_state(fresh.policy.state_dict(), state)


@pytest.mark.parametrize("workload_key", sorted(WORKLOADS))
@pytest.mark.parametrize("policy_name", POLICY_NAMES)
def test_captured_state_comes_back_from_a_snapshot_file(policy_name, workload_key):
    """The whole payload: dtypes, shapes and scalar types included."""
    engine = _engine(policy_name, workload_key)
    engine.run(max_batches=6)
    captured = engine.capture_state()
    assert_same_state(snapshot_round_trip(captured), captured)


@pytest.mark.parametrize("workload_key", sorted(WORKLOADS))
def test_workload_state_round_trips_and_freezes_draws(workload_key):
    spec = WORKLOADS[workload_key]
    w1, w2 = spec(), spec()
    m1 = build_machine(w1.footprint_pages, CONFIG)
    m2 = build_machine(w2.footprint_pages, CONFIG)
    w1.setup(m1)
    w2.setup(m2)

    # Advance w1 mid-stream so its RNG state is non-trivial.
    stream = w1.batches()
    for _ in range(4):
        if next(stream, None) is None:
            break

    state = w1.state_dict()
    w2.load_state(snapshot_round_trip(state))
    assert_same_state(w2.state_dict(), state)

    # Identical restored state must produce identical future draws.
    b1 = next(w1.batches(), None)
    b2 = next(w2.batches(), None)
    assert (b1 is None) == (b2 is None)
    if b1 is not None:
        assert np.array_equal(b1.page_ids, b2.page_ids)
        assert b1.num_ops == b2.num_ops
        assert b1.cpu_ns == b2.cpu_ns


def _built(factory):
    workload = factory()
    workload.setup(build_machine(workload.footprint_pages, CONFIG))
    return workload


def _batch_key(batch) -> tuple:
    return (
        batch.page_ids.tobytes(),
        batch.label,
        batch.num_ops,
        batch.cpu_ns,
        batch.bytes_per_access,
    )


def _families(tmp_path) -> dict:
    """A factory per workload family, each stream finite or not."""
    zipf = WorkloadSpec("zipf", num_pages=512, accesses_per_batch=300, seed=3)
    trace = tmp_path / "zipf.trace"
    source = _built(zipf)
    save_trace(trace, source.batches(), source.footprint_pages, 12)
    return {
        **WORKLOADS,
        "gap-cc": WorkloadSpec("gap", kernel="cc", scale=10, num_trials=2, seed=3),
        "cdn-phases": lambda: CacheLibWorkload(
            CDN_PROFILE,
            slab_pages=1024,
            ops_per_batch=500,
            phase_plan=(Phase(0.0, 0.5, 6), Phase(0.5, 1.0, None)),
            churn_swaps_per_batch=20,
            seed=3,
        ),
        "trace-file": lambda: TraceFileWorkload(trace),
    }


@pytest.mark.parametrize(
    "family", sorted([*WORKLOADS, "gap-cc", "cdn-phases", "trace-file"])
)
def test_fresh_stream_continues_after_load_state(family, tmp_path):
    factory = _families(tmp_path)[family]
    w1 = _built(factory)
    stream = w1.batches()
    for _ in range(4):
        next(stream)
    state = snapshot_round_trip(w1.state_dict())
    expected = [_batch_key(b) for b in itertools.islice(stream, 12)]

    w2 = _built(factory)
    w2.load_state(state)
    got = [_batch_key(b) for b in itertools.islice(w2.batches(), 12)]
    assert got == expected


@pytest.mark.parametrize("memo", ["cold", "warm"])
@pytest.mark.parametrize("kernel", ["bfs", "cc"])
def test_gap_resumes_mid_trial(kernel, memo):
    """Mid-trial, a fresh stream reruns the trial's kernel (cold memo)
    or reads the memo (warm) and skips the emitted steps unshuffled."""
    spec = WorkloadSpec("gap", kernel=kernel, scale=10, num_trials=2, seed=3)
    w1 = _built(spec)
    stream = w1.batches()
    labels = []
    while labels.count("trial1") < 2:
        labels.append(next(stream).label)
    state = snapshot_round_trip(w1.state_dict())
    assert state["trial"] == 1 and state["step"] == 2
    expected = [_batch_key(b) for b in stream]

    gap._TRIALS.clear()
    if memo == "warm":
        list(_built(spec).batches())  # leaves trial 1 memoised
        assert len(gap._TRIALS) == 1
    w2 = _built(spec)
    w2.load_state(state)
    assert [_batch_key(b) for b in w2.batches()] == expected
    # Exhausted: the position rewound, so the next pass starts over.
    assert (w2._trial, w2._step, w2._source) == (0, 0, -1)
