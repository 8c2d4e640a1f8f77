"""Parallel executor: spec round-trips, jobs semantics, determinism."""

from __future__ import annotations

import pickle

import pytest

from repro.core.config import ExperimentConfig
from repro.core.parallel import (
    CellSpec,
    ParallelExecutor,
    PolicySpec,
    WorkloadSpec,
    executor_from_env,
    resolve_jobs,
)
from repro.core.runner import compare_policies, run_all_local, run_experiment

WORKLOAD = WorkloadSpec("zipf", num_pages=512, alpha=1.1, seed=3)
POLICIES = {
    "FreqTier": PolicySpec("freqtier", seed=3),
    "TPP": PolicySpec("tpp", seed=3),
}
CONFIG = ExperimentConfig(local_fraction=0.1, max_batches=8, seed=3)


def test_workload_spec_builds_fresh_instances():
    a, b = WORKLOAD(), WORKLOAD()
    assert a is not b
    assert a.footprint_pages == b.footprint_pages


def test_policy_spec_builds_policy():
    policy = PolicySpec("freqtier", seed=7)()
    assert policy.name == "FreqTier"
    assert policy.seed == 7


def test_unknown_spec_name_raises_with_choices():
    with pytest.raises(KeyError, match="registered:"):
        WorkloadSpec("no-such-workload")()
    with pytest.raises(KeyError, match="registered:"):
        PolicySpec("no-such-policy")()


def test_specs_pickle_by_value():
    spec = CellSpec(WORKLOAD, POLICIES["FreqTier"], CONFIG, label="x")
    clone = pickle.loads(pickle.dumps(spec))
    assert clone.workload == WORKLOAD
    assert clone.policy == POLICIES["FreqTier"]
    assert clone.label == "x"
    assert clone.fingerprint() == spec.fingerprint()


def test_with_params_overrides_without_mutating():
    base = PolicySpec("freqtier", seed=1)
    varied = base.with_params(seed=2)
    assert base.params == {"seed": 1}
    assert varied.params == {"seed": 2}


def test_resolve_jobs():
    assert resolve_jobs(1) == 1
    assert resolve_jobs(5) == 5
    assert resolve_jobs(0) >= 1
    with pytest.raises(ValueError):
        resolve_jobs(-1)


def test_parallel_matches_serial_bit_identical():
    """The acceptance-criterion test: jobs=4 == jobs=1, field for field."""
    serial = compare_policies(
        WORKLOAD, POLICIES, CONFIG, executor=ParallelExecutor(jobs=1)
    )
    parallel = compare_policies(
        WORKLOAD, POLICIES, CONFIG, executor=ParallelExecutor(jobs=4)
    )
    assert set(serial) == set(parallel) == {"AllLocal", "FreqTier", "TPP"}
    for name in serial:
        assert serial[name].to_dict() == parallel[name].to_dict(), name


def test_executor_path_matches_legacy_serial_path():
    """compare_policies (the executor path) equals the inline runner
    called once per cell."""
    routed = compare_policies(WORKLOAD, POLICIES, CONFIG)
    inline = {"AllLocal": run_all_local(WORKLOAD, CONFIG)}
    inline.update(
        (name, run_experiment(WORKLOAD, factory, CONFIG))
        for name, factory in POLICIES.items()
    )
    assert list(routed) == list(inline)
    for name in inline:
        assert inline[name].to_dict() == routed[name].to_dict(), name


def test_run_cells_positional_alignment():
    specs = [
        CellSpec(WORKLOAD, POLICIES["TPP"], CONFIG),
        CellSpec(WORKLOAD, None, CONFIG),
        CellSpec(WORKLOAD, POLICIES["FreqTier"], CONFIG),
    ]
    results = ParallelExecutor(jobs=2).run(specs)
    assert [r.policy_name for r in results] == ["TPP", "AllLocal", "FreqTier"]


def test_jobs_one_accepts_closures():
    result = ParallelExecutor(jobs=1).run_one(
        CellSpec(WORKLOAD, POLICIES["TPP"], CONFIG)
    )
    closure = compare_policies(
        lambda: WORKLOAD(),
        {"TPP": lambda: POLICIES["TPP"]()},
        CONFIG,
        include_all_local=False,
        executor=ParallelExecutor(jobs=1),
    )
    assert closure["TPP"].to_dict() == result.to_dict()


def test_unpicklable_factories_rejected_with_guidance():
    captured = []  # make the lambda a true closure (unpicklable)
    specs = [
        CellSpec(lambda: captured or WORKLOAD(), POLICIES["TPP"], CONFIG),
        CellSpec(WORKLOAD, POLICIES["FreqTier"], CONFIG),
    ]
    with pytest.raises(ValueError, match="WorkloadSpec/PolicySpec"):
        ParallelExecutor(jobs=2).run(specs)


def test_executor_from_env_reads_variables(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_JOBS", "3")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
    ex = executor_from_env()
    assert ex.jobs == 3
    assert ex.cache is not None
    monkeypatch.delenv("REPRO_JOBS")
    monkeypatch.delenv("REPRO_CACHE_DIR")
    ex_default = executor_from_env()
    assert ex_default.jobs == 1
    assert ex_default.cache is None


def test_grid_helpers_default_to_the_environment_cache(monkeypatch, tmp_path):
    import repro.core.parallel as parallel

    monkeypatch.delenv("REPRO_JOBS", raising=False)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    executed = []
    real_run_cell = parallel.run_cell

    def counting_run_cell(spec):
        executed.append(spec.label)
        return real_run_cell(spec)

    monkeypatch.setattr(parallel, "run_cell", counting_run_cell)

    def grid():
        compared = compare_policies(WORKLOAD, POLICIES, CONFIG)
        return {name: r.to_dict() for name, r in compared.items()}

    first = grid()
    assert len(executed) == 3  # AllLocal + 2 policies
    assert grid() == first
    assert len(executed) == 3  # the second pass executed nothing


def test_closure_cells_have_no_fingerprint():
    assert CellSpec(lambda: None, None, CONFIG).fingerprint() is None
    assert (
        CellSpec(WORKLOAD, lambda: None, CONFIG).fingerprint() is None
    )
    assert CellSpec(WORKLOAD, None, CONFIG).fingerprint() is not None


class TestPerCellTraces:
    def test_each_cell_writes_its_own_trace(self, tmp_path):
        specs = [
            CellSpec(
                WORKLOAD,
                POLICIES["FreqTier"],
                CONFIG,
                label="ft",
                trace_path=str(tmp_path / "ft.jsonl"),
            ),
            CellSpec(
                WORKLOAD,
                POLICIES["TPP"],
                CONFIG,
                label="tpp",
                trace_path=str(tmp_path / "tpp.jsonl"),
            ),
        ]
        ParallelExecutor(jobs=2).run(specs)
        from repro.analysis.tracetool import validate_trace

        for name in ("ft.jsonl", "tpp.jsonl"):
            validation = validate_trace(tmp_path / name)
            assert validation.ok
            assert any(e["type"] == "batch" for e in validation.events)

    def test_trace_path_excluded_from_fingerprint(self, tmp_path):
        plain = CellSpec(WORKLOAD, POLICIES["FreqTier"], CONFIG)
        traced = CellSpec(
            WORKLOAD,
            POLICIES["FreqTier"],
            CONFIG,
            trace_path=str(tmp_path / "t.jsonl"),
        )
        assert plain.fingerprint() == traced.fingerprint()

    def test_cache_hit_leaves_cache_hit_event(self, tmp_path):
        from repro.obs import read_jsonl

        executor = ParallelExecutor(jobs=1, cache=tmp_path / "cache")
        cold = CellSpec(
            WORKLOAD,
            POLICIES["TPP"],
            CONFIG,
            label="tpp",
            trace_path=str(tmp_path / "cold.jsonl"),
        )
        warm = CellSpec(
            WORKLOAD,
            POLICIES["TPP"],
            CONFIG,
            label="tpp",
            trace_path=str(tmp_path / "warm.jsonl"),
        )
        first = executor.run_one(cold)
        second = executor.run_one(warm)
        assert executor.stats.cache_hits == 1
        assert first.to_dict() == second.to_dict()
        # The cold run traced real simulation events...
        assert any(e["type"] == "batch" for e in read_jsonl(cold.trace_path))
        # ...the warm run traced exactly one cache_hit.
        warm_events = list(read_jsonl(warm.trace_path))
        assert len(warm_events) == 1
        assert warm_events[0]["type"] == "cache_hit"
        assert warm_events[0]["label"] == "tpp"
        assert warm_events[0]["fingerprint"] == warm.fingerprint()

    def test_untraced_cache_hit_writes_nothing(self, tmp_path):
        executor = ParallelExecutor(jobs=1, cache=tmp_path / "cache")
        spec = CellSpec(WORKLOAD, POLICIES["TPP"], CONFIG)
        executor.run_one(spec)
        executor.run_one(spec)
        assert executor.stats.cache_hits == 1
        assert not list(tmp_path.glob("*.jsonl"))
