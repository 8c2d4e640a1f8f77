"""Result cache: round-trips, content addressing, schema versioning."""

from __future__ import annotations

import json

import pytest

import repro.core.cache as cache_mod
from repro.core.cache import ResultCache, cell_fingerprint, config_to_dict
from repro.core.config import ExperimentConfig
from repro.core.parallel import (
    CellSpec,
    ParallelExecutor,
    PolicySpec,
    WorkloadSpec,
    run_cell,
)
from repro.memsim.tier import CXL2_CONFIG

WORKLOAD = WorkloadSpec("zipf", num_pages=512, alpha=1.1, seed=3)
POLICY = PolicySpec("freqtier", seed=3)
CONFIG = ExperimentConfig(local_fraction=0.1, max_batches=8, seed=3)


def _spec(**overrides) -> CellSpec:
    fields = {"workload": WORKLOAD, "policy": POLICY, "config": CONFIG}
    fields.update(overrides)
    return CellSpec(**fields)


def test_result_round_trips_through_dict():
    result = run_cell(_spec())
    clone = type(result).from_dict(
        json.loads(json.dumps(result.to_dict()))
    )
    assert clone.to_dict() == result.to_dict()
    assert clone.hit_ratio_timeline == result.hit_ratio_timeline
    assert clone.steady_p50_latency_ns == result.steady_p50_latency_ns


def test_cache_hit_returns_equal_result(tmp_path):
    cache = ResultCache(tmp_path)
    result = run_cell(_spec())
    fp = _spec().fingerprint()
    cache.put(fp, result)
    hit = cache.get(fp)
    assert hit is not None
    assert hit.to_dict() == result.to_dict()
    assert cache.hits == 1


def test_cache_miss_on_absent_key(tmp_path):
    cache = ResultCache(tmp_path)
    assert cache.get("0" * 64) is None
    assert cache.misses == 1


@pytest.mark.parametrize(
    "variant",
    [
        _spec(workload=WORKLOAD.with_params(seed=4)),
        _spec(workload=WORKLOAD.with_params(alpha=1.2)),
        _spec(policy=POLICY.with_params(seed=4)),
        _spec(policy=PolicySpec("tpp", seed=3)),
        _spec(policy=None),
        _spec(config=ExperimentConfig(local_fraction=0.2, max_batches=8, seed=3)),
        _spec(config=ExperimentConfig(local_fraction=0.1, max_batches=9, seed=3)),
        _spec(config=ExperimentConfig(local_fraction=0.1, max_batches=8, seed=4)),
        _spec(
            config=ExperimentConfig(
                local_fraction=0.1, max_batches=8, seed=3, memory=CXL2_CONFIG
            )
        ),
    ],
)
def test_any_param_change_changes_fingerprint(variant):
    assert variant.fingerprint() != _spec().fingerprint()


def test_fingerprint_is_order_insensitive_and_stable():
    a = cell_fingerprint({"x": 1, "y": 2})
    b = cell_fingerprint({"y": 2, "x": 1})
    assert a == b
    assert a == cell_fingerprint({"x": 1, "y": 2})


def test_schema_version_bump_misses(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)
    result = run_cell(_spec())
    fp = _spec().fingerprint()
    cache.put(fp, result)
    monkeypatch.setattr(cache_mod, "SCHEMA_VERSION", cache_mod.SCHEMA_VERSION + 1)
    assert cache.get(fp) is None  # stored under the old schema


def test_corrupt_entry_is_a_miss_not_an_error(tmp_path):
    cache = ResultCache(tmp_path)
    fp = "a" * 64
    cache.path_for(fp).write_text("{not json", encoding="utf-8")
    assert cache.get(fp) is None


class TestQuarantine:
    def test_corrupt_json_quarantined_then_recomputable(self, tmp_path):
        """A truncated/garbled entry becomes a miss, is renamed to
        ``.corrupt`` (kept for diagnosis, never re-read), and the slot
        is free for the recomputed result."""
        cache = ResultCache(tmp_path)
        fp = _spec().fingerprint()
        cache.path_for(fp).write_text('{"schema": 1, "result"', encoding="utf-8")
        assert cache.get(fp) is None
        assert not cache.path_for(fp).exists()
        assert cache.path_for(fp).with_suffix(".corrupt").exists()

        result = run_cell(_spec())
        cache.put(fp, result)
        hit = cache.get(fp)
        assert hit is not None and hit.to_dict() == result.to_dict()

    def test_undeserializable_payload_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        fp = "b" * 64
        cache.path_for(fp).write_text(
            json.dumps({"schema": cache_mod.SCHEMA_VERSION, "result": {"x": 1}}),
            encoding="utf-8",
        )
        assert cache.get(fp) is None
        assert cache.path_for(fp).with_suffix(".corrupt").exists()

    def test_schema_mismatch_is_plain_miss_not_quarantine(self, tmp_path):
        """An old-schema entry is valid data, just stale: orphan it in
        place, do not brand it corrupt."""
        cache = ResultCache(tmp_path)
        fp = "c" * 64
        cache.path_for(fp).write_text(
            json.dumps({"schema": -1, "result": {}}), encoding="utf-8"
        )
        assert cache.get(fp) is None
        assert cache.path_for(fp).exists()
        assert not cache.path_for(fp).with_suffix(".corrupt").exists()

    def test_absent_entry_not_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("d" * 64) is None
        assert not list(tmp_path.glob("*.corrupt"))


class TestFaultFingerprinting:
    """Fault plans join the cache key only when they inject something,
    so pre-existing fault-free cache entries stay valid."""

    def test_no_plan_and_inactive_plan_share_fingerprint(self):
        from repro.faults import FaultPlan

        bare = _spec()
        inactive = _spec(faults=FaultPlan(seed=99))
        assert not inactive.faults.active
        assert bare.fingerprint() == inactive.fingerprint()

    def test_active_plan_changes_fingerprint(self):
        from repro.faults import FaultPlan

        plan = FaultPlan(migration_fail_prob=0.01)
        assert _spec(faults=plan).fingerprint() != _spec().fingerprint()

    def test_fault_seed_is_part_of_the_key(self):
        from repro.faults import FaultPlan

        a = _spec(faults=FaultPlan(migration_fail_prob=0.01, seed=1))
        b = _spec(faults=FaultPlan(migration_fail_prob=0.01, seed=2))
        assert a.fingerprint() != b.fingerprint()

    def test_faulted_and_fault_free_results_never_collide(self, tmp_path):
        """End to end: run a faulted grid, then the fault-free twin --
        the second run must miss the faulted entries entirely."""
        from repro.faults import FaultPlan

        plan = FaultPlan(migration_fail_prob=0.05)
        faulted = ParallelExecutor(jobs=1, cache=tmp_path)
        fault_free = ParallelExecutor(jobs=1, cache=tmp_path)
        a = faulted.run_one(_spec(faults=plan))
        b = fault_free.run_one(_spec())
        assert faulted.stats.cache_hits == 0
        assert fault_free.stats.cache_hits == 0
        assert a.to_dict() != b.to_dict()

        warm = ParallelExecutor(jobs=1, cache=tmp_path)
        assert warm.run_one(_spec()).to_dict() == b.to_dict()
        assert warm.stats.cache_hits == 1


def test_executor_cache_integration(tmp_path):
    """Second run of the same cells is served fully from cache."""
    specs = [_spec(), _spec(policy=None)]
    cold = ParallelExecutor(jobs=1, cache=tmp_path)
    first = cold.run(specs)
    assert cold.stats.executed == 2 and cold.stats.cache_hits == 0

    warm = ParallelExecutor(jobs=1, cache=tmp_path)
    second = warm.run(specs)
    assert warm.stats.executed == 0 and warm.stats.cache_hits == 2
    for a, b in zip(first, second):
        assert a.to_dict() == b.to_dict()


def test_put_fsyncs_before_replace(tmp_path, monkeypatch):
    """An entry is durable before it becomes visible under its name."""
    calls = []
    real_fsync, real_replace = cache_mod.os.fsync, cache_mod.os.replace

    def fsync(fd):
        calls.append("fsync")
        real_fsync(fd)

    def replace(src, dst):
        calls.append("replace")
        real_replace(src, dst)

    monkeypatch.setattr(cache_mod.os, "fsync", fsync)
    monkeypatch.setattr(cache_mod.os, "replace", replace)
    cache = ResultCache(tmp_path)
    fp = _spec().fingerprint()
    cache.put(fp, run_cell(_spec()))
    assert calls == ["fsync", "replace"]
    assert cache.get(fp) is not None


def test_cache_len_contains_clear(tmp_path):
    cache = ResultCache(tmp_path)
    result = run_cell(_spec())
    fp = _spec().fingerprint()
    assert fp not in cache
    cache.put(fp, result)
    assert fp in cache
    assert len(cache) == 1
    assert cache.clear() == 1
    assert len(cache) == 0


def test_config_to_dict_covers_identity_fields():
    d = config_to_dict(CONFIG)
    assert d["local_fraction"] == 0.1
    assert d["seed"] == 3
    assert d["memory"]["name"] == "CXL-1"
    assert d["memory"]["cxl"]["latency_ns"] > d["memory"]["local"]["latency_ns"]


def test_len_and_clear_ignore_inflight_tmp_files(tmp_path):
    """A crashed (or still-running) writer's ``.tmp-*.json`` must not
    be counted as an entry nor deleted by ``clear()``."""
    cache = ResultCache(tmp_path)
    cache.put(_spec().fingerprint(), run_cell(_spec()))
    inflight = tmp_path / ".tmp-abc123.json"
    inflight.write_text("{}")
    assert len(cache) == 1
    assert cache.clear() == 1
    assert len(cache) == 0
    assert inflight.exists()
