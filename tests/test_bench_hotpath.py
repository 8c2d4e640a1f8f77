"""Tests for the hot-path microbenchmark harness.

The harness lives in ``scripts/`` (not a package), so it is loaded via
importlib.  These tests cover the record schema validator and the
regression checker -- the parts CI relies on -- without running the
timed benchmarks themselves.
"""

import importlib.util
import pathlib

import pytest

_BENCH_PATH = (
    pathlib.Path(__file__).parent.parent / "scripts" / "bench_hotpath.py"
)


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_hotpath", _BENCH_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _minimal_record(bench):
    component = {
        "ns_per_op": 100.0,
        "ops": 1000,
        "reps": 3,
        "seconds_best": 1e-4,
    }
    engine = dict(component, batches_per_sec=10_000.0)
    return {
        "schema_version": bench.SCHEMA_VERSION,
        "benchmark": "hot-path microbenchmarks",
        "smoke": True,
        "python": "0",
        "numpy": "0",
        "components": {
            "hashing": dict(component),
            "cbf_increase": dict(component),
            "engine_cdn": engine,
        },
        "sampler_rng": {
            "MEDIUM": {"offered": 1000, "drawn": 10, "reduction_x": 100.0},
            "LOW": {"offered": 1000, "drawn": 2, "reduction_x": 500.0},
        },
    }


class TestValidateRecord:
    def test_valid_record_passes(self, bench):
        assert bench.validate_record(_minimal_record(bench)) == []

    def test_non_dict_rejected(self, bench):
        assert bench.validate_record([]) == ["record is not an object"]

    def test_wrong_schema_version_flagged(self, bench):
        rec = _minimal_record(bench)
        rec["schema_version"] = 999
        assert any("schema_version" in e for e in bench.validate_record(rec))

    def test_missing_component_field_flagged(self, bench):
        rec = _minimal_record(bench)
        del rec["components"]["hashing"]["ns_per_op"]
        assert any("hashing" in e for e in bench.validate_record(rec))

    def test_empty_components_flagged(self, bench):
        rec = _minimal_record(bench)
        rec["components"] = {}
        assert any("components" in e for e in bench.validate_record(rec))

    def test_non_integral_ops_flagged(self, bench):
        rec = _minimal_record(bench)
        rec["components"]["hashing"]["ops"] = 12.5
        assert any("must be integral" in e for e in bench.validate_record(rec))

    def test_missing_rng_field_flagged(self, bench):
        rec = _minimal_record(bench)
        del rec["sampler_rng"]["LOW"]["reduction_x"]
        assert any("LOW" in e for e in bench.validate_record(rec))

    def test_engine_without_batches_per_sec_flagged(self, bench):
        rec = _minimal_record(bench)
        del rec["components"]["engine_cdn"]["batches_per_sec"]
        assert any("batches_per_sec" in e for e in bench.validate_record(rec))

    def test_non_engine_component_needs_no_throughput(self, bench):
        # hashing has no batches_per_sec: still valid.
        assert bench.validate_record(_minimal_record(bench)) == []


class TestCheckRegressions:
    def test_equal_times_pass(self, bench):
        rec = _minimal_record(bench)
        assert bench.check_regressions(rec, rec, 2.0, 5.0) == []

    def test_within_tolerance_passes(self, bench):
        rec = _minimal_record(bench)
        base = _minimal_record(bench)
        rec["components"]["hashing"]["ns_per_op"] = 199.0  # < 2x of 100
        assert bench.check_regressions(rec, base, 2.0, 5.0) == []

    def test_beyond_tolerance_fails(self, bench):
        rec = _minimal_record(bench)
        base = _minimal_record(bench)
        rec["components"]["hashing"]["ns_per_op"] = 250.0  # > 2x of 100
        errors = bench.check_regressions(rec, base, 2.0, 5.0)
        assert any("hashing" in e for e in errors)

    def test_new_component_without_baseline_ok(self, bench):
        rec = _minimal_record(bench)
        base = _minimal_record(bench)
        del base["components"]["engine_cdn"]
        rec["components"]["engine_cdn"]["ns_per_op"] = 1e9
        assert bench.check_regressions(rec, base, 2.0, 5.0) == []

    def test_rng_reduction_floor_enforced(self, bench):
        rec = _minimal_record(bench)
        rec["sampler_rng"]["MEDIUM"]["reduction_x"] = 2.0  # below 5x floor
        errors = bench.check_regressions(rec, _minimal_record(bench), 2.0, 5.0)
        assert any("MEDIUM" in e for e in errors)

    def test_engine_ceiling_enforced_on_full_records(self, bench):
        base = _minimal_record(bench)
        base["smoke"] = False
        over = bench._ENGINE_CEILINGS_NS["engine_cdn"] * 2
        base["components"]["engine_cdn"]["ns_per_op"] = over
        errors = bench.check_regressions(_minimal_record(bench), base, 1e9, 0.0)
        assert any("ceiling" in e for e in errors)

    def test_engine_relative_check_skipped_across_smoke_mismatch(self, bench):
        rec = _minimal_record(bench)  # smoke
        base = _minimal_record(bench)
        base["smoke"] = False
        rec["components"]["engine_cdn"]["ns_per_op"] = 300.0  # 3x of 100
        rec["components"]["hashing"]["ns_per_op"] = 300.0
        errors = bench.check_regressions(rec, base, 2.0, 0.0)
        assert any("hashing" in e for e in errors)
        assert not any("engine_cdn" in e for e in errors)

    def test_engine_ceiling_skipped_for_smoke_records(self, bench):
        rec = _minimal_record(bench)  # smoke record
        over = bench._ENGINE_CEILINGS_NS["engine_cdn"] * 2
        rec["components"]["engine_cdn"]["ns_per_op"] = over
        errors = bench.check_regressions(rec, _minimal_record(bench), 1e9, 0.0)
        assert errors == []
