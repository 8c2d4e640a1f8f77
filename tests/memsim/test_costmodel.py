"""Tests for the timing model."""

import pytest

from repro.memsim.costmodel import CostModel, CostModelParams
from repro.memsim.tier import CXL1_CONFIG, CXL2_CONFIG


@pytest.fixture
def model() -> CostModel:
    return CostModel(CXL1_CONFIG)


class TestBatchCost:
    def test_zero_batch(self, model):
        cost = model.batch_cost(0.0, 0, 0)
        assert cost.total_ns == 0.0

    def test_cpu_divided_by_threads(self, model):
        cost = model.batch_cost(1600.0, 0, 0)
        assert cost.cpu_ns == pytest.approx(1600 / 16)

    def test_cxl_access_costs_more(self, model):
        local = model.batch_cost(0.0, 1000, 0).total_ns
        cxl = model.batch_cost(0.0, 0, 1000).total_ns
        assert cxl > local

    def test_latency_term_scaling(self, model):
        # At low volume, time is latency-bound and linear in accesses.
        c1 = model.batch_cost(0.0, 100, 0)
        c2 = model.batch_cost(0.0, 200, 0)
        assert c2.local_mem_ns == pytest.approx(2 * c1.local_mem_ns)

    def test_bandwidth_floor_engages_for_bulk_transfers(self, model):
        # 1 MB per access is clearly bandwidth-bound.
        cost = model.batch_cost(0.0, 1000, 0, bytes_per_access=1_000_000)
        expected_floor = 1000 * 1_000_000 / 85.0  # bytes / (bytes/ns)
        assert cost.local_mem_ns == pytest.approx(expected_floor)

    def test_migration_adds_bandwidth_and_cpu(self, model):
        base = model.batch_cost(0.0, 100, 100)
        with_mig = model.batch_cost(0.0, 100, 100, pages_migrated=1000)
        assert with_mig.migration_ns > 0
        assert with_mig.total_ns > base.total_ns

    def test_migration_cpu_shared_across_cores(self, model):
        cost = model.batch_cost(0.0, 0, 0, pages_migrated=16)
        params = model.params
        assert cost.migration_ns == pytest.approx(
            16 * params.migration_cpu_ns_per_page / params.threads
        )

    def test_overhead_shared_across_cores(self, model):
        cost = model.batch_cost(0.0, 0, 0, overhead_ns=1600.0)
        assert cost.overhead_ns == pytest.approx(100.0)

    def test_total_is_sum_of_parts(self, model):
        cost = model.batch_cost(160.0, 50, 50, pages_migrated=2, overhead_ns=32.0)
        assert cost.total_ns == pytest.approx(
            cost.cpu_ns
            + cost.local_mem_ns
            + cost.cxl_mem_ns
            + cost.migration_ns
            + cost.overhead_ns
        )


class TestAllLocalIsUpperBound:
    """Splitting traffic across tiers can never beat all-local."""

    @pytest.mark.parametrize("hit_pct", [0, 25, 50, 75, 99])
    @pytest.mark.parametrize("bpa", [64, 256, 1024])
    def test_tiered_never_faster(self, model, hit_pct, bpa):
        total = 10_000
        local = total * hit_pct // 100
        all_local = model.batch_cost(0.0, total, 0, bytes_per_access=bpa)
        tiered = model.batch_cost(0.0, local, total - local, bytes_per_access=bpa)
        assert tiered.total_ns >= all_local.total_ns * 0.999


class TestCXL2:
    def test_cxl2_slower_than_cxl1(self):
        m1 = CostModel(CXL1_CONFIG)
        m2 = CostModel(CXL2_CONFIG)
        c1 = m1.batch_cost(0.0, 0, 10_000, bytes_per_access=256)
        c2 = m2.batch_cost(0.0, 0, 10_000, bytes_per_access=256)
        assert c2.total_ns > c1.total_ns

    def test_cxl2_is_bandwidth_bound_sooner(self):
        m2 = CostModel(CXL2_CONFIG)
        cost = m2.batch_cost(0.0, 0, 10_000, bytes_per_access=256)
        bw_floor = 10_000 * 256 / 5.5
        assert cost.cxl_mem_ns == pytest.approx(bw_floor)


class TestParams:
    def test_effective_parallelism(self):
        p = CostModelParams(threads=8, mlp=4.0)
        assert p.effective_parallelism == 32
