"""Tests for metrics reduction."""

import json

import numpy as np
import pytest

from repro.core.metrics import ExperimentResult, MetricsCollector
from repro.memsim.costmodel import BatchCost


def cost(total: float, overhead: float = 0.0) -> BatchCost:
    return BatchCost(
        cpu_ns=total - overhead,
        local_mem_ns=0.0,
        cxl_mem_ns=0.0,
        migration_ns=0.0,
        overhead_ns=overhead,
    )


def collect(batches) -> ExperimentResult:
    """batches: list of (ops, local, cxl, duration, label)."""
    mc = MetricsCollector()
    now = 0.0
    for ops, local, cxl, duration, label in batches:
        mc.record_batch(
            start_ns=now,
            cost=cost(duration),
            num_ops=ops,
            local_accesses=local,
            cxl_accesses=cxl,
            pages_migrated=0,
            label=label,
        )
        now += duration
    return mc.finalize(
        policy_name="p",
        workload_name="w",
        traffic_breakdown={"local": 0.5, "cxl": 0.4, "migration": 0.1},
        migration_bytes=0,
        warmup_fraction=0.25,
    )


def single(start_ns, duration_ns, num_ops, local, cxl) -> ExperimentResult:
    mc = MetricsCollector()
    mc.record_batch(start_ns, cost(duration_ns), num_ops, local, cxl, 0)
    return mc.finalize("p", "w", {}, 0)


class TestBatchRecord:
    """What one row of the history yields."""

    def test_derived_fields(self):
        res = single(start_ns=10.0, duration_ns=5.0, num_ops=2.0, local=8, cxl=2)
        assert res.total_time_ns == 15.0
        assert res.latency_timeline == [(15.0, 2.5)]
        assert res.hit_ratio_timeline == [(15.0, 0.8)]
        assert res.total_accesses == 10

    def test_zero_ops_latency_none(self):
        res = single(0.0, 1.0, 0.0, 0, 0)
        assert res.latency_timeline == []
        assert res.steady_p50_latency_ns is None
        assert res.hit_ratio_timeline == []


class TestReduction:
    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            MetricsCollector().finalize("p", "w", {}, 0)

    def test_hit_ratios(self):
        res = collect(
            [
                (10, 50, 50, 100.0, ""),  # warmup (first 25% of time)
                (10, 90, 10, 100.0, ""),
                (10, 90, 10, 100.0, ""),
                (10, 90, 10, 100.0, ""),
            ]
        )
        assert res.overall_hit_ratio == pytest.approx(320 / 400)
        assert res.steady_hit_ratio == pytest.approx(0.9)

    def test_throughput(self):
        res = collect([(100, 1, 0, 1e9, "")] * 4)  # 100 ops per second
        assert res.steady_throughput_ops_per_s == pytest.approx(100.0)

    def test_p50_is_median(self):
        res = collect(
            [
                (10, 1, 0, 100.0, ""),
                (10, 1, 0, 100.0, ""),
                (10, 1, 0, 100.0, ""),
                (10, 1, 0, 1000.0, ""),
            ]
        )
        # Steady batches have per-op latencies 10, 10, 100 -> median 10.
        assert res.steady_p50_latency_ns == pytest.approx(10.0)

    def test_per_label_times(self):
        res = collect(
            [
                (1, 1, 0, 10.0, "trial0"),
                (1, 1, 0, 20.0, "trial0"),
                (1, 1, 0, 40.0, "trial1"),
            ]
        )
        assert res.time_per_label_ns == {"trial0": 30.0, "trial1": 40.0}

    def test_mean_time_per_label_skips_warmup_labels(self):
        res = collect(
            [
                (1, 1, 0, 100.0, "t0"),
                (1, 1, 0, 10.0, "t1"),
                (1, 1, 0, 10.0, "t2"),
                (1, 1, 0, 10.0, "t3"),
            ]
        )
        # Skips the first 25% of labels (t0, the slow warmup).
        assert res.mean_time_per_label_ns() == pytest.approx(10.0)

    def test_timeline_points(self):
        res = collect([(10, 9, 1, 100.0, "")] * 3)
        assert len(res.hit_ratio_timeline) == 3
        assert res.hit_ratio_timeline[0][1] == pytest.approx(0.9)


class TestRelativeTo:
    def test_all_local_ratios(self):
        fast = collect([(10, 1, 0, 100.0, "t0")] * 4)
        slow = collect([(10, 1, 0, 200.0, "t0")] * 4)
        rel = slow.relative_to(fast)
        assert rel["throughput"] == pytest.approx(0.5)
        assert rel["p50_latency"] == pytest.approx(0.5)

    def test_label_time_relative(self):
        fast = collect([(1, 1, 0, 10.0, f"t{i}") for i in range(4)])
        slow = collect([(1, 1, 0, 30.0, f"t{i}") for i in range(4)])
        assert slow.relative_to(fast)["label_time"] == pytest.approx(1 / 3)

    def test_summary_keys(self):
        res = collect([(10, 9, 1, 100.0, "")] * 2)
        s = res.summary()
        assert {"policy", "workload", "p50_latency_us", "throughput_mops"} <= set(s)


def reference_reduce(rows, warmup_fraction):
    """The reduction as a plain loop over (start, duration, ops, local,
    cxl, migrated, label) rows: the arithmetic ``finalize`` must match
    bit for bit."""
    end = [start + duration for start, duration, *__ in rows]
    total_time = end[-1]
    steady = [
        i for i, row in enumerate(rows) if row[0] >= total_time * warmup_fraction
    ] or list(range(len(rows)))
    latency = {i: rows[i][1] / rows[i][2] for i in range(len(rows)) if rows[i][2] > 0}
    steady_latency = [latency[i] for i in steady if i in latency]
    steady_ops = sum(rows[i][2] for i in steady)
    span = end[steady[-1]] - rows[steady[0]][0]
    local = sum(row[3] for row in rows)
    cxl = sum(row[4] for row in rows)
    s_local = sum(rows[i][3] for i in steady)
    s_cxl = sum(rows[i][4] for i in steady)
    per_label: dict[str, float] = {}
    for row in rows:
        if row[6]:
            per_label[row[6]] = per_label.get(row[6], 0.0) + row[1]
    return {
        "total_time_ns": total_time,
        "steady_p50_latency_ns": (
            float(np.median(steady_latency)) if steady_latency else None
        ),
        "steady_throughput_ops_per_s": (
            steady_ops / (span / 1e9) if span > 0 and steady_ops else None
        ),
        "overall_hit_ratio": local / max(local + cxl, 1),
        "steady_hit_ratio": s_local / max(s_local + s_cxl, 1),
        "pages_migrated": sum(row[5] for row in rows),
        "total_ops": sum(row[2] for row in rows),
        "total_accesses": local + cxl,
        "hit_ratio_timeline": [
            [t, row[3] / (row[3] + row[4])]
            for t, row in zip(end, rows)
            if row[3] + row[4]
        ],
        "latency_timeline": [[end[i], lat] for i, lat in latency.items()],
        "time_per_label_ns": per_label,
    }


class TestBatchOrderSums:
    @pytest.mark.parametrize("warmup_fraction", [0.0, 0.25, 1.0])
    def test_finalize_matches_a_plain_loop_over_the_batches(self, warmup_fraction):
        rng = np.random.default_rng(7)
        rows, now = [], 0.0
        for i in range(1_000):
            duration = float(rng.random() * 1e4)
            ops = 0.0 if i % 13 == 0 else float(rng.random() * 1e3)
            local, cxl = (0, 0) if i % 17 == 0 else rng.integers(0, 1_000, 2).tolist()
            label = ("warmup", "t2", "", "t1")[i * 7 // 1_000 % 4]
            rows.append((now, duration, ops, local, cxl, i % 3, label))
            now += duration
        mc = MetricsCollector()
        for start, duration, ops, local, cxl, migrated, label in rows:
            mc.record_batch(start, cost(duration), ops, local, cxl, migrated, label)
        result = mc.finalize("p", "w", {}, 0, warmup_fraction=warmup_fraction)
        got = {key: result.to_dict()[key] for key in reference_reduce(rows, 0.0)}
        expected = reference_reduce(rows, warmup_fraction)
        assert json.dumps(got) == json.dumps(expected)
        assert list(result.time_per_label_ns) == ["warmup", "t2", "t1"]


class TestColumn:
    def test_read_only_view_of_the_recorded_batches(self):
        mc = MetricsCollector()
        mc.record_batch(0.0, cost(2.0), 1.0, 3, 1, 0)
        start = mc.column("start_ns")
        assert start.tolist() == [0.0]
        with pytest.raises(ValueError):
            start[0] = 1.0
        mc.record_batch(2.0, cost(2.0), 1.0, 3, 1, 0)
        assert mc.column("start_ns").tolist() == [0.0, 2.0]
