"""Tests for table formatting."""

from repro.analysis.tables import format_comparison_table, format_rows
from repro.core.metrics import ExperimentResult, MetricsCollector
from repro.memsim.costmodel import BatchCost


def make_result(duration: float) -> ExperimentResult:
    metrics = MetricsCollector()
    for i in range(4):
        metrics.record_batch(
            start_ns=i * duration,
            cost=BatchCost(duration, 0.0, 0.0, 0.0, 0.0),
            num_ops=10.0,
            local_accesses=90,
            cxl_accesses=10,
            pages_migrated=0,
        )
    return metrics.finalize(
        "p", "w", {"local": 1.0, "cxl": 0.0, "migration": 0.0}, 0
    )


class TestFormatRows:
    def test_aligned_output(self):
        out = format_rows(["a", "bb"], [[1, 2.5], ["xyz", None]])
        lines = out.splitlines()
        assert len(lines) == 4  # header, rule, two rows
        assert "xyz" in lines[3]
        assert "-" in lines[3]  # None rendered as dash

    def test_float_formatting(self):
        out = format_rows(["v"], [[0.123456]])
        assert "0.123" in out


class TestComparisonTable:
    def test_renders_relative_column(self):
        results = {
            "AllLocal": make_result(100.0),
            "Slow": make_result(200.0),
        }
        out = format_comparison_table(results)
        assert "Slow" in out
        assert "50.0%" in out

    def test_missing_baseline_ok(self):
        out = format_comparison_table({"Only": make_result(10.0)})
        assert "Only" in out
