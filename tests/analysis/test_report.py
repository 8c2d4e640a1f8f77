"""Tests for the markdown report generator."""

import pytest

from repro.analysis.report import markdown_report
from repro.core.metrics import ExperimentResult, MetricsCollector
from repro.memsim.costmodel import BatchCost


def make_result(duration: float, hit: float = 0.9) -> ExperimentResult:
    local = int(100 * hit)
    metrics = MetricsCollector()
    for i in range(4):
        metrics.record_batch(
            start_ns=i * duration,
            cost=BatchCost(duration - 50.0, 0.0, 0.0, 0.0, overhead_ns=50.0),
            num_ops=10.0,
            local_accesses=local,
            cxl_accesses=100 - local,
            pages_migrated=2,
        )
    return metrics.finalize(
        "p",
        "w",
        {"local": 0.8, "cxl": 0.15, "migration": 0.05},
        migration_bytes=1000,
        policy_stats={"promotions": 5, "demotions": 3, "overhead_ns": 200.0,
                      "metadata_bytes": 2048},
    )


class TestMarkdownReport:
    def test_contains_all_sections(self):
        report = markdown_report(
            {"AllLocal": make_result(100.0, 1.0), "FreqTier": make_result(120.0)}
        )
        assert "# Tiering comparison" in report
        assert "## Traffic breakdown" in report
        assert "## Hit-ratio timelines" in report
        assert "## Policy internals" in report
        assert "FreqTier" in report

    def test_relative_column_present(self):
        report = markdown_report(
            {"AllLocal": make_result(100.0, 1.0), "Slow": make_result(200.0)}
        )
        # Slow at half throughput of baseline.
        assert "50.0%" in report

    def test_baseline_row_has_dash_relative(self):
        report = markdown_report({"AllLocal": make_result(100.0, 1.0)})
        rows = [l for l in report.splitlines() if l.startswith("| AllLocal")]
        assert any("| - |" in r for r in rows)

    def test_custom_title(self):
        report = markdown_report(
            {"X": make_result(10.0)}, title="CDN at 1:32"
        )
        assert report.startswith("# CDN at 1:32")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            markdown_report({})

    def test_is_valid_markdown_table(self):
        report = markdown_report({"X": make_result(10.0)})
        table_lines = [l for l in report.splitlines() if l.startswith("|")]
        widths = {l.count("|") for l in table_lines[:2]}
        assert len(widths) == 1  # header and rule align
