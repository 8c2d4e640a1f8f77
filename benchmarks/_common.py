"""Table renderers and %all-local helpers for the paper benchmarks.

Every benchmark regenerates one table or figure of the paper at the
simulator's scale (see DESIGN.md "Scaling convention"): capacity
*ratios*, policy parameters and workload shapes match the paper; page
counts are ~1000x smaller.  The cells themselves -- workload presets,
%local per ratio, the line-up and the grids -- come from
:mod:`repro.paper`.  Output is printed in the paper's layout so
rows can be compared side by side with the published numbers, and each
bench asserts the *shape* results the paper's text highlights.

The ``benchmark`` fixture times one full experiment cell so
``pytest-benchmark`` reports simulation throughput alongside the
reproduction output.
"""

from __future__ import annotations

from repro.analysis.tables import format_rows
from repro.core.metrics import ExperimentResult
from repro.paper import LINEUP


def cachelib_table(
    grid: dict[str, dict[str, ExperimentResult]],
    ratios: list[tuple[str, float]],
) -> str:
    """Render a Table II/III style block: P50 and throughput rows."""
    headers = ["Config", "%local"] + [
        f"{n} (p50/thr %all-local)" for n in LINEUP
    ]
    rows = []
    for label, frac in ratios:
        results = grid[label]
        base = results["AllLocal"]
        row = [label, f"{frac:.0%}"]
        for name in LINEUP:
            rel = results[name].relative_to(base)
            row.append(
                f"{rel['p50_latency']:.1%} / {rel['throughput']:.1%}"
            )
        rows.append(row)
    return format_rows(headers, rows)


def labeled_time_table(
    grid: dict[str, dict[str, ExperimentResult]],
    ratios: list[tuple[str, float]],
) -> str:
    """Render a Table IV/V style block: per-trial time %all-local."""
    headers = ["Config", "%local"] + [
        f"{n} (time %all-local)" for n in LINEUP
    ]
    rows = []
    for label, frac in ratios:
        results = grid[label]
        base = results["AllLocal"]
        row = [label, f"{frac:.0%}"]
        for name in LINEUP:
            rel = results[name].relative_to(base)["label_time"]
            row.append(f"{rel:.1%}" if rel else "-")
        rows.append(row)
    return format_rows(headers, rows)


def relative_throughput(
    results: dict[str, ExperimentResult], name: str
) -> float:
    rel = results[name].relative_to(results["AllLocal"])["throughput"]
    assert rel is not None
    return rel


def relative_label_time(
    results: dict[str, ExperimentResult], name: str
) -> float:
    rel = results[name].relative_to(results["AllLocal"])["label_time"]
    assert rel is not None
    return rel
