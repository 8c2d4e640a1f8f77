"""Ablation: dynamic vs static hot threshold (paper Section V-C(a)).

The dynamic controller keeps the hot-page set roughly the size of
local DRAM.  This ablation pins the threshold at values that are too
low (everything looks hot -> churn) and too high (nothing qualifies ->
empty local DRAM), and shows the dynamic default is competitive with
the best static choice without hand-tuning.
"""

import pytest

from repro import PolicySpec, compare_policies, paper
from repro.analysis.tables import format_rows

CONFIG = paper.config("cachelib", max_batches=400, seed=1)


@pytest.fixture(scope="module")
def results():
    policies = {"dynamic": PolicySpec("freqtier", seed=1)}
    for threshold in (1, 5, 14):
        policies[f"static-{threshold}"] = PolicySpec(
            "freqtier",
            seed=1,
            initial_hot_threshold=threshold,
            min_hot_threshold=threshold,
            max_hot_threshold=threshold,
        )
    out = compare_policies(paper.workloads(1)["cdn"], policies, CONFIG)
    return out.pop("AllLocal"), out


def test_ablation_dynamic_threshold(benchmark, results):
    base, out = results
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    rows = []
    rel = {}
    for name, res in out.items():
        rel[name] = res.relative_to(base)["throughput"]
        rows.append(
            [
                name,
                f"{rel[name]:.1%}",
                f"{res.steady_hit_ratio:.1%}",
                res.pages_migrated,
            ]
        )
    print("\n=== Ablation: dynamic vs static hot threshold ===")
    print(format_rows(["threshold", "throughput", "hit ratio", "migrated"], rows))

    # Dynamic matches or beats every static setting (within noise).
    best_static = max(v for k, v in rel.items() if k.startswith("static"))
    assert rel["dynamic"] >= best_static - 0.02

    # A too-low threshold misbehaves: everything sampled looks hot, so
    # the demotion scan can find nothing "cold" to evict and promotion
    # stalls (or, with room, churns).  Either way it cannot beat the
    # dynamic controller's hit ratio.
    assert (
        out["static-1"].steady_hit_ratio
        <= out["dynamic"].steady_hit_ratio + 0.01
    )
