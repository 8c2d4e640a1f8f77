"""Extension: related-work tiering designs (paper Section IX-a).

Beyond the paper's three baselines, Section IX discuses two more
design points this repo implements:

- **MULTI-CLOCK** (Maruf et al., HPCA'22): distinguishes pages
  accessed once from pages accessed more than once, "but treats all
  pages accessed more than once equally, resulting in low
  classification accuracy".
- **DAMON/DAOS** (Park et al., HPDC'22): variable-sized region
  monitoring, "where all pages in the same region share the same
  access frequency".

The bench runs both against FreqTier on CacheLib CDN at 1:32 and
checks the paper's qualitative argument: full per-page frequency
information beats both coarser signals.
"""

import pytest

from repro import PolicySpec, compare_policies, paper
from repro.analysis.tables import format_rows

CONFIG = paper.config("cachelib", max_batches=400, seed=1)


@pytest.fixture(scope="module")
def results():
    return compare_policies(
        paper.workloads(1)["cdn"],
        {
            "FreqTier": PolicySpec("freqtier", seed=1),
            "MULTI-CLOCK": PolicySpec("multiclock", seed=1),
            "DAMON": PolicySpec("damon", seed=1),
        },
        CONFIG,
    )


def test_related_work_designs(benchmark, results):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    base = results["AllLocal"]
    rows = []
    rel = {}
    for name in ("FreqTier", "MULTI-CLOCK", "DAMON"):
        res = results[name]
        rel[name] = res.relative_to(base)["throughput"]
        rows.append(
            [
                name,
                f"{rel[name]:.1%}",
                f"{res.steady_hit_ratio:.1%}",
                res.pages_migrated,
            ]
        )
    print("\n=== Related work: frequency-signal granularity ===")
    print(format_rows(["system", "throughput", "hit ratio", "migrated"], rows))

    # Full frequency information wins (paper Section IX-a).
    assert rel["FreqTier"] > rel["MULTI-CLOCK"]
    assert rel["FreqTier"] > rel["DAMON"]
    # Both coarse designs still clearly beat doing nothing: they track
    # and migrate real hotness, just coarsely.
    assert results["MULTI-CLOCK"].steady_hit_ratio > 0.3
    assert results["DAMON"].steady_hit_ratio > 0.3
