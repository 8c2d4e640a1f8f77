"""Extension: continuous key churn (paper Section VII-D's phenomenon).

Figure 11 tests a one-shot worst-case shift; real caches churn
*continuously* ("the change in key popularity", §VII-D).  This bench
rotates item popularity a little every batch and checks that
FreqTier's aging + adaptive sampling keep it ahead of AutoNUMA in the
steady churn regime -- frequency information decays gracefully rather
than going stale.
"""

import pytest

from repro import PolicySpec, compare_policies, paper
from repro.analysis.tables import format_rows

CONFIG = paper.config("cachelib", max_batches=450, seed=6)


# ~0.6% of items swap rank per batch.
CHURNY = paper.workloads(6)["cdn"].with_params(churn_swaps_per_batch=25)


@pytest.fixture(scope="module")
def results():
    return compare_policies(
        CHURNY,
        {
            "FreqTier": PolicySpec("freqtier", seed=6),
            "AutoNUMA": PolicySpec("autonuma", seed=6),
        },
        CONFIG,
    )


def test_continuous_churn(benchmark, results):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    base = results["AllLocal"]
    rows = []
    rel = {}
    for name in ("FreqTier", "AutoNUMA"):
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
    print("\n=== Extension: continuous key churn (CDN @ 1:32) ===")
    print(format_rows(["system", "throughput", "hit ratio", "migrated"], rows))

    # FreqTier keeps winning under sustained churn.
    assert rel["FreqTier"] > rel["AutoNUMA"]
    # Churn at this rate (full hot-set rotation every ~3 windows) costs
    # real points versus the static-popularity Table II cell (~90%),
    # but tiering remains clearly profitable.
    assert rel["FreqTier"] > 0.70
    # It keeps migrating to track the rotation (no premature shutdown).
    assert results["FreqTier"].pages_migrated > 1_000
