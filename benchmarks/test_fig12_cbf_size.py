"""Figure 12: sensitivity to counting Bloom filter size.

Paper: sweeping the CBF from 2 MB to 256 MB on both CacheLib
workloads, performance degrades below 32 MB (hash collisions blur the
frequency distribution) and saturates beyond it -- 32 MB suffices for
a 256 GB footprint, 128 MB is the normalization point.

At the simulator's scale the equivalent sweep runs the CBF from
severely undersized (256 counters) to oversized; the shape must match:
performance rises with CBF size, then flattens.
"""

import pytest

from repro import PolicySpec, compare_policies, paper
from repro.analysis.tables import format_rows

#: Counter-array sizes from starved to saturated.
CBF_SIZES = [256, 1024, 4096, 16_384, 65_536]

CONFIG = paper.config("cachelib", max_batches=400, seed=1)


@pytest.fixture(scope="module")
def sweeps():
    policies = {
        size: PolicySpec("freqtier", seed=1, cbf_num_counters=size)
        for size in CBF_SIZES
    }
    out = {}
    for name in ("cdn", "social"):
        results = compare_policies(paper.workloads(1)[name], policies, CONFIG)
        out[name] = (results.pop("AllLocal"), results)
    return out


def test_fig12_cbf_size_sensitivity(benchmark, sweeps):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    rows = []
    for name, (base, results) in sweeps.items():
        # Normalize to the largest configuration (the paper's 128 MB).
        ref = results[CBF_SIZES[-1]].relative_to(base)["throughput"]
        for size, res in results.items():
            rel = res.relative_to(base)["throughput"] / ref
            rows.append(
                [
                    name,
                    size,
                    f"{res.policy_stats['metadata_bytes'] / 1024:.0f} KB",
                    f"{rel:.1%}",
                    f"{res.steady_hit_ratio:.1%}",
                ]
            )
    print("\n=== Fig. 12: CBF size sensitivity (normalized to largest) ===")
    print(
        format_rows(
            ["workload", "counters", "metadata", "rel. throughput", "hit ratio"],
            rows,
        )
    )

    for name, (base, results) in sweeps.items():
        perf = {
            size: res.relative_to(base)["throughput"]
            for size, res in results.items()
        }
        # Starved CBF clearly underperforms the saturated one.
        assert perf[CBF_SIZES[0]] < perf[CBF_SIZES[-1]] - 0.01, name
        # Beyond the knee, growing the CBF stops helping (within noise).
        assert abs(perf[CBF_SIZES[-2]] - perf[CBF_SIZES[-1]]) < 0.03, name
        # The trend is (weakly) monotone overall.
        sizes = sorted(perf)
        assert perf[sizes[0]] <= max(perf[s] for s in sizes[1:]) + 0.01, name
