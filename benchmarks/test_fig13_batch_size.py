"""Figure 13: sensitivity to the sample batch size.

Paper: on CacheLib CDN at 1:32, larger sample batches amortize the
migration-syscall overhead (better P50/throughput), at the cost of
memory for buffering (16 bytes x batch size); gains flatten around the
default 100k.  Normalized to batch size 1.

The simulator sweep covers the equivalent range; the shape must match:
throughput rises from tiny batches and saturates, while the modeled
buffer memory grows linearly.
"""

import pytest

from repro import PolicySpec, compare_policies, paper
from repro.analysis.tables import format_rows
from repro.sampling.pebs import SAMPLE_RECORD_BYTES

BATCH_SIZES = [50, 200, 1_000, 5_000, 20_000]

CONFIG = paper.config("cachelib", max_batches=400, seed=1)


@pytest.fixture(scope="module")
def results():
    swept = compare_policies(
        paper.workloads(1)["cdn"],
        {
            size: PolicySpec("freqtier", seed=1, sample_batch_size=size)
            for size in BATCH_SIZES
        },
        CONFIG,
    )
    return swept.pop("AllLocal"), swept


def test_fig13_batch_size_sensitivity(benchmark, results):
    base, swept = results
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    ref = swept[BATCH_SIZES[0]].relative_to(base)["throughput"]
    rows = []
    for size, res in swept.items():
        rel = res.relative_to(base)["throughput"] / ref
        buffer_bytes = size * SAMPLE_RECORD_BYTES
        rows.append(
            [
                size,
                f"{rel:.2f}x",
                f"{res.policy_stats['promotion_calls']:.0f}",
                f"{buffer_bytes / 1024:.1f} KB",
            ]
        )
    print("\n=== Fig. 13: sample batch size (normalized to smallest) ===")
    print(
        format_rows(
            ["batch size", "rel. throughput", "move_pages calls", "buffer"], rows
        )
    )

    perf = {s: swept[s].relative_to(base)["throughput"] for s in BATCH_SIZES}
    # Bigger batches amortize syscalls: large >= small.
    assert perf[BATCH_SIZES[-1]] >= perf[BATCH_SIZES[0]] - 0.01
    # Syscall count drops sharply with batch size.
    calls_small = swept[BATCH_SIZES[0]].policy_stats["promotion_calls"]
    calls_large = swept[BATCH_SIZES[-1]].policy_stats["promotion_calls"]
    assert calls_small > calls_large * 3
    # Saturation: the last doubling moves performance by < 3%.
    assert abs(perf[BATCH_SIZES[-1]] - perf[BATCH_SIZES[-2]]) < 0.03
