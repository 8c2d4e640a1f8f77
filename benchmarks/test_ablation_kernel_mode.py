"""Ablation: userspace vs kernel runtime placement (paper Section VIII-c).

The paper implements FreqTier in userspace for flexibility and argues
the ideas port to the kernel, where context-switch/syscall boundaries
disappear.  This ablation runs both modes: kernel mode discounts the
syscall-priced operations (move_pages invocations, pagemap batch
reads).  Expected result -- and the reason the authors kept userspace:
the boundary tax is a small share of total overhead, so the kernel
advantage is modest.
"""

import pytest

from repro import PolicySpec, compare_policies, paper
from repro.analysis.tables import format_rows

CONFIG = paper.config("cachelib", max_batches=400, seed=1)


@pytest.fixture(scope="module")
def results():
    results = compare_policies(
        paper.workloads(1)["cdn"],
        {
            mode: PolicySpec("freqtier", seed=1, runtime_mode=mode)
            for mode in ("userspace", "kernel")
        },
        CONFIG,
    )
    return results["AllLocal"], results["userspace"], results["kernel"]


def test_ablation_kernel_vs_userspace(benchmark, results):
    base, userspace, kernel = results
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    rows = [
        [
            mode,
            f"{res.relative_to(base)['throughput']:.2%}",
            f"{res.steady_hit_ratio:.1%}",
            f"{res.policy_stats['overhead_ns'] / 1e6:.2f} ms",
        ]
        for mode, res in (("userspace", userspace), ("kernel", kernel))
    ]
    print("\n=== Ablation: userspace vs kernel runtime ===")
    print(format_rows(["mode", "throughput", "hit ratio", "overhead"], rows))

    # Same tiering decisions (mode changes costs, not behaviour).
    assert kernel.steady_hit_ratio == pytest.approx(
        userspace.steady_hit_ratio, abs=0.02
    )
    # Kernel mode strictly cheaper on boundary-priced overhead.
    assert kernel.policy_stats["overhead_ns"] < userspace.policy_stats["overhead_ns"]
    # But the end-to-end gain is modest (< 3%) -- the paper's implied
    # justification for choosing userspace flexibility.
    u = userspace.relative_to(base)["throughput"]
    k = kernel.relative_to(base)["throughput"]
    assert k >= u - 0.005
    assert k - u < 0.03
