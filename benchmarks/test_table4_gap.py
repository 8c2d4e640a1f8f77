"""Table IV: GAP graph-kernel performance (BC, BFS, CC).

Paper (CXL-1, execution time %all-local at 1:32):

    BC   FreqTier 86.6% | AutoNUMA 83.4% | TPP 66.9% | HeMem 64.3%
    BFS  FreqTier 80.7% | AutoNUMA 68.8% | TPP 42.3% | HeMem 55.4%
    CC   FreqTier 92.3% | AutoNUMA 78.1% | TPP 84.0% | HeMem 56.2%

Shape assertions: FreqTier wins every kernel at 1:32; the heavyweight
frequency baseline (HeMem) is consistently near the bottom on GAP.
"""

import pytest

from benchmarks._common import labeled_time_table, relative_label_time
from repro import paper

KERNELS = ("bc", "bfs", "cc")
RATIOS = paper.ratios("gap")
GAP = {kernel: paper.workloads(2)[f"gap-{kernel}"] for kernel in KERNELS}


@pytest.fixture(scope="module")
def grids():
    return {
        kernel: paper.run_grid(GAP[kernel], RATIOS, max_batches=None, seed=2)
        for kernel in KERNELS
    }


def test_table4_gap(benchmark, grids):
    from repro import FreqTier, run_experiment

    config = paper.config("gap", max_batches=None, seed=2)
    benchmark.pedantic(
        lambda: run_experiment(GAP["bfs"], FreqTier, config),
        rounds=1,
        iterations=1,
    )

    for kernel in KERNELS:
        print(f"\n=== Table IV: GAP {kernel.upper()} (time vs all-local) ===")
        print(labeled_time_table(grids[kernel], RATIOS))

    # FreqTier wins every kernel at every ratio.
    for kernel in KERNELS:
        for label, __ in RATIOS:
            results = grids[kernel][label]
            ft = relative_label_time(results, "FreqTier")
            for other in ("AutoNUMA", "TPP", "HeMem"):
                assert ft > relative_label_time(results, other), (
                    kernel,
                    label,
                    other,
                )

    # HeMem's overhead drowns it on GAP (paper: worst on BC and CC).
    for kernel in KERNELS:
        results = grids[kernel]["1:32"]
        assert relative_label_time(results, "HeMem") < relative_label_time(
            results, "FreqTier"
        )
