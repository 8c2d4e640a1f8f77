"""Table V: XGBoost training performance.

Paper (CXL-1, time-per-boosting-round %all-local):

    1:32  FreqTier 95.9% | AutoNUMA 88.3% | TPP 47.1% | HeMem 68.9%
    1:16  FreqTier 97.5% | AutoNUMA 93.6% | TPP 54.1% | HeMem 73.0%
    1:8   FreqTier 98.3% | AutoNUMA 97.3% | TPP 78.8% | HeMem 69.1%

Shape assertions: FreqTier > AutoNUMA > HeMem > TPP at 1:32 (the
paper's exact ordering), and TPP is the worst system on XGBoost.
"""

import pytest

from benchmarks._common import labeled_time_table, relative_label_time
from repro import paper

RATIOS = paper.ratios("xgboost")
XGBOOST = paper.workloads(3)["xgboost"]


@pytest.fixture(scope="module")
def grid():
    return paper.run_grid(XGBOOST, RATIOS, max_batches=None, seed=3)


def test_table5_xgboost(benchmark, grid):
    from repro import FreqTier, run_experiment

    config = paper.config("xgboost", max_batches=None, seed=3)
    benchmark.pedantic(
        lambda: run_experiment(XGBOOST, FreqTier, config),
        rounds=1,
        iterations=1,
    )

    print("\n=== Table V: XGBoost (time/round vs all-local) ===")
    print(labeled_time_table(grid, RATIOS))

    # Paper ordering at 1:32: FreqTier > AutoNUMA > HeMem > TPP.
    r132 = grid["1:32"]
    ft = relative_label_time(r132, "FreqTier")
    an = relative_label_time(r132, "AutoNUMA")
    hm = relative_label_time(r132, "HeMem")
    tpp = relative_label_time(r132, "TPP")
    assert ft > an > hm > tpp

    # TPP is the worst system at every ratio (paper: 47-79%).
    for label, __ in RATIOS:
        results = grid[label]
        tpp_rel = relative_label_time(results, "TPP")
        for other in ("FreqTier", "AutoNUMA", "HeMem"):
            assert tpp_rel < relative_label_time(results, other), (label, other)
