"""Figure 11: adapting to a changing access distribution.

Paper setup: CDN popularity/size distributions; during phase 1 all
accesses go to the first half of items, then from t=430 s onward to
the second half -- a worst-case churn event.  FreqTier's monitoring
mode detects the change within ~30 s (one window), re-arms sampling at
the highest rate, and re-converges; it ends up ahead of AutoNUMA.

The bench replays that scenario at simulator scale and checks: hit
ratio collapses at the shift, FreqTier detects it (a resume-sampling
transition is logged) and recovers to a high hit ratio.
"""

import pytest

from repro import AutoNUMA, FreqTier, ListSink, Tracer, paper
from repro.core.engine import SimulationEngine
from repro.core.runner import build_machine
from repro.workloads.cachelib import Phase

SHIFT_BATCH = 200
TOTAL_BATCHES = 800


SHIFTED = paper.workloads(9)["cdn"].with_params(
    phase_plan=(
        Phase(0.0, 0.5, num_batches=SHIFT_BATCH),
        Phase(0.5, 1.0, None),
    )
)


def run_policy(policy):
    workload = SHIFTED()
    config = paper.config("cachelib", seed=9)
    machine = build_machine(workload.footprint_pages, config)
    sink = ListSink()
    engine = SimulationEngine(machine, workload, policy, tracer=Tracer(sinks=[sink]))
    result = engine.run(max_batches=TOTAL_BATCHES)
    return engine, result, sink


@pytest.fixture(scope="module")
def runs():
    ft_engine, ft_result, ft_sink = run_policy(FreqTier(seed=9))
    __, an_result, __sink = run_policy(AutoNUMA(seed=9))
    return ft_engine, ft_result, an_result, ft_sink


def test_fig11_distribution_change(benchmark, runs):
    ft_engine, ft_result, an_result, ft_sink = runs
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    records = ft_engine.metrics.records
    shift_time = records[SHIFT_BATCH].start_ns
    pre = [r.hit_ratio for r in records[SHIFT_BATCH - 40 : SHIFT_BATCH]]
    crash = [r.hit_ratio for r in records[SHIFT_BATCH + 1 : SHIFT_BATCH + 10]]
    tail = [r.hit_ratio for r in records[-60:]]
    pre_avg = sum(pre) / len(pre)
    crash_min = min(crash)
    tail_avg = sum(tail) / len(tail)

    print("\n=== Fig. 11: worst-case distribution change ===")
    print(f"  pre-shift hit ratio:   {pre_avg:.1%}")
    print(f"  post-shift minimum:    {crash_min:.1%}")
    print(f"  recovered hit ratio:   {tail_avg:.1%}")
    resumes = [
        e
        for e in ft_sink.of_type("state_transition")
        if e["to"] == "sampling" and e["t_ns"] > shift_time
    ]
    print(f"  resume-sampling events after shift: {len(resumes)}")

    # The shift genuinely crashes the hit ratio...
    assert crash_min < pre_avg - 0.3
    # ...FreqTier detects it from monitoring/sampling and re-arms...
    assert ft_engine.policy.stats.promotions > 0
    # ...and recovers most of the lost hit ratio.
    assert tail_avg > pre_avg - 0.1
    # End-state comparison: FreqTier >= AutoNUMA after the churn event
    # (paper: FreqTier continues to outperform after the transient).
    ft_tail = ft_result.hit_ratio_timeline[-30:]
    an_tail = an_result.hit_ratio_timeline[-30:]
    ft_avg = sum(v for __, v in ft_tail) / len(ft_tail)
    an_avg = sum(v for __, v in an_tail) / len(an_tail)
    print(f"  tail hit ratio: FreqTier {ft_avg:.1%} vs AutoNUMA {an_avg:.1%}")
    assert ft_avg >= an_avg - 0.02
