#!/usr/bin/env python3
"""Adapting to workload churn (the paper's Figure 11 scenario).

Real caches churn: item popularity shifts over time.  This example
builds a CacheLib CDN workload whose accesses move from the first half
of items to the second half mid-run (a worst-case shift), then shows
FreqTier's dynamic intensity machinery in action:

- the hit ratio collapses at the shift;
- the low-overhead monitoring mode detects the change and re-arms
  sampling at 100 kHz (watch the state-transition log);
- aging washes stale frequencies out of the CBF and the hit ratio
  recovers.

Usage:
    python examples/churn_adaptation.py
"""

from repro import FreqTier, ListSink, Tracer, paper
from repro.analysis.timeline import resample_timeline
from repro.core.engine import SimulationEngine
from repro.core.runner import build_machine
from repro.workloads.cachelib import Phase

SHIFT_AT_BATCH = 150
TOTAL_BATCHES = 500


def spark(values, width: int = 50) -> str:
    """Tiny text sparkline for a [0,1] series."""
    blocks = " .:-=+*#%@"
    return "".join(
        blocks[min(int(v * (len(blocks) - 1)), len(blocks) - 1)] for v in values
    )


def main() -> None:
    workload = paper.workloads(9)["cdn"].with_params(
        phase_plan=(
            Phase(0.0, 0.5, num_batches=SHIFT_AT_BATCH),
            Phase(0.5, 1.0, None),
        )
    )()
    config = paper.config("cachelib", "1:32", seed=9)
    machine = build_machine(workload.footprint_pages, config)
    policy = FreqTier(seed=9)
    sink = ListSink()
    engine = SimulationEngine(machine, workload, policy, tracer=Tracer(sinks=[sink]))

    print(
        f"Running {TOTAL_BATCHES} batches; all accesses shift to the "
        f"other half of items at batch {SHIFT_AT_BATCH} ..."
    )
    result = engine.run(max_batches=TOTAL_BATCHES)

    series = [v for __, v in resample_timeline(result.hit_ratio_timeline, 50)]
    print("\nLocal-DRAM hit ratio over time (shift near the middle):")
    print("  " + spark(series))
    print(f"  start {series[0]:.0%} ... min {min(series):.0%} ... end {series[-1]:.0%}")

    print("\nFreqTier state transitions:")
    for e in sink.of_type("state_transition"):
        print(
            f"  t={e['t_ns'] / 1e6:8.2f} ms  "
            f"{e['from']} -> {e['to']} ({e['reason']})"
        )

    shift_time = engine.metrics.records[SHIFT_AT_BATCH].start_ns
    resumed = [
        e["t_ns"]
        for e in sink.of_type("state_transition")
        if e["to"] == "sampling" and e["t_ns"] >= shift_time
    ]
    if resumed:
        print(
            f"\nDetected the distribution change "
            f"{(resumed[0] - shift_time) / 1e6:.2f} ms after the shift "
            f"(paper: within one ~30 s monitoring window)."
        )


if __name__ == "__main__":
    main()
