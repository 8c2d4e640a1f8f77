#!/usr/bin/env python3
"""Graph analytics under tiered memory: real GAP kernels on a
Kronecker graph.

Generates an R-MAT power-law graph (the GAP benchmark input family),
actually executes BFS and Connected Components over its CSR arrays,
and measures how each tiering system handles the resulting page-level
access pattern -- hub-heavy neighbor gathers plus streaming scans.

Reproduces the Table IV takeaway at example scale: FreqTier identifies
hub pages by frequency and keeps them local; recency systems churn.

Usage:
    python examples/graph_analytics.py [--scale N] [--kernel bfs|cc|bc]
"""

import argparse

from repro import PolicySpec, compare_policies, paper
from repro.analysis.tables import format_rows


def main() -> None:
    presets = paper.workloads(2)
    bench = presets["gap-bfs"].params
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scale", type=int, default=bench["scale"], help="2^scale nodes"
    )
    parser.add_argument(
        "--kernel", choices=("bfs", "cc", "bc"), default="bfs"
    )
    parser.add_argument("--trials", type=int, default=bench["num_trials"])
    args = parser.parse_args()

    workload = presets[f"gap-{args.kernel}"].with_params(
        scale=args.scale, num_trials=args.trials
    )

    probe = workload()
    print(
        f"Graph: 2^{args.scale} nodes, "
        f"{probe.graph.num_directed_edges} directed edges, "
        f"{probe.footprint_pages} pages footprint"
    )
    degrees = probe.graph.degrees()
    print(
        f"Degree skew: max={degrees.max()}, mean={degrees.mean():.1f} "
        f"(hubs make tiering worthwhile)"
    )

    config = paper.config("gap", "1:32", max_batches=None, seed=2)
    print(f"\nRunning {args.kernel.upper()} x{args.trials} trials @ 1:32 ...")
    results = compare_policies(
        workload,
        {
            "FreqTier": PolicySpec("freqtier", seed=2),
            "AutoNUMA": PolicySpec("autonuma", seed=2),
            "Static": PolicySpec("static", seed=2),
        },
        config,
    )

    base = results["AllLocal"]
    rows = []
    for name, res in results.items():
        mean_trial = res.mean_time_per_label_ns()
        rel = res.relative_to(base)["label_time"]
        rows.append(
            [
                name,
                f"{mean_trial / 1e6:.2f} ms" if mean_trial else "-",
                f"{rel:.1%}" if rel else "-",
                f"{res.steady_hit_ratio:.1%}",
                res.pages_migrated,
            ]
        )
    print()
    print(
        format_rows(
            ["system", "time/trial", "%all-local", "hit ratio", "migrated"],
            rows,
        )
    )


if __name__ == "__main__":
    main()
