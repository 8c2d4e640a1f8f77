#!/usr/bin/env python
"""Time serial vs parallel vs warm-cache execution of a reproduction grid.

Runs the standard 4-policy x 3-ratio CacheLib CDN grid (plus the
AllLocal baseline per ratio -- 15 cells) three ways:

1. serial      -- ``jobs=1``, no cache (the historical code path);
2. parallel    -- ``--jobs`` workers, cold content-addressed cache;
3. warm cache  -- same executor settings again, every cell a cache hit.

Verifies all three produce bit-identical results, then writes
``BENCH_parallel.json`` at the repo root so successive PRs can track
the speedup trajectory.

Usage::

    PYTHONPATH=src python scripts/bench_grid.py [--jobs 4] [--batches 400]
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
for entry in (str(REPO_ROOT / "src"), str(REPO_ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks._common import CACHELIB_RATIOS, cdn_workload, run_grid  # noqa: E402
from repro.core.parallel import ParallelExecutor, resolve_jobs  # noqa: E402


def _time_grid(executor, batches: int, seed: int):
    start = time.perf_counter()
    grid = run_grid(
        cdn_workload(seed=seed),
        CACHELIB_RATIOS,
        max_batches=batches,
        seed=seed,
        executor=executor,
    )
    return time.perf_counter() - start, grid


def _shm_stats(executor) -> dict:
    """Zero-copy stream-sharing columns for one executor pass."""
    stats = executor.stats
    return {
        "shm_segments": stats.shm_segments,
        "shm_bytes": stats.shm_bytes,
        "shm_fallbacks": stats.shm_fallbacks,
    }


def _flatten(grid) -> dict[str, dict]:
    return {
        f"{ratio}/{policy}": result.to_dict()
        for ratio, row in grid.items()
        for policy, result in row.items()
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--jobs", type=int, default=4, help="parallel worker count (0 = all CPUs)"
    )
    parser.add_argument(
        "--batches", type=int, default=400, help="workload batches per cell"
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--out",
        default=str(REPO_ROOT / "BENCH_parallel.json"),
        help="where to write the timing record",
    )
    args = parser.parse_args(argv)
    jobs = resolve_jobs(args.jobs)
    cells = len(CACHELIB_RATIOS) * 5  # 4 policies + AllLocal per ratio

    print(f"grid: {cells} cells, {args.batches} batches/cell, jobs={jobs}")

    serial_executor = ParallelExecutor(jobs=1)
    serial_s, serial_grid = _time_grid(serial_executor, args.batches, args.seed)
    print(f"serial (jobs=1):          {serial_s:8.2f} s")

    with tempfile.TemporaryDirectory(prefix="bench-grid-cache-") as cache_dir:
        parallel_executor = ParallelExecutor(jobs=jobs, cache=cache_dir)
        parallel_s, parallel_grid = _time_grid(
            parallel_executor, args.batches, args.seed
        )
        shm = _shm_stats(parallel_executor)
        print(
            f"parallel (jobs={jobs}, cold): {parallel_s:8.2f} s  "
            f"(shm: {shm['shm_segments']} segments, "
            f"{shm['shm_bytes'] / 1e6:.1f} MB, "
            f"{shm['shm_fallbacks']} fallbacks)"
        )

        warm_s, warm_grid = _time_grid(
            ParallelExecutor(jobs=jobs, cache=cache_dir), args.batches, args.seed
        )
        print(f"warm cache:               {warm_s:8.2f} s")

    if not (_flatten(serial_grid) == _flatten(parallel_grid) == _flatten(warm_grid)):
        print("ERROR: serial, parallel and cached results differ", file=sys.stderr)
        return 1
    print("determinism: serial == parallel == cached  OK")

    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    warm_fraction = warm_s / parallel_s if parallel_s > 0 else 0.0
    record = {
        "benchmark": "run_grid cdn 4-policy x 3-ratio (+AllLocal)",
        "cells": cells,
        "batches_per_cell": args.batches,
        "jobs": jobs,
        "cpus_available": resolve_jobs(0),
        "serial_s": round(serial_s, 3),
        "parallel_cold_s": round(parallel_s, 3),
        "warm_cache_s": round(warm_s, 3),
        "speedup_parallel_vs_serial": round(speedup, 3),
        "warm_over_cold_fraction": round(warm_fraction, 4),
        "results_identical": True,
        **shm,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(
        f"speedup {speedup:.2f}x, warm cache at {warm_fraction:.1%} of cold "
        f"-> {args.out}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
