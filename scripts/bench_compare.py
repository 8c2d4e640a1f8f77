#!/usr/bin/env python3
"""Interleaved base-vs-head gate over the end-to-end benchmark.

    python scripts/bench_compare.py --base origin/main --seconds 3

Checks ``--base`` out into a temporary detached ``git worktree`` and
runs ``perfbench/run.py --trace 0`` on every workload in
``BENCHMARK.json``, on the base and on the working tree, in ``PAIRS``
pairs that alternate which side runs first.  Both sides run on the same
host in the same minutes, so the verdict holds on any host.  For each
end-to-end metric of each workload the head fails when

* **bound rule:** its median is worse than the base's median by more
  than the metric's ``bound`` in ``BENCHMARK.json``.  Where the
  interquartile range of either side's runs, as a share of that side's
  median, is itself wider than the bound, the metric is reported as
  unresolved and fails this rule only if every head run is worse than
  every base run; or
* **pair rule:** the metric is a timing (its unit is one of
  ``TIMING_UNITS``), the head loses at least ``LOSSES_TO_FAIL`` of the
  pairs (ties count for neither side), and its median is worse than the
  base's by more than the interquartile range of the base's runs.

Other metrics get the bound rule only.  A faster side fits more passes
into ``--seconds`` and so averages over more seeds, which moves the
``ratio`` medians by the same amount in every pair; peak RSS barely
varies from run to run, so its IQR is near zero and a steady shift of
tens of KiB between the two checkouts would count as ten losses.

A head run that reports ``correct: false``, or a larger share of
failed operations than the base's runs, fails the head too.  Exit
status: 0 the head passes, 1 it fails, 2 a base run failed or was
incorrect (the comparison then says nothing about the head).
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections.abc import Callable
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Interleaved base/head pairs per workload.
PAIRS = 10
#: Pairs the head must lose for the pair rule to trip.
LOSSES_TO_FAIL = 9
#: Units of the metrics the pair rule applies to.
TIMING_UNITS = ("s", "ms", "1/s")
#: Seed of every run; perfbench derives one seed per pass from it.
SEED = 1

#: ``run(side, workload) -> record`` (perfbench's last output line).
Runner = Callable[[str, str], dict]


def run_order(pair: int) -> tuple[str, str]:
    """Sides of one pair in the order they run: base first in even pairs."""
    return ("base", "head") if pair % 2 == 0 else ("head", "base")


def _worse_by(base: float, head: float, better: str) -> float:
    """How much worse ``head`` is than ``base``; negative when better."""
    return head - base if better == "lower" else base - head


def _relative(delta: float, reference: float) -> float:
    if reference:
        return delta / abs(reference)
    return math.inf if delta > 0 else 0.0


def _iqr(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def pairs_lost(base: list[float], head: list[float], better: str) -> int:
    """Pairs in which the head is worse; ties count for neither side."""
    return sum(_worse_by(b, h, better) > 0 for b, h in zip(base, head))


def metric_verdict(
    workload: str, spec: dict, base: list[float], head: list[float]
) -> tuple[str, list[str]]:
    """One metric's summary line and the rules it trips; ``base[i]`` and
    ``head[i]`` are pair ``i``'s values."""
    name, better, bound = spec["name"], spec["better"], spec["bound"]
    base_median, head_median = statistics.median(base), statistics.median(head)
    worse = _worse_by(base_median, head_median, better)
    relative = _relative(worse, base_median)
    base_iqr = _iqr(base)
    # Ten runs of a calm stretch can hide the host's noise, so the
    # wider of the two sides' spreads decides whether the bound resolves.
    spread = max(_relative(base_iqr, base_median), _relative(_iqr(head), head_median))
    losses = pairs_lost(base, head, better)
    summary = (
        f"{workload:12} {name:18} base {base_median:12.6g}  head {head_median:12.6g}"
        f"  {relative:+7.1%}  lost {losses}/{len(base)}"
    )
    if spread > bound:
        summary += f"  unresolved: run IQR {spread:.0%} > {bound:.0%} bound"
    every_run_worse = all(_worse_by(b, h, better) > 0 for b in base for h in head)
    failures = []
    if relative > bound and (spread <= bound or every_run_worse):
        failures.append(
            f"{workload} {name}: median {head_median:.6g} against {base_median:.6g}, "
            f"{relative:.1%} worse, past the {bound:.0%} bound"
        )
    if spec["unit"] in TIMING_UNITS and losses >= LOSSES_TO_FAIL and worse > base_iqr:
        failures.append(
            f"{workload} {name}: head lost {losses} of {len(base)} pairs, "
            f"median {head_median:.6g} against {base_median:.6g} "
            f"({relative:.1%} worse, base IQR {base_iqr:.6g})"
        )
    return summary, failures


def _failed_share(runs: list[dict]) -> float:
    attempted = sum(r.get("attempted", 0) for r in runs)
    return sum(r.get("failed", 0) for r in runs) / attempted if attempted else 0.0


def verdict(
    workload: str, base: list[dict], head: list[dict], end_to_end: list[dict]
) -> tuple[list[str], list[str]]:
    """Summary lines of ``workload``'s metrics and why the head fails on
    it, given the pairs' records (``base[i]`` and ``head[i]`` ran in
    pair ``i``); the failures are empty if it passes."""
    failures = [
        f"{workload}: head run {i + 1} incorrect: {r.get('error', 'output checks failed')}"
        for i, r in enumerate(head)
        if not r.get("correct")
    ]
    if failures:
        return [], failures
    base_share, head_share = _failed_share(base), _failed_share(head)
    if head_share > base_share:
        failures.append(
            f"{workload}: head failed {head_share:.2%} of operations, base {base_share:.2%}"
        )
    summaries = []
    for spec in end_to_end:
        name = spec["name"]
        if any(name not in r["metrics"] for r in base):
            continue
        if any(name not in r["metrics"] for r in head):
            failures.append(f"{workload} {name}: not reported by the head")
            continue
        summary, tripped = metric_verdict(
            workload, spec,
            [r["metrics"][name]["value"] for r in base],
            [r["metrics"][name]["value"] for r in head],
        )
        summaries.append(summary)
        failures += tripped
    return summaries, failures


def gate(workloads: list[str], end_to_end: list[dict], run: Runner) -> int:
    """Run the pairs and print the verdict; returns the exit status."""
    records = {w: {"base": [], "head": []} for w in workloads}
    for pair in range(PAIRS):
        for workload in workloads:
            for side in run_order(pair):
                record = run(side, workload)
                if side == "base" and not record.get("correct"):
                    detail = record.get("error", "output checks failed")
                    print(
                        f"base run failed on {workload} (pair {pair + 1}): {detail}",
                        file=sys.stderr,
                    )
                    return 2
                records[workload][side].append(record)
            print(f"pair {pair + 1}/{PAIRS} {workload} done", file=sys.stderr, flush=True)

    failures = []
    for workload in workloads:
        summaries, tripped = verdict(
            workload, records[workload]["base"], records[workload]["head"], end_to_end
        )
        for line in summaries:
            print(line)
        failures += tripped
    for failure in failures:
        print(f"FAIL {failure}")
    print("head fails" if failures else "head passes")
    return 1 if failures else 0


def perfbench_runner(trees: dict[str, Path], command: list[str], seconds: float) -> Runner:
    """Runs the benchmark command in the side's tree; a run that exits
    non-zero or prints no record reports ``correct: false``."""

    def run(side: str, workload: str) -> dict:
        argv = [*command, "--workload", workload, "--seed", str(SEED),
                "--seconds", str(seconds), "--trace", "0"]
        done = subprocess.run(argv, cwd=trees[side], capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        try:
            record = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            record = {}
        if done.returncode != 0 or not isinstance(record, dict) or "metrics" not in record:
            tail = (done.stderr.strip().splitlines() or ["no output"])[-1]
            return {"correct": False, "error": f"exit {done.returncode}: {tail}"}
        if not record.get("correct"):
            checks = [ln for ln in done.stderr.splitlines() if ln.startswith("check failed")]
            record["error"] = "; ".join(checks) or "output checks failed"
        return record

    return run


def main(argv: list[str] | None = None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True,
                        help="commit to compare the working tree against")
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"],
                        help="length of each benchmark run (default: %(default)s)")
    args = parser.parse_args(argv)

    # The base tree sits beside the working tree, on the same file
    # system, so both sides write their checkpoints to the same device.
    base_tree = Path(tempfile.mkdtemp(dir=ROOT, prefix=".bench-compare-"))
    try:
        added = subprocess.run(
            ["git", "worktree", "add", "--detach", "--quiet", str(base_tree), args.base],
            cwd=ROOT,
        )
        if added.returncode != 0:
            print(f"cannot check out base {args.base!r}", file=sys.stderr)
            return 2
        runner = perfbench_runner(
            {"base": base_tree, "head": ROOT}, benchmark["command"], args.seconds
        )
        workloads = [w["name"] for w in benchmark["workloads"]]
        return gate(workloads, benchmark["end_to_end"], runner)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(base_tree)],
                       cwd=ROOT, capture_output=True)
        shutil.rmtree(base_tree, ignore_errors=True)

if __name__ == "__main__":
    sys.exit(main())
