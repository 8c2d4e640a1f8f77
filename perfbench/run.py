"""Host-time benchmark of the tiering simulator.

    python3 perfbench/run.py --workload cdn_grid --seed 1 --seconds 25 --trace 0

Runs one workload (``cdn_grid``, ``gap_graph`` or ``serve_chaos``, see
``perfbench/workloads.py``) pass after pass for about ``--seconds``,
checks every pass's outputs, and prints one JSON object as its last
line: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics, measured untraced.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (``perfbench/layers.py``), the
tracing overhead, and whether the layers' self times close on the
traced wall time.  Run from the repository root; the simulator is
imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Fewest passes a run makes, whatever ``--seconds`` says.
MIN_PASSES = 3
#: Layer self times must add up to this share of the traced wall time.
CLOSURE_TOLERANCE = 0.10

END_TO_END_UNITS = {
    "setup_s": "s",
    "sim_batches_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "tick_p50_ms": "ms",
    "tick_tail_ms": "ms",
    "restart_s": "s",
    "hit_ratio": "ratio",
    "rel_perf": "ratio",
    "served_frac": "ratio",
}

#: Per-layer figures that come from a pass rather than from the spans.
PASS_EXTRAS = (
    "serve.served", "serve.shed", "serve.reoffered", "serve.slo_extra_samples",
    "parallel.shm_mb", "parallel.shm_fallbacks",
)


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    match = re.search(r"_(ms|us|s|mb|bytes)(_|$)", name)
    if match:
        return {"mb": "MB"}.get(match.group(1), match.group(1))
    if name.endswith(("_ratio", "_modeled", "_frac")):
        return "ratio"
    return "count"


def import_seconds(runs: int = 3) -> float:
    """Median time to import the simulator in a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter(); "
        "import repro, repro.core.parallel, repro.serve; "
        "print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(runs):
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, check=True, timeout=120,
        )
        times.append(float(done.stdout))
    return statistics.median(times)


def peak_rss_mib() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def pass_seed(seed: int, index: int) -> int:
    """Seed of a run's ``index``-th pass.

    Each pass simulates other inputs, so a run's medians average over
    inputs instead of resting on one seed's catalogue or graph.
    """
    return seed * 1000 + index


def run_passes(run_pass, seconds: float, min_passes: int = MIN_PASSES) -> list:
    """Call ``run_pass(index)`` until another pass would overrun ``seconds``."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(len(passes)))
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def end_to_end(make, clock, seconds: float) -> tuple[dict, list]:
    from perfbench.stats import percentile

    # Only the first pass also runs the serve daemon's AllLocal twin.
    passes = run_passes(
        lambda i: make(i).run_pass(clock, compare=i == 0), seconds
    )
    rss = peak_rss_mib()
    ticks = [ns for p in passes for ns in p.ticks_ns]
    metrics = {
        "setup_s": import_seconds() + statistics.median(p.setup_s for p in passes),
        "sim_batches_per_s": statistics.median(
            p.batches * 1e9 / sum(p.ticks_ns) for p in passes
        ),
        "peak_rss_mb": rss,
        "tick_p50_ms": percentile(ticks, 0.5) / 1e6,
        "tick_tail_ms": percentile(ticks, make(0).tail_q) / 1e6,
        "restart_s": statistics.median(r for p in passes for r in p.restarts_s),
        "hit_ratio": statistics.median(p.hit_ratio for p in passes),
        "rel_perf": statistics.median(p.rel_perf for p in passes if p.rel_perf is not None),
        "served_frac": statistics.median(p.served_frac for p in passes),
    }
    units = {name: END_TO_END_UNITS[name] for name in metrics}
    return _result(metrics, units, passes, [])


def per_layer(make, clock, workload: str, seconds: float) -> tuple[dict, list]:
    from perfbench import layers

    errors: list[str] = []
    reference = []
    if workload == "cdn_grid":
        # The executor pass the end-to-end run times: its results must
        # equal the first inline pair's bit for bit.
        reference.append(make(0).run_pass(clock, pooled=True, compare=False))
    tracer = layers.SpanTracer()
    untraced, traced = [], []

    def pair(index: int):
        bench = make(index)
        untraced.append(bench.run_pass(clock, pooled=False, compare=False))
        patcher = layers.install(tracer)
        try:
            traced.append(bench.run_pass(clock, pooled=False, compare=False))
        finally:
            patcher.restore()
        if traced[-1].digest != untraced[-1].digest:
            errors.append(f"pass {index}: traced and untraced results differ")
        return traced[-1]

    run_passes(pair, seconds, min_passes=2)
    metrics = layers.layer_metrics(tracer, len(traced))
    extras = dict.fromkeys(PASS_EXTRAS, 0.0)
    extras.update(traced[0].extra)
    if reference:
        extras["parallel.shm_mb"] = reference[0].extra["parallel.shm_mb"]
        extras["parallel.shm_fallbacks"] = reference[0].extra["parallel.shm_fallbacks"]
    metrics.update(extras)

    traced_wall_ms = sum(p.section_s for p in traced) * 1e3
    closure = sum(tracer.layer_self_ms().values()) / traced_wall_ms
    metrics["trace.closure_frac"] = closure
    metrics["trace_overhead_frac"] = (
        statistics.median(p.section_s for p in traced)
        / statistics.median(p.section_s for p in untraced)
        - 1.0
    )
    if abs(closure - 1.0) > CLOSURE_TOLERANCE:
        errors.append(f"layer self times cover {closure:.3f} of the traced wall time")
    missing = tracer.missing_calls(workload)
    if missing:
        errors.append(f"entry points with no calls: {missing}")
    if reference and reference[0].digest != untraced[0].digest:
        errors.append("executor and inline results differ")
    units = {name: unit_of(name) for name in metrics}
    return _result(metrics, units, reference + untraced + traced, errors)


def _result(metrics: dict, units: dict, passes: list, errors: list) -> tuple[dict, list]:
    for p in passes:
        errors.extend(p.errors)
    record = {
        "correct": not errors,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    return record, errors


def _stop_resource_tracker() -> None:
    """Stop the shared-memory resource tracker, if one was started."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cdn_grid", "gap_graph", "serve_chaos"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"simulator sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import clock as step_clock
    from perfbench import workloads

    scratch_root = ROOT / ".perfbench-tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=scratch_root))
    try:
        clock = step_clock.install()

        def make(index: int):
            seed = pass_seed(args.seed, index)
            return workloads.make(args.workload, seed, scratch)

        if args.trace:
            record, errors = per_layer(make, clock, args.workload, args.seconds)
        else:
            record, errors = end_to_end(make, clock, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass  # another run still uses it
        workloads.reap_children()
        _stop_resource_tracker()
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
