"""Command-line interface for running tiering experiments.

Usage::

    python -m repro.cli list
    python -m repro.cli run --workload cdn --policy freqtier --batches 300
    python -m repro.cli compare --workload social --cxl 2
    python -m repro.cli sweep --workload cdn --policy freqtier \
        --fractions 0.03,0.06,0.12,0.24
    python -m repro.cli run --workload zipf --policy freqtier \
        --trace out.jsonl
    python -m repro.cli trace summarize out.jsonl

Workload names, the ``compare`` line-up and the ``--local-fraction`` /
``--ratio`` defaults (the CacheLib 1:32 cell) come from
:mod:`repro.paper`.  Outputs a human-readable table by default;
``--json`` emits machine-readable results.  ``--trace`` writes a JSONL
event trace (``run``: one file; ``compare``: one file per cell in a
directory); ``trace summarize`` / ``trace validate`` inspect such files.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys

from repro import paper
from repro.analysis.tables import format_comparison_table, format_rows
from repro.core.config import ExperimentConfig
from repro.core.metrics import ExperimentResult
from repro.core.parallel import (
    CellSpec,
    FailedCell,
    ParallelExecutor,
    PolicySpec,
    WorkloadSpec,
)
from repro.core.runner import compare_policies, run_all_local, run_experiment
from repro.faults import FAULT_PRESETS, FaultPlan, parse_fault_spec
from repro.memsim.tier import CXL1_CONFIG, CXL2_CONFIG
from repro.obs import trace_to
from repro.state import SnapshotError


def _executor_from_args(args: argparse.Namespace) -> ParallelExecutor:
    return ParallelExecutor(
        jobs=getattr(args, "jobs", 1),
        cache=getattr(args, "cache_dir", None),
        cell_timeout=getattr(args, "cell_timeout", None),
        retries=getattr(args, "retries", 0),
        keep_going=getattr(args, "keep_going", False),
        checkpoint_root=getattr(args, "checkpoint_dir", None),
        checkpoint_every=getattr(args, "checkpoint_every", None) or 25,
    )


def _partial_exit_code(args: argparse.Namespace, num_failed: int) -> int:
    """1 when any cell failed permanently, unless ``--ok-on-partial``."""
    if num_failed and not getattr(args, "ok_on_partial", False):
        return 1
    return 0


def _faults_from_args(args: argparse.Namespace) -> FaultPlan | None:
    spec = getattr(args, "faults", None)
    if spec is None:
        return None
    try:
        return parse_fault_spec(spec)
    except ValueError as exc:
        raise SystemExit(str(exc))


def _report_failed_cells(results: dict) -> dict:
    """Print FailedCell entries to stderr; return the survivors."""
    for name, res in results.items():
        if isinstance(res, FailedCell):
            print(
                f"cell {name!r} FAILED after {res.attempts} attempt(s): "
                f"{res.error}",
                file=sys.stderr,
            )
    return {
        name: res
        for name, res in results.items()
        if not isinstance(res, FailedCell)
    }


@contextlib.contextmanager
def _maybe_profile(args: argparse.Namespace, default_stem: str):
    """cProfile the wrapped block when ``--profile`` was given.

    The stats dump lands next to the trace destination when one was
    requested (``<trace>.pstats`` for files, ``<dir>/profile.pstats``
    for trace directories), else at ``<default_stem>.pstats`` in the
    working directory.  Profiling covers *this* process only: under
    ``--jobs != 1`` the cells execute in workers, so profile with
    ``--jobs 1`` to capture cell execution itself.
    """
    if not getattr(args, "profile", False):
        yield
        return
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()
        # Resolve the destination after the run: a compare --trace
        # directory exists by now even if it did not at startup.
        trace = getattr(args, "trace", None)
        if trace and os.path.isdir(trace):
            dump = os.path.join(trace, "profile.pstats")
        elif trace:
            dump = f"{trace}.pstats"
        else:
            dump = f"{default_stem}.pstats"
        pstats.Stats(profiler).dump_stats(dump)
        print(f"profile written to {dump}", file=sys.stderr)


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The cell config of the machine flags; ``--batches <= 0`` = no limit."""
    return ExperimentConfig(
        local_fraction=args.local_fraction,
        ratio_label=args.ratio,
        memory=CXL2_CONFIG if args.cxl == 2 else CXL1_CONFIG,
        max_batches=args.batches if args.batches > 0 else None,
        seed=args.seed,
    )


def _result_dict(result: ExperimentResult) -> dict:
    summary = result.summary()
    summary["total_time_ms"] = result.total_time_ns / 1e6
    summary["mean_time_per_label_ms"] = (
        result.mean_time_per_label_ns() / 1e6
        if result.mean_time_per_label_ns()
        else None
    )
    return summary


def _add_machine_args(
    parser: argparse.ArgumentParser,
    batches: int = 300,
    batches_help: str | None = None,
) -> None:
    """The flags of one cell's machine and output.

    ``--local-fraction`` and ``--ratio`` default to the paper's CacheLib
    1:32 cell.
    """
    cell = paper.config("cachelib")
    parser.add_argument("--local-fraction", type=float, default=cell.local_fraction)
    parser.add_argument("--ratio", default=cell.ratio_label)
    parser.add_argument(
        "--cxl", type=int, choices=(1, 2), default=1, help="CXL device config"
    )
    parser.add_argument("--batches", type=int, default=batches, help=batches_help)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", action="store_true")


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_fault_args(parser: argparse.ArgumentParser) -> None:
    presets = ", ".join(sorted(FAULT_PRESETS))
    parser.add_argument(
        "--faults",
        default=None,
        metavar="PRESET|JSON",
        help="inject deterministic faults: a preset name "
        f"({presets}) or an inline FaultPlan JSON object",
    )


def _add_exec_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=_nonneg_int,
        default=1,
        help="worker processes: 1 = serial (default), 0 = all CPUs, N = pool of N",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="content-addressed result cache directory (skips "
        "already-computed cells; results are bit-identical)",
    )
    parser.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="fail one cell attempt after this many wall-clock seconds "
        "(pool mode only, i.e. --jobs != 1)",
    )
    parser.add_argument(
        "--retries",
        type=_nonneg_int,
        default=0,
        help="failed attempts allowed per cell beyond the first",
    )
    parser.add_argument(
        "--keep-going",
        action="store_true",
        help="on a cell's permanent failure, report it and keep the "
        "rest of the grid instead of aborting",
    )
    parser.add_argument(
        "--ok-on-partial",
        action="store_true",
        help="exit 0 even when --keep-going left failed cells in the "
        "grid (default: any permanently failed cell means exit 1)",
    )
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="durable run state under DIR: per-cell rotated snapshots "
        "(crash/timeout retries resume mid-run) plus finished cells in "
        "DIR/results when --cache-dir is not given (re-invoking the "
        "same grid skips completed cells)",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=_nonneg_int,
        default=25,
        metavar="N",
        help="snapshot cadence in batches for checkpointed cells "
        "(default 25; needs --checkpoint-dir)",
    )


def _spec(kind: str, name: str, seed: int) -> WorkloadSpec | PolicySpec:
    """The spec a CLI workload or policy name stands for.

    Workload names are :func:`repro.paper.workloads`' presets and
    policy names the policy registry's; an unknown name exits with the
    valid ones.
    """
    specs = (
        paper.workloads(seed)
        if kind == "workload"
        else {n: PolicySpec(n, seed=seed) for n in PolicySpec.names()}
    )
    if name not in specs:
        valid = ", ".join(sorted(specs))
        raise SystemExit(f"unknown {kind} {name!r}; choose from: {valid}")
    return specs[name]


def _cell_policy(name: str, seed: int) -> PolicySpec | None:
    """The cell policy a CLI policy name stands for.

    ``alllocal`` is the all-local baseline cell (``policy=None``: the
    all-DRAM machine of :func:`~repro.core.runner.run_all_local`), not
    the no-op policy on the tiered machine; every other name is the
    registry's spec.
    """
    if name == "alllocal":
        return None
    return _spec("policy", name, seed)


def cmd_list(args: argparse.Namespace) -> int:
    workloads = sorted(paper.workloads(0))
    policies = PolicySpec.names()
    if args.json:
        print(json.dumps({"workloads": workloads, "policies": policies}))
    else:
        print("workloads: " + ", ".join(workloads))
        print("policies:  " + ", ".join(policies))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    return _run_cell(args, _spec("workload", args.workload, args.seed))


def _run_cell(args: argparse.Namespace, workload: WorkloadSpec) -> int:
    """``run``'s body: one cell of ``workload``, printed as one table."""
    policy = _cell_policy(args.policy, args.seed)
    config = _config_from_args(args)
    faults = _faults_from_args(args)
    # The all-local baseline never checkpoints.
    all_local = policy is None
    if all_local and (args.checkpoint_dir or args.resume):
        raise SystemExit(
            "--policy alllocal runs the all-local baseline, which does "
            "not checkpoint: drop --checkpoint-dir and --resume"
        )
    if args.resume and not args.checkpoint_dir:
        raise SystemExit("--resume requires --checkpoint-dir")
    with _maybe_profile(args, "repro-run"), trace_to(args.trace) as tracer:
        if all_local:
            result = run_all_local(workload, config, tracer=tracer, faults=faults)
        else:
            result = run_experiment(
                workload,
                policy,
                config,
                tracer=tracer,
                faults=faults,
                checkpoint_dir=args.checkpoint_dir,
                checkpoint_every_batches=(
                    args.checkpoint_every if args.checkpoint_dir else 0
                ),
                resume_from=args.checkpoint_dir if args.resume else None,
            )
    payload = _result_dict(result)
    if args.baseline:
        base = result if all_local else run_all_local(workload, config)
        rel = result.relative_to(base)
        payload["pct_all_local_throughput"] = rel["throughput"]
        payload["pct_all_local_p50"] = rel["p50_latency"]
        payload["pct_all_local_label_time"] = rel["label_time"]
    if args.json:
        print(json.dumps(payload, default=str))
    else:
        rows = [[k, v] for k, v in payload.items()]
        print(format_rows(["metric", "value"], rows))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    workload = _spec("workload", args.workload, args.seed)
    names = (
        [n.strip() for n in args.policies.split(",")]
        if args.policies
        else list(paper.LINEUP.values())
    )
    policies = {name: _cell_policy(name, args.seed) for name in names}
    config = _config_from_args(args)
    with _maybe_profile(args, "repro-compare"):
        results = compare_policies(
            workload,
            policies,
            config,
            executor=_executor_from_args(args),
            trace_dir=args.trace,
            faults=_faults_from_args(args),
        )
    num_failed = sum(
        isinstance(res, FailedCell) for res in results.values()
    )
    results = _report_failed_cells(results)
    if args.trace:
        print(f"per-cell traces written under {args.trace}/", file=sys.stderr)
    if args.report:
        from repro.analysis.report import markdown_report

        with open(args.report, "w") as fh:
            fh.write(
                markdown_report(
                    results,
                    title=f"{args.workload} @ {args.ratio} "
                    f"({args.local_fraction:.0%} local)",
                )
            )
        print(f"report written to {args.report}")
    if args.json:
        print(
            json.dumps(
                {name: _result_dict(res) for name, res in results.items()},
                default=str,
            )
        )
    else:
        print(format_comparison_table(results))
    return _partial_exit_code(args, num_failed)


def cmd_record(args: argparse.Namespace) -> int:
    """Capture a workload's access stream to a replayable trace file."""
    from repro.workloads.recording import StreamTooLarge
    from repro.workloads.traceio import save_trace

    workload = _spec("workload", args.workload, args.seed)()
    config = _config_from_args(args)
    from repro.core.runner import build_machine

    machine = build_machine(workload.footprint_pages, config)
    workload.setup(machine)
    try:
        count = save_trace(
            args.out,
            workload.batches(),
            workload.footprint_pages,
            max_batches=config.max_batches,
        )
    except StreamTooLarge as exc:
        print(f"record: {exc}; nothing written, pass --batches", file=sys.stderr)
        return 1
    payload = {
        "path": args.out,
        "batches": count,
        "footprint_pages": workload.footprint_pages,
    }
    if args.json:
        print(json.dumps(payload))
    else:
        print(f"recorded {count} batches to {args.out}")
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    """Run a policy over a previously recorded trace file."""
    return _run_cell(args, WorkloadSpec("trace", path=args.trace_file))


def cmd_trace_summarize(args: argparse.Namespace) -> int:
    """Summarize a JSONL trace: counts, timeline, adaptation latencies."""
    from repro.analysis.tracetool import format_trace_summary, summarize_trace
    from repro.obs import read_jsonl

    summary = summarize_trace(list(read_jsonl(args.path)))
    if args.json:
        print(json.dumps(summary, default=str))
    else:
        print(format_trace_summary(summary))
    return 0


def cmd_trace_validate(args: argparse.Namespace) -> int:
    """Validate every line of a JSONL trace against the event schema."""
    from repro.analysis.tracetool import validate_trace

    outcome = validate_trace(args.path)
    if args.json:
        print(
            json.dumps(
                {
                    "path": args.path,
                    "events": len(outcome.events),
                    "errors": [
                        {"line": line, "error": msg}
                        for line, msg in outcome.errors
                    ],
                    "ok": outcome.ok,
                }
            )
        )
    else:
        for line, msg in outcome.errors:
            print(f"{args.path}:{line}: {msg}", file=sys.stderr)
        verdict = "OK" if outcome.ok else f"{len(outcome.errors)} invalid line(s)"
        print(f"{args.path}: {len(outcome.events)} valid events, {verdict}")
    return 0 if outcome.ok else 1


def cmd_checkpoint_inspect(args: argparse.Namespace) -> int:
    """Report every snapshot generation in a checkpoint directory.

    A generation is valid when its digest and schema verify.  Exit 0
    when at least one generation is valid (a resume would succeed), 1
    otherwise -- so scripts can probe resumability.
    """
    from repro.state import CheckpointManager

    if not os.path.isdir(args.dir):
        raise SystemExit(f"not a checkpoint directory: {args.dir}")
    report = CheckpointManager(args.dir).inspect()
    any_valid = any(entry.get("valid") for entry in report)
    if args.json:
        print(
            json.dumps(
                {"dir": args.dir, "generations": report, "resumable": any_valid},
                default=str,
            )
        )
        return 0 if any_valid else 1
    if not report:
        print(f"{args.dir}: no snapshot generations")
        return 1
    for entry in report:
        if entry.get("valid"):
            progress = entry.get("progress") or {}
            batches = progress.get("batches_done", "?")
            now_ns = progress.get("now_ns")
            when = f", t={now_ns / 1e6:.3f} ms" if now_ns is not None else ""
            print(
                f"  gen {entry['generation']:>4} {entry['file']:<20} "
                f"valid   batches={batches}{when} ({entry['bytes']} bytes)"
            )
        else:
            print(
                f"  gen {entry['generation']:>4} {entry['file']:<20} "
                f"INVALID {entry.get('error', '')}"
            )
    verdict = "resumable" if any_valid else "NOT resumable"
    print(f"{args.dir}: {len(report)} generation(s), {verdict}")
    return 0 if any_valid else 1


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the tiering daemon under the deterministic virtual-time
    driver and report its SLO summary (see docs/API.md "Serving &
    overload protection")."""
    from repro.serve import ServeConfig, TieringDaemon, VirtualTimeDriver

    names = [n.strip() for n in args.workload.split(",")]
    factories: dict[str, WorkloadSpec] = {}
    for i, name in enumerate(names):
        factory = _spec("workload", name, args.seed)
        tenant = name if name not in factories else f"{name}-{i}"
        factories[tenant] = factory
    policy = _spec("policy", args.policy, args.seed)
    config = _config_from_args(args)
    try:
        serve = ServeConfig(
            queue_capacity=args.queue_capacity,
            backpressure=args.backpressure,
            tick_budget_ns=args.tick_budget_ns,
            max_batches_per_tick=args.max_batches_per_tick,
            sample_only_stride=args.sample_stride,
            max_restarts=args.max_restarts,
            checkpoint_every_ticks=args.checkpoint_every,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    with trace_to(args.trace) as tracer:
        try:
            daemon = TieringDaemon(
                factories,
                policy,
                config,
                serve=serve,
                tracer=tracer,
                faults=_faults_from_args(args),
                checkpoint_dir=args.checkpoint_dir,
            )
        except ValueError as exc:  # e.g. a directory of earlier generations
            raise SystemExit(str(exc)) from None
        driver = VirtualTimeDriver(
            daemon, arrivals=args.arrivals, max_offers=args.offers
        )
        if args.rounds > 0:
            driver.run(args.rounds)
            daemon.drain()
            daemon.finalize()
        else:
            driver.finish()
    payload = daemon.slo_summary()
    payload["restarts_recovered"] = driver.restarts_seen
    if args.json:
        print(json.dumps(payload, default=str))
    else:
        rows = [[k, v] for k, v in payload.items()]
        print(format_rows(["metric", "value"], rows))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    workload = _spec("workload", args.workload, args.seed)
    policy = _cell_policy(args.policy, args.seed)
    fractions = [float(f) for f in args.fractions.split(",")]
    # Submit every (policy, all-local) pair across all fractions as one
    # batch, so --jobs parallelizes the whole sweep and --cache-dir
    # skips already-computed points.
    executor = _executor_from_args(args)
    faults = _faults_from_args(args)
    machine = _config_from_args(args)
    cells = []
    for frac in fractions:
        config = dataclasses.replace(machine, local_fraction=frac)
        cells.append(
            CellSpec(workload, policy, config, label=str(frac), faults=faults)
        )
        cells.append(
            CellSpec(
                workload, None, config, label=f"{frac}-base", faults=faults
            )
        )
    with _maybe_profile(args, "repro-sweep"):
        cell_results = executor.run(cells)
    rows = []
    payload = {}
    num_failed = sum(isinstance(res, FailedCell) for res in cell_results)
    for i, frac in enumerate(fractions):
        result, base = cell_results[2 * i], cell_results[2 * i + 1]
        if isinstance(result, FailedCell) or isinstance(base, FailedCell):
            failed = result if isinstance(result, FailedCell) else base
            print(
                f"fraction {frac}: cell {failed.label!r} FAILED after "
                f"{failed.attempts} attempt(s): {failed.error}",
                file=sys.stderr,
            )
            rows.append([f"{frac:.2%}", "FAILED", "-", "-"])
            payload[str(frac)] = {"failed": True, "error": failed.error}
            continue
        rel = result.relative_to(base)["throughput"]
        rows.append(
            [
                f"{frac:.2%}",
                f"{rel:.1%}" if rel else "-",
                f"{result.steady_hit_ratio:.1%}",
                result.pages_migrated,
            ]
        )
        payload[str(frac)] = _result_dict(result)
    if args.json:
        print(json.dumps(payload, default=str))
    else:
        print(
            format_rows(
                ["%local", "%all-local thr", "hit ratio", "migrated"], rows
            )
        )
    return _partial_exit_code(args, num_failed)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli", description="FreqTier/HybridTier experiment runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list workloads and policies")
    p_list.add_argument("--json", action="store_true")
    p_list.set_defaults(func=cmd_list)

    p_run = sub.add_parser("run", help="run one experiment cell")
    p_run.add_argument("--workload", required=True)
    _add_machine_args(p_run)
    _add_fault_args(p_run)
    p_run.add_argument("--policy", required=True)
    p_run.add_argument(
        "--baseline",
        action="store_true",
        help="also run the all-local baseline and report %%all-local",
    )
    p_run.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a JSONL event trace of the run to PATH",
    )
    p_run.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="write rotated, integrity-checked state snapshots to DIR",
    )
    p_run.add_argument(
        "--checkpoint-every",
        type=_nonneg_int,
        default=25,
        metavar="N",
        help="snapshot every N batches (default 25; needs --checkpoint-dir)",
    )
    p_run.add_argument(
        "--resume",
        action="store_true",
        help="restore the newest valid snapshot in --checkpoint-dir "
        "before running (fresh start if none exists)",
    )
    p_run.add_argument(
        "--profile",
        action="store_true",
        help="cProfile the run; pstats dump lands next to --trace "
        "(<trace>.pstats) or at ./repro-run.pstats",
    )
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="compare several policies")
    p_cmp.add_argument("--workload", required=True)
    _add_machine_args(p_cmp)
    _add_exec_args(p_cmp)
    _add_fault_args(p_cmp)
    p_cmp.add_argument(
        "--policies",
        default=None,
        help="comma-separated policy names (default: the paper line-up)",
    )
    p_cmp.add_argument(
        "--report", default=None, help="also write a markdown report here"
    )
    p_cmp.add_argument(
        "--trace",
        default=None,
        metavar="DIR",
        help="write one JSONL event trace per cell under DIR "
        "(cache hits record a single cache_hit event)",
    )
    p_cmp.add_argument(
        "--profile",
        action="store_true",
        help="cProfile this process (cells run here only with --jobs 1); "
        "pstats dump lands in the --trace dir or at "
        "./repro-compare.pstats",
    )
    p_cmp.set_defaults(func=cmd_compare)

    p_trace = sub.add_parser("trace", help="inspect JSONL trace files")
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_sum = trace_sub.add_parser(
        "summarize",
        help="event counts, state/level timeline, adaptation latencies",
    )
    p_sum.add_argument("path", help="JSONL trace file")
    p_sum.add_argument("--json", action="store_true")
    p_sum.set_defaults(func=cmd_trace_summarize)
    p_val = trace_sub.add_parser(
        "validate", help="check every line against the event schema"
    )
    p_val.add_argument("path", help="JSONL trace file")
    p_val.add_argument("--json", action="store_true")
    p_val.set_defaults(func=cmd_trace_validate)

    p_ckpt = sub.add_parser("checkpoint", help="inspect checkpoint state")
    ckpt_sub = p_ckpt.add_subparsers(dest="checkpoint_command", required=True)
    p_ins = ckpt_sub.add_parser(
        "inspect",
        help="verify every snapshot generation in a checkpoint directory",
    )
    p_ins.add_argument("dir", help="checkpoint directory")
    p_ins.add_argument("--json", action="store_true")
    p_ins.set_defaults(func=cmd_checkpoint_inspect)

    p_serve = sub.add_parser(
        "serve",
        help="run the tiering daemon (bounded queues, deadline "
        "budgets, degradation ladder, watchdog) under the "
        "deterministic virtual-time driver",
    )
    p_serve.add_argument(
        "--workload",
        required=True,
        help="comma-separated workload names; each becomes one tenant "
        "with its own bounded queue",
    )
    p_serve.add_argument("--policy", required=True)
    # Streams run until --offers; 0 = no batch limit.
    _add_machine_args(p_serve, batches=0, batches_help=argparse.SUPPRESS)
    _add_fault_args(p_serve)
    p_serve.add_argument(
        "--offers",
        type=_nonneg_int,
        default=200,
        metavar="N",
        help="batches each tenant's stream supplies in total (default 200)",
    )
    p_serve.add_argument(
        "--arrivals",
        type=_nonneg_int,
        default=2,
        metavar="N",
        help="batches offered per tenant per driver round (default 2)",
    )
    p_serve.add_argument(
        "--rounds",
        type=_nonneg_int,
        default=0,
        metavar="N",
        help="driver rounds to run before draining (default 0 = run "
        "until every stream is exhausted and drained)",
    )
    p_serve.add_argument(
        "--queue-capacity", type=int, default=64, metavar="N",
        help="bounded per-tenant queue depth (default 64)",
    )
    p_serve.add_argument(
        "--backpressure",
        choices=("block", "shed-oldest", "reject"),
        default="shed-oldest",
        help="full-queue behaviour (default shed-oldest)",
    )
    p_serve.add_argument(
        "--tick-budget-ns", type=float, default=0.0, metavar="NS",
        help="per-tick policy overhead budget in simulated ns "
        "(default 0 = no deadline)",
    )
    p_serve.add_argument(
        "--max-batches-per-tick", type=int, default=8, metavar="N",
        help="batches serviced per tick at most (default 8)",
    )
    p_serve.add_argument(
        "--sample-stride", type=int, default=4, metavar="N",
        help="policy runs every Nth batch in sample_only mode (default 4)",
    )
    p_serve.add_argument(
        "--max-restarts", type=_nonneg_int, default=3, metavar="N",
        help="watchdog restarts allowed before giving up (default 3)",
    )
    p_serve.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="durable daemon checkpoints (engine + serving state) "
        "under DIR, which must hold none yet; the watchdog restores "
        "the newest valid one",
    )
    p_serve.add_argument(
        "--checkpoint-every",
        type=_nonneg_int,
        default=0,
        metavar="N",
        help="checkpoint every N ticks (default 0 = final drain "
        "checkpoint only; needs --checkpoint-dir)",
    )
    p_serve.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a JSONL event trace of the serving run to PATH",
    )
    p_serve.set_defaults(func=cmd_serve)

    p_sweep = sub.add_parser("sweep", help="sweep local DRAM fractions")
    p_sweep.add_argument("--workload", required=True)
    _add_machine_args(p_sweep)
    _add_exec_args(p_sweep)
    _add_fault_args(p_sweep)
    p_sweep.add_argument("--policy", required=True)
    p_sweep.add_argument(
        "--fractions",
        default="0.03,0.06,0.12,0.24",
        help="comma-separated local fractions",
    )
    p_sweep.add_argument(
        "--profile",
        action="store_true",
        help="cProfile this process (cells run here only with --jobs 1); "
        "pstats dump lands at ./repro-sweep.pstats",
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_rec = sub.add_parser("record", help="record a version-1 trace file")
    p_rec.add_argument("--workload", required=True)
    _add_machine_args(p_rec)
    p_rec.add_argument("--out", required=True, help="output trace file path")
    p_rec.set_defaults(func=cmd_record)

    p_rep = sub.add_parser("replay", help="replay a recorded trace")
    p_rep.add_argument(
        "--trace",
        dest="trace_file",
        required=True,
        help="version-1 trace file written by record",
    )
    p_rep.add_argument("--policy", required=True)
    _add_machine_args(p_rep, batches=0)
    # run's body reads these run-only flags.
    p_rep.set_defaults(
        func=cmd_replay,
        trace=None,
        baseline=False,
        checkpoint_dir=None,
        resume=False,
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SnapshotError as exc:  # a checkpoint this release cannot resume
        raise SystemExit(str(exc)) from None


if __name__ == "__main__":
    sys.exit(main())
