"""One-call experiment facade.

Every benchmark and example builds on three calls:

- :func:`run_experiment` -- one (workload, policy, config) cell;
- :func:`run_all_local` -- the all-local upper bound for the same
  workload (paper Section VI-B);
- :func:`compare_policies` -- a whole table row: several policies on
  identical machines/workloads plus %all-local columns.

Workloads and policies are passed as zero-argument factories so each
cell gets fresh, identically-seeded instances.  :func:`run_experiment`
and :func:`run_all_local` run one cell inline; they are what
:func:`~repro.core.parallel.run_cell` calls.  :func:`compare_policies`
submits its cells to a :class:`~repro.core.parallel.ParallelExecutor`
-- the one given, else :func:`~repro.core.parallel.executor_from_env`'s
(inline ``jobs=1`` and uncached unless ``REPRO_JOBS`` /
``REPRO_CACHE_DIR`` say otherwise).  Factories that are
:class:`~repro.core.parallel.WorkloadSpec` /
:class:`~repro.core.parallel.PolicySpec` additionally let the cells
fan out across a process pool and be served from the result cache;
closure factories need ``jobs=1``.
"""

from __future__ import annotations

import os
from collections.abc import Callable

from repro.core.config import ExperimentConfig
from repro.core.engine import SimulationEngine
from repro.core.metrics import ExperimentResult
from repro.core.parallel import CellSpec, ParallelExecutor, executor_from_env
from repro.faults import FaultInjector, FaultPlan
from repro.memsim.machine import Machine, MachineConfig
from repro.memsim.tier import TieredMemoryConfig
from repro.obs import Tracer
from repro.policies.alllocal import AllLocal
from repro.policies.base import TieringPolicy
from repro.workloads.spec import Workload

WorkloadFactory = Callable[[], Workload]
PolicyFactory = Callable[[], TieringPolicy]


def build_injector(
    faults: FaultPlan | None, machine: Machine
) -> FaultInjector | None:
    """An injector for the plan, or None when nothing would inject."""
    if faults is None or not faults.active:
        return None
    return FaultInjector(faults, machine.config.total_capacity_pages)


def build_machine(
    footprint_pages: int, config: ExperimentConfig
) -> Machine:
    """Size a machine for one experiment cell.

    Local capacity is ``local_fraction x footprint`` (the paper's
    %local column); CXL capacity honours the 1:N ratio and is grown if
    needed so local + CXL can hold the whole footprint plus headroom
    for migration transients.
    """
    local = max(32, int(round(config.local_fraction * footprint_pages)))
    cxl = max(local * config.cxl_multiple, footprint_pages - local // 2)
    # Headroom: demotions must never fail for lack of CXL space.
    cxl = max(cxl, footprint_pages + local)
    return Machine(
        MachineConfig(
            local_capacity_pages=local,
            cxl_capacity_pages=cxl,
            memory=config.memory,
        )
    )


def build_all_local_machine(
    footprint_pages: int, memory: TieredMemoryConfig
) -> Machine:
    """A machine whose local DRAM holds the entire footprint."""
    return Machine(
        MachineConfig(
            local_capacity_pages=footprint_pages + 64,
            cxl_capacity_pages=64,
            memory=memory,
        )
    )


def run_experiment(
    workload_factory: WorkloadFactory,
    policy_factory: PolicyFactory,
    config: ExperimentConfig,
    tracer: Tracer | None = None,
    faults: FaultPlan | None = None,
    checkpoint_dir: str | os.PathLike | None = None,
    checkpoint_every_batches: int = 0,
    resume_from: str | os.PathLike | None = None,
) -> ExperimentResult:
    """Run one experiment cell inline and reduce its metrics.

    To run a cell through a result cache, a process pool or retries,
    submit a :class:`~repro.core.parallel.CellSpec` to a
    :class:`~repro.core.parallel.ParallelExecutor` instead (and trace
    it with ``CellSpec.trace_path``: tracer objects hold open sinks and
    do not cross process boundaries).

    A ``faults`` plan (see :mod:`repro.faults`) injects deterministic
    migration/sampling failures into the run; an inactive plan is
    equivalent to None, and results under an active plan are cached
    under a distinct fingerprint.

    Checkpointing: with ``checkpoint_dir`` and a positive
    ``checkpoint_every_batches``, the engine snapshots its full state
    every N batches (atomic, integrity-checked, rotated generations --
    see :class:`repro.state.CheckpointManager`).  With ``resume_from``
    pointing at such a directory, the run restores the newest *valid*
    snapshot and continues bit-identically; a missing or fully corrupt
    directory falls back to a fresh start, and a snapshot of another
    schema raises :class:`~repro.state.SnapshotSchemaError`.  Under an
    executor, set ``CellSpec.checkpoint_dir`` / ``checkpoint_every``
    instead (or use the executor's ``checkpoint_root``).
    """
    workload = workload_factory()
    machine = build_machine(workload.footprint_pages, config)
    policy = policy_factory()
    engine = SimulationEngine(
        machine,
        workload,
        policy,
        tracer=tracer,
        fault_injector=build_injector(faults, machine),
        checkpoint_manager=_checkpoint_manager(checkpoint_dir),
        checkpoint_every_batches=checkpoint_every_batches,
    )
    _maybe_resume(engine, resume_from)
    return engine.run(
        max_batches=config.max_batches,
        max_accesses=config.max_accesses,
        warmup_fraction=config.warmup_fraction,
    )


def _checkpoint_manager(checkpoint_dir: str | os.PathLike | None):
    if checkpoint_dir is None:
        return None
    from repro.state import CheckpointManager

    return CheckpointManager(checkpoint_dir)


def _maybe_resume(
    engine: SimulationEngine, resume_from: str | os.PathLike | None
) -> None:
    """Restore the newest valid snapshot under ``resume_from``, if any.

    A missing directory, or one holding no snapshot that verifies (none
    written yet, or all quarantined as corrupt), means a fresh start, so
    crash-retry loops need no existence checks.  A snapshot of another
    schema raises :class:`~repro.state.SnapshotSchemaError` instead: the
    run fails rather than start over from batch 0.
    """
    if resume_from is None:
        return
    from repro.state import CheckpointManager

    if not os.path.isdir(resume_from):
        return
    loaded = CheckpointManager(resume_from).load_latest()
    if loaded is not None:
        engine.restore_state(loaded.payload)


def run_all_local(
    workload_factory: WorkloadFactory,
    config: ExperimentConfig,
    tracer: Tracer | None = None,
    faults: FaultPlan | None = None,
) -> ExperimentResult:
    """The all-local upper bound for this workload and CXL device."""
    workload = workload_factory()
    machine = build_all_local_machine(workload.footprint_pages, config.memory)
    engine = SimulationEngine(
        machine,
        workload,
        AllLocal(),
        tracer=tracer,
        fault_injector=build_injector(faults, machine),
    )
    return engine.run(
        max_batches=config.max_batches,
        max_accesses=config.max_accesses,
        warmup_fraction=config.warmup_fraction,
    )


def compare_policies(
    workload_factory: WorkloadFactory,
    policy_factories: dict[str, PolicyFactory | None],
    config: ExperimentConfig,
    include_all_local: bool = True,
    executor: ParallelExecutor | None = None,
    trace_dir: str | None = None,
    faults: FaultPlan | None = None,
) -> dict[str, ExperimentResult]:
    """Run several policies on identical cells; adds 'AllLocal' if asked.

    Returns ``{policy_name: result}``; compute the paper's %all-local
    columns via ``result.relative_to(results["AllLocal"])``.  A
    ``None`` factory runs the all-local baseline under its name.

    All cells (baseline included) are submitted at once to ``executor``
    -- fanned across its process pool and served from its result cache
    where possible -- or, without one, to :func:`executor_from_env`'s
    (inline and uncached when ``REPRO_JOBS`` / ``REPRO_CACHE_DIR`` are
    unset).  Results do not depend on the executor (each cell seeds
    its own RNGs).

    With a ``trace_dir``, each cell writes its own JSONL event trace
    to ``<trace_dir>/<name>.jsonl`` (cache-served cells record a
    single ``cache_hit`` event).
    """
    def cell(name: str, policy: PolicyFactory | None) -> CellSpec:
        return CellSpec(
            workload_factory,
            policy,
            config,
            label=name,
            trace_path=(
                None
                if trace_dir is None
                else os.path.join(trace_dir, f"{name}.jsonl")
            ),
            faults=faults,
        )

    specs = [cell("AllLocal", None)] if include_all_local else []
    specs.extend(cell(name, f) for name, f in policy_factories.items())
    results = (executor or executor_from_env()).run(specs)
    return {spec.label: result for spec, result in zip(specs, results)}
