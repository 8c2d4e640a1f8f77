"""FreqTier / HybridTier: adaptive, lightweight CXL-memory tiering.

A full reproduction of *"Lightweight Frequency-Based Tiering for CXL
Memory Systems"* (the arXiv preprint of **HybridTier**, ASPLOS 2025):
the FreqTier tiering system, the AutoNUMA / TPP / HeMem baselines, and
a trace-driven tiered-memory simulator standing in for the paper's
emulated-CXL testbed.

Quickstart (``repro.paper`` holds the paper's cells at simulator
scale; ``import repro`` does not import it)::

    from repro import AutoNUMA, FreqTier, compare_policies, paper

    results = compare_policies(
        paper.workloads(1)["cdn"],
        {"FreqTier": FreqTier, "AutoNUMA": AutoNUMA},
        paper.config("cachelib", "1:32"),
    )
    print(results["FreqTier"].summary())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
per-table/figure reproduction index.
"""

from repro._units import (
    GiB,
    KiB,
    MiB,
    PAGE_SIZE,
    PAGES_PER_SIM_GB,
    SCALE_FACTOR,
    pages_to_sim_gb,
    sim_gb_to_pages,
)
from repro.cbf import (
    BlockedCountingBloomFilter,
    CountingBloomFilter,
    ExactFrequencyTracker,
    SampleCoalescer,
)
from repro.core import (
    CellSpec,
    ExperimentConfig,
    ExperimentResult,
    FailedCell,
    ParallelExecutor,
    PolicySpec,
    ResultCache,
    SimulationEngine,
    WorkloadSpec,
    compare_policies,
    run_all_local,
    run_experiment,
)
from repro.faults import (
    FAULT_PRESETS,
    FaultInjector,
    FaultPlan,
    InjectedCrash,
    parse_fault_spec,
)
from repro.obs import (
    JsonlTraceSink,
    ListSink,
    NULL_TRACER,
    Tracer,
    trace_to,
    validate_event,
)
from repro.memsim import (
    CXL1_CONFIG,
    CXL2_CONFIG,
    LOCAL_DRAM,
    Machine,
    MachineConfig,
    TieredMemoryConfig,
    TierSpec,
)
from repro.state import (
    CheckpointManager,
    LoadedCheckpoint,
    Snapshot,
    SnapshotError,
    SnapshotSchemaError,
)
from repro.policies import (
    AllLocal,
    AutoNUMA,
    FreqTier,
    FreqTierConfig,
    HeMem,
    HybridTier,
    MultiClock,
    StaticNoMigration,
    TPP,
)
from repro.serve import (
    ServeConfig,
    TieringDaemon,
    VirtualTimeDriver,
    WatchdogGaveUp,
)
from repro.workloads import (
    CacheLibWorkload,
    CDN_PROFILE,
    GapWorkload,
    SOCIAL_PROFILE,
    SyntheticZipfWorkload,
    XGBoostWorkload,
    ZipfianSampler,
)

__version__ = "1.0.0"

__all__ = [
    "AllLocal",
    "AutoNUMA",
    "BlockedCountingBloomFilter",
    "CacheLibWorkload",
    "CDN_PROFILE",
    "CellSpec",
    "CheckpointManager",
    "CountingBloomFilter",
    "CXL1_CONFIG",
    "CXL2_CONFIG",
    "ExactFrequencyTracker",
    "ExperimentConfig",
    "ExperimentResult",
    "FailedCell",
    "FAULT_PRESETS",
    "FaultInjector",
    "FaultPlan",
    "FreqTier",
    "FreqTierConfig",
    "InjectedCrash",
    "GapWorkload",
    "GiB",
    "HeMem",
    "HybridTier",
    "JsonlTraceSink",
    "KiB",
    "ListSink",
    "LoadedCheckpoint",
    "LOCAL_DRAM",
    "Machine",
    "MachineConfig",
    "MiB",
    "MultiClock",
    "NULL_TRACER",
    "PAGE_SIZE",
    "PAGES_PER_SIM_GB",
    "ParallelExecutor",
    "PolicySpec",
    "ResultCache",
    "SampleCoalescer",
    "SCALE_FACTOR",
    "ServeConfig",
    "SimulationEngine",
    "Snapshot",
    "SnapshotError",
    "SnapshotSchemaError",
    "SOCIAL_PROFILE",
    "StaticNoMigration",
    "SyntheticZipfWorkload",
    "TieredMemoryConfig",
    "TieringDaemon",
    "TierSpec",
    "TPP",
    "Tracer",
    "VirtualTimeDriver",
    "WatchdogGaveUp",
    "WorkloadSpec",
    "XGBoostWorkload",
    "ZipfianSampler",
    "compare_policies",
    "pages_to_sim_gb",
    "parse_fault_spec",
    "run_all_local",
    "run_experiment",
    "sim_gb_to_pages",
    "trace_to",
    "validate_event",
]
