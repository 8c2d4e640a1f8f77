"""Analytic timing model for the tiered machine.

The paper measures wall-clock latency and throughput on real hardware.
The simulator replaces the hardware with an explicit cost model that
converts what the memory system *does* (accesses serviced per tier,
pages migrated, policy overhead) into simulated nanoseconds.  The model
captures the three effects the paper's results hinge on:

1. **Latency**: each L3-missing access pays its tier's idle latency,
   overlapped across ``threads x mlp`` outstanding requests.
2. **Bandwidth**: a tier can move at most ``bandwidth_gbps`` bytes/ns;
   when demand (accesses + migration traffic) exceeds it, the tier's
   service time is its bandwidth floor instead of its latency bound.
   This is what makes the low-bandwidth CXL-2 device slow and what
   makes excessive migration traffic hurt (Fig. 2, Fig. 10).
3. **Interference**: page migrations also consume CPU (page copy +
   PTE updates, paper Section III Challenge 2), and each policy reports
   its own sampling/scanning tax.  This is why HeMem's accurate-but-
   heavy tracking loses to FreqTier despite good hit ratios.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._units import PAGE_SIZE
from repro.memsim.tier import TieredMemoryConfig
from repro.memsim.traffic import CACHE_LINE_BYTES


@dataclass(frozen=True)
class BatchCost:
    """Timing decomposition of one simulated batch."""

    cpu_ns: float
    local_mem_ns: float
    cxl_mem_ns: float
    migration_ns: float
    overhead_ns: float

    @property
    def total_ns(self) -> float:
        return (
            self.cpu_ns
            + self.local_mem_ns
            + self.cxl_mem_ns
            + self.migration_ns
            + self.overhead_ns
        )


@dataclass(frozen=True)
class CostModelParams:
    """Machine-level constants of the timing model."""

    #: Application worker threads (the paper pins 16).
    threads: int = 16
    #: Memory-level parallelism per thread (outstanding L3 misses).
    mlp: float = 8.0
    #: CPU time to migrate one page (copy + unmap/remap + TLB shootdown),
    #: consistent with kernel move_pages costs of ~1-2 us/page.
    migration_cpu_ns_per_page: float = 1500.0

    @property
    def effective_parallelism(self) -> float:
        return self.threads * self.mlp


class CostModel:
    """Converts batch activity into simulated time for one machine config."""

    def __init__(
        self,
        memory: TieredMemoryConfig,
        params: CostModelParams | None = None,
    ):
        self.memory = memory
        self.params = params or CostModelParams()

    # -- batch timing -----------------------------------------------------------

    def batch_cost(
        self,
        cpu_ns: float,
        local_accesses: int,
        cxl_accesses: int,
        pages_migrated: int = 0,
        overhead_ns: float = 0.0,
        bytes_per_access: float = float(CACHE_LINE_BYTES),
    ) -> BatchCost:
        """Simulated time for one batch of application work.

        ``cpu_ns`` is pure compute in single-thread ns (per-op
        instruction time x ops), spread across the worker threads;
        access counts are L3-missing loads/stores per tier;
        ``pages_migrated`` counts promotions + demotions completed
        during the batch; ``overhead_ns`` is the policy's own tax
        (sampling, CBF maintenance, scan reads, ...).
        """
        cpu_ns = cpu_ns / self.params.threads
        par = self.params.effective_parallelism
        # Each migrated page is read from one tier and written to the
        # other, so every tier sees PAGE_SIZE bytes per page moved.
        migration_bytes = pages_migrated * PAGE_SIZE

        local_bytes = local_accesses * bytes_per_access + migration_bytes
        cxl_bytes = cxl_accesses * bytes_per_access + migration_bytes

        # Per-tier time: the larger of the latency-limited and the
        # bandwidth-limited service time.  Queueing inflation is NOT
        # applied to durations -- with a fixed number of outstanding
        # requests the sustained rate is already capped by the
        # bandwidth floor, and double-counting queueing would let a
        # policy "beat" the all-local upper bound by splitting traffic.
        local_ns = max(
            local_accesses * self.memory.local.latency_ns / par,
            local_bytes / self.memory.local.bandwidth_bytes_per_ns,
        )
        cxl_ns = max(
            cxl_accesses * self.memory.cxl.latency_ns / par,
            cxl_bytes / self.memory.cxl.bandwidth_bytes_per_ns,
        )
        # The tiering runtime (sampling, table updates, scans, page
        # copies) occupies one of the shared cores (the paper pins the
        # runtime and the 16 app threads on the same 16 cores), so its
        # CPU time steals ~1/threads of wall time from the app.
        migration_ns = (
            pages_migrated
            * self.params.migration_cpu_ns_per_page
            / self.params.threads
        )
        overhead_ns = overhead_ns / self.params.threads

        return BatchCost(
            cpu_ns=cpu_ns,
            local_mem_ns=local_ns,
            cxl_mem_ns=cxl_ns,
            migration_ns=migration_ns,
            overhead_ns=overhead_ns,
        )
