"""Multi-host simulation over a shared CXL pool.

Each host owns a machine (its local DRAM + its current pool share), a
workload and a tiering policy; the simulation interleaves one batch
per host per round, reports pool usage, and periodically rebalances
grants.  A growing grant simply raises the host's CXL capacity; a
shrinking grant is clamped so that in-use pages are never revoked
(real pools drain before reclaiming).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.engine import SimulationEngine
from repro.core.metrics import ExperimentResult
from repro.memsim.machine import Machine, MachineConfig
from repro.memsim.tier import CXL1_CONFIG, TieredMemoryConfig
from repro.policies.base import TieringPolicy
from repro.pooling.pool import CXLPool
from repro.workloads.spec import Workload


@dataclass
class HostSpec:
    """Configuration of one pooled host."""

    name: str
    workload: Workload
    policy: TieringPolicy
    local_pages: int
    #: Initial pool grant; rebalancing adjusts it afterwards.
    initial_grant_pages: int


@dataclass
class _Host:
    spec: HostSpec
    machine: Machine
    engine: SimulationEngine
    batches: object  # iterator
    exhausted: bool = False


class MultiHostSimulation:
    """N hosts sharing one CXL pool, each running its own tiering."""

    def __init__(
        self,
        pool: CXLPool,
        hosts: list[HostSpec],
        memory: TieredMemoryConfig = CXL1_CONFIG,
        rebalance_interval_rounds: int = 20,
    ):
        if not hosts:
            raise ValueError("need at least one host")
        self.pool = pool
        self.memory = memory
        self.rebalance_interval = int(rebalance_interval_rounds)
        self._hosts: list[_Host] = []
        for spec in hosts:
            pool.register_host(spec.name, spec.initial_grant_pages)
            machine = Machine(
                MachineConfig(
                    local_capacity_pages=spec.local_pages,
                    cxl_capacity_pages=spec.initial_grant_pages,
                    memory=memory,
                )
            )
            engine = SimulationEngine(machine, spec.workload, spec.policy)
            engine.setup()
            self._hosts.append(
                _Host(
                    spec=spec,
                    machine=machine,
                    engine=engine,
                    batches=iter(spec.workload.batches()),
                )
            )
        self.rounds_run = 0
        #: (round, host, granted_pages) timeline of grant changes.
        self.grant_timeline: list[tuple[int, str, int]] = []

    # -- stepping -----------------------------------------------------------

    def run(self, rounds: int) -> dict[str, ExperimentResult]:
        """Advance every host by one batch per round, rebalancing
        periodically; returns per-host results."""
        for __ in range(rounds):
            if all(h.exhausted for h in self._hosts):
                break
            self._one_round()
            self.rounds_run += 1
            if self.rounds_run % self.rebalance_interval == 0:
                self._rebalance()
        return {
            h.spec.name: h.engine.finalize()
            for h in self._hosts
            if len(h.engine.metrics)
        }

    def _one_round(self) -> None:
        for host in self._hosts:
            if host.exhausted:
                continue
            try:
                batch = next(host.batches)
            except StopIteration:
                host.exhausted = True
                continue
            host.engine.step(batch)

    # -- pool management --------------------------------------------------------

    def _rebalance(self) -> None:
        for host in self._hosts:
            self.pool.report_usage(host.spec.name, host.machine.cxl_used_pages)
        deltas = self.pool.rebalance()
        for host in self._hosts:
            delta = deltas.get(host.spec.name, 0)
            if delta == 0:
                continue
            machine = host.machine
            new_capacity = machine.config.cxl_capacity_pages + delta
            # Never revoke in-use pages: clamp the shrink.
            new_capacity = max(new_capacity, machine.cxl_used_pages)
            actual_delta = new_capacity - machine.config.cxl_capacity_pages
            if actual_delta != delta:
                # Return the unclaimable portion to the pool grant.
                self.pool.share_of(host.spec.name).granted_pages += (
                    actual_delta - delta
                )
            machine.config.cxl_capacity_pages = new_capacity
            self.grant_timeline.append(
                (self.rounds_run, host.spec.name, new_capacity)
            )

    # -- introspection --------------------------------------------------------------

    def host_state(self) -> list[dict[str, object]]:
        return [
            {
                "host": h.spec.name,
                "batches": h.engine.batches_done,
                "local_used": h.machine.local_used_pages,
                "cxl_used": h.machine.cxl_used_pages,
                "cxl_granted": h.machine.config.cxl_capacity_pages,
                "hit_ratio": h.machine.traffic.local_hit_ratio,
            }
            for h in self._hosts
        ]
