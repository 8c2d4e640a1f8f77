"""Workload protocol.

Every workload allocates its data structures on a
:class:`~repro.memsim.machine.Machine` during :meth:`Workload.setup`
and then yields :class:`~repro.sampling.events.AccessBatch` objects
from :meth:`Workload.batches`.  The engine owns time; workloads only
describe *what* is touched and how much compute overlaps it.
"""

from __future__ import annotations

import abc
from collections.abc import Iterator

from repro.memsim.machine import Machine
from repro.sampling.events import AccessBatch
from repro.state.codec import Stateful


class Workload(Stateful, abc.ABC):
    """Base class for page-trace generators.

    Mutable generator state (RNGs, cursors, churn) is checkpointed by
    listing it in ``_state_fields`` (see
    :class:`~repro.state.codec.Stateful`): after
    ``w2.load_state(w1.state_dict())`` on an identically constructed
    workload, both draw identical batches.  Stateless workloads keep
    the empty default.  Resume does **not** use this today
    (generator-local state can't be captured); the engine
    fast-forwards ``batches()`` instead -- this contract exists for
    the round-trip property tests and external tools.
    """

    #: Human-readable workload name (appears in benchmark tables).
    name: str = "workload"

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._machine: Machine | None = None

    # -- lifecycle --------------------------------------------------------

    @property
    @abc.abstractmethod
    def footprint_pages(self) -> int:
        """Total pages the workload will allocate."""

    @abc.abstractmethod
    def setup(self, machine: Machine) -> None:
        """Allocate regions on ``machine``; must set ``self._machine``."""

    @abc.abstractmethod
    def batches(self) -> Iterator[AccessBatch]:
        """Yield the access stream.  May be finite (GAP/XGBoost trials)
        or unbounded (cache serving); the engine decides when to stop."""

    # -- helpers -----------------------------------------------------------

    @property
    def machine(self) -> Machine:
        if self._machine is None:
            raise RuntimeError(f"workload {self.name!r} used before setup()")
        return self._machine

    def describe(self) -> dict[str, object]:
        """Metadata for benchmark reports."""
        return {"name": self.name, "footprint_pages": self.footprint_pages}
