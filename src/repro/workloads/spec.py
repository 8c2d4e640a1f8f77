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

    The stream position is workload state: RNGs, cursors and churn are
    listed in ``_state_fields`` (see
    :class:`~repro.state.codec.Stateful`), and :meth:`batches` starts
    wherever that state says and updates it before each ``yield``.  So
    after ``w2.load_state(w1.state_dict())`` on an identically
    constructed workload, a fresh ``w2.batches()`` continues exactly
    where ``w1``'s stream stood.  Engine snapshots and the serving
    daemon's queue checkpoints carry this state; resume never
    regenerates the completed prefix.  A finite stream rewinds its
    position once exhausted, so the next ``batches()`` call starts
    over.  A workload that declares no state cannot resume mid-stream.
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
        """Yield the access stream from the current position.  May be
        finite (GAP/XGBoost trials) or unbounded (cache serving); the
        engine decides when to stop."""

    # -- stream position ---------------------------------------------------

    @property
    def position(self) -> int | None:
        """Batches the stream has yielded in its current pass, where the
        declared state counts them; ``None`` where it does not."""
        return None

    def load_position(self, state: dict, batches_done: int) -> None:
        """Continue from a snapshot's ``state``, captured after this
        stream had yielded ``batches_done`` batches.

        Raises ``ValueError`` rather than restart from the first batch
        when the workload cannot continue there: it declares no state,
        or its counted :attr:`position` disagrees with ``batches_done``.
        """
        if batches_done and not self._state_fields:
            raise ValueError(
                f"workload {self.name!r} declares no stream position, so "
                f"it cannot resume at batch {batches_done}"
            )
        self.load_state(state)
        position = self.position
        if position is not None and position != batches_done:
            raise ValueError(
                f"workload {self.name!r} is at batch {position} of its stream "
                f"but the snapshot was taken at batch {batches_done}"
            )

    # -- helpers -----------------------------------------------------------

    @property
    def machine(self) -> Machine:
        if self._machine is None:
            raise RuntimeError(f"workload {self.name!r} used before setup()")
        return self._machine

    def describe(self) -> dict[str, object]:
        """Metadata for benchmark reports."""
        return {"name": self.name, "footprint_pages": self.footprint_pages}
