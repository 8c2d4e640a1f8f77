"""Metrics collection and the experiment result object.

Keeps one row per simulated batch in numeric columns, then reduces
them to the quantities the paper reports:

- **P50 op latency** -- median per-operation latency across
  steady-state batches (paper: P50 GET latency);
- **throughput** -- steady-state operations per simulated second;
- **local-DRAM hit ratio** -- overall and per-window timeline (Figs. 9
  and 11);
- **traffic breakdown** -- local/CXL/migration byte shares (Fig. 2);
- **per-label runtimes** -- simulated time per trial/round label
  (Tables IV and V report per-trial and per-round averages);
- ``%all-local`` via :meth:`ExperimentResult.relative_to`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.memsim.costmodel import BatchCost

#: Column layout of the collector's numeric storage (and of its
#: checkpoint, ahead of the labels).
_COLUMNS: tuple[tuple[str, type], ...] = (
    ("start_ns", np.float64),
    ("duration_ns", np.float64),
    ("num_ops", np.float64),
    ("num_accesses", np.int64),
    ("local_accesses", np.int64),
    ("cxl_accesses", np.int64),
    ("pages_migrated", np.int64),
    ("overhead_ns", np.float64),
)


class MetricsCollector:
    """The per-batch run history, one row per simulated batch.

    Storage is columnar: one grow-doubling numpy array per numeric
    field plus an ``int32`` label-code column into a label vocabulary,
    so a batch costs a handful of scalar stores and no Python object.
    :meth:`column` gives read-only views; :meth:`finalize` reduces the
    columns to an :class:`ExperimentResult`.  Checkpoints keep the same
    layout: the numeric columns, the vocabulary sorted, and the codes
    into it.
    """

    def __init__(self):
        self._n = 0
        self._cap = 0
        self._cols: dict[str, np.ndarray] = {
            name: np.empty(0, dtype=dtype) for name, dtype in _COLUMNS
        }
        self._codes = np.empty(0, dtype=np.int32)
        #: Labels by code, and the code of each label.
        self._vocab: list[str] = []
        self._code_of: dict[str, int] = {}

    def __len__(self) -> int:
        return self._n

    def column(self, name: str) -> np.ndarray:
        """Read-only view of one numeric column (a :data:`_COLUMNS`
        name), one entry per batch recorded so far."""
        view = self._cols[name][: self._n]
        view.flags.writeable = False
        return view

    def _grow(self) -> None:
        new_cap = max(1024, 2 * self._cap)
        for name, dtype in _COLUMNS:
            grown = np.empty(new_cap, dtype=dtype)
            grown[: self._n] = self._cols[name][: self._n]
            self._cols[name] = grown
        codes = np.empty(new_cap, dtype=np.int32)
        codes[: self._n] = self._codes[: self._n]
        self._codes = codes
        self._cap = new_cap

    def record_batch(
        self,
        start_ns: float,
        cost: BatchCost,
        num_ops: float,
        local_accesses: int,
        cxl_accesses: int,
        pages_migrated: int,
        label: str = "",
    ) -> None:
        if self._n == self._cap:
            self._grow()
        i = self._n
        cols = self._cols
        cols["start_ns"][i] = start_ns
        cols["duration_ns"][i] = cost.total_ns
        cols["num_ops"][i] = num_ops
        cols["num_accesses"][i] = local_accesses + cxl_accesses
        cols["local_accesses"][i] = local_accesses
        cols["cxl_accesses"][i] = cxl_accesses
        cols["pages_migrated"][i] = pages_migrated
        cols["overhead_ns"][i] = cost.overhead_ns
        code = self._code_of.get(label)
        if code is None:
            code = self._code_of[label] = len(self._vocab)
            self._vocab.append(label)
        self._codes[i] = code
        self._n = i + 1

    # -- checkpointing -----------------------------------------------------

    def state_dict(self) -> dict:
        """The history as columns: copies, so later batches cannot
        mutate a captured state.  The vocabulary is stored sorted."""
        n = self._n
        state: dict = {
            name: self._cols[name][:n].copy() for name, __ in _COLUMNS
        }
        order = sorted(range(len(self._vocab)), key=self._vocab.__getitem__)
        rank = np.empty(len(order), dtype=np.int32)
        rank[order] = np.arange(len(order), dtype=np.int32)
        state["label_vocab"] = [self._vocab[code] for code in order]
        state["label_codes"] = rank[self._codes[:n]]
        return state

    def load_state(self, state: dict) -> None:
        codes = np.array(state["label_codes"], dtype=np.int32)
        n = len(codes)
        cols = {
            name: np.array(state[name], dtype=dtype) for name, dtype in _COLUMNS
        }
        for name, col in cols.items():
            if col.shape != (n,):
                raise ValueError(
                    f"metrics column {name!r} has shape {col.shape}, "
                    f"expected ({n},)"
                )
        vocab = list(state["label_vocab"])
        if n and not 0 <= codes.min() <= codes.max() < len(vocab):
            raise ValueError(
                f"metrics label codes fall outside the {len(vocab)}-label "
                "vocabulary"
            )
        self._cols = cols
        self._codes = codes
        self._n = self._cap = n
        self._vocab = vocab
        self._code_of = {label: code for code, label in enumerate(vocab)}

    def finalize(
        self,
        policy_name: str,
        workload_name: str,
        traffic_breakdown: dict[str, float],
        migration_bytes: int,
        warmup_fraction: float = 0.25,
        policy_stats: dict[str, float] | None = None,
    ) -> "ExperimentResult":
        """Reduce the history to an :class:`ExperimentResult`.

        Batches starting before ``warmup_fraction`` of the total time
        are warmup (all batches count when none is left).  Sums run
        in batch order (Python ``sum`` over the column's values, or
        ``np.bincount``), never pairwise, so results do not depend on
        how the history is stored.
        """
        n = self._n
        if not n:
            raise ValueError("cannot reduce an empty history")
        cols = {name: col[:n] for name, col in self._cols.items()}
        start, duration, ops = cols["start_ns"], cols["duration_ns"], cols["num_ops"]
        local, cxl = cols["local_accesses"], cols["cxl_accesses"]
        end = start + duration
        total_time = float(end[-1])
        steady = start >= total_time * warmup_fraction
        if not steady.any():
            steady[:] = True
        first, last = np.flatnonzero(steady)[[0, -1]]

        # A batch without operations has no per-op latency.
        timed = ~(ops <= 0)
        latency = duration[timed] / ops[timed]
        steady_latency = latency[steady[timed]]
        p50 = float(np.median(steady_latency)) if len(steady_latency) else None

        steady_ops = sum(ops[steady].tolist())
        steady_span = float(end[last]) - float(start[first])
        throughput = (
            steady_ops / (steady_span / 1e9) if steady_span > 0 and steady_ops else None
        )

        total_local = sum(local.tolist())
        total_cxl = sum(cxl.tolist())
        s_local = sum(local[steady].tolist())
        s_cxl = sum(cxl[steady].tolist())

        # A batch without accesses has no hit ratio.
        hit_timeline = [
            (t, hits / (hits + misses))
            for t, hits, misses in zip(end.tolist(), local.tolist(), cxl.tolist())
            if hits + misses
        ]

        # Labels in order of first appearance, whatever the code order.
        codes = self._codes[:n]
        per_code = np.bincount(codes, weights=duration, minlength=len(self._vocab))
        present, first_seen = np.unique(codes, return_index=True)
        per_label = {}
        for code in present[np.argsort(first_seen)].tolist():
            if label := self._vocab[code]:
                per_label[label] = float(per_code[code])

        return ExperimentResult(
            policy_name=policy_name,
            workload_name=workload_name,
            total_time_ns=total_time,
            steady_p50_latency_ns=p50,
            steady_throughput_ops_per_s=throughput,
            overall_hit_ratio=total_local / max(total_local + total_cxl, 1),
            steady_hit_ratio=s_local / max(s_local + s_cxl, 1),
            traffic_breakdown=dict(traffic_breakdown),
            migration_bytes=migration_bytes,
            pages_migrated=sum(cols["pages_migrated"].tolist()),
            total_ops=sum(ops.tolist()),
            total_accesses=sum(cols["num_accesses"].tolist()),
            hit_ratio_timeline=hit_timeline,
            latency_timeline=list(zip(end[timed].tolist(), latency.tolist())),
            time_per_label_ns=per_label,
            policy_stats=policy_stats or {},
        )


@dataclass
class ExperimentResult:
    """Reduced metrics for one experiment cell."""

    policy_name: str
    workload_name: str
    total_time_ns: float
    steady_p50_latency_ns: float | None
    steady_throughput_ops_per_s: float | None
    overall_hit_ratio: float
    steady_hit_ratio: float
    traffic_breakdown: dict[str, float]
    migration_bytes: int
    pages_migrated: int
    total_ops: float
    total_accesses: int
    #: (end_time_ns, windowed hit ratio) timeline points.
    hit_ratio_timeline: list[tuple[float, float]] = field(default_factory=list)
    #: (end_time_ns, per-op latency ns) timeline points.
    latency_timeline: list[tuple[float, float]] = field(default_factory=list)
    #: Simulated time per batch label (e.g. GAP trials, XGBoost rounds).
    time_per_label_ns: dict[str, float] = field(default_factory=dict)
    policy_stats: dict[str, float] = field(default_factory=dict)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict[str, object]:
        """JSON-serializable dict that round-trips via :meth:`from_dict`.

        Timeline tuples become 2-element lists (JSON has no tuples);
        everything else is already plain python scalars/dicts.
        """
        return {
            "policy_name": self.policy_name,
            "workload_name": self.workload_name,
            "total_time_ns": self.total_time_ns,
            "steady_p50_latency_ns": self.steady_p50_latency_ns,
            "steady_throughput_ops_per_s": self.steady_throughput_ops_per_s,
            "overall_hit_ratio": self.overall_hit_ratio,
            "steady_hit_ratio": self.steady_hit_ratio,
            "traffic_breakdown": dict(self.traffic_breakdown),
            "migration_bytes": self.migration_bytes,
            "pages_migrated": self.pages_migrated,
            "total_ops": self.total_ops,
            "total_accesses": self.total_accesses,
            "hit_ratio_timeline": [list(p) for p in self.hit_ratio_timeline],
            "latency_timeline": [list(p) for p in self.latency_timeline],
            "time_per_label_ns": dict(self.time_per_label_ns),
            "policy_stats": dict(self.policy_stats),
        }

    @staticmethod
    def from_dict(data: dict[str, object]) -> "ExperimentResult":
        """Inverse of :meth:`to_dict` (bit-identical for JSON round-trips)."""
        fields = dict(data)
        fields["hit_ratio_timeline"] = [
            (float(t), float(v)) for t, v in fields.get("hit_ratio_timeline", [])
        ]
        fields["latency_timeline"] = [
            (float(t), float(v)) for t, v in fields.get("latency_timeline", [])
        ]
        return ExperimentResult(**fields)

    # -- derived ----------------------------------------------------------------

    def mean_time_per_label_ns(self, skip_fraction: float = 0.25) -> float | None:
        """Average simulated time per label, skipping leading labels.

        Reproduces the paper's GAP methodology: "average runtimes
        exclude the first 1/4 of trials, considered warmup".
        """
        if not self.time_per_label_ns:
            return None
        items = list(self.time_per_label_ns.values())
        skip = int(len(items) * skip_fraction)
        kept = items[skip:] or items
        return float(np.mean(kept))

    def relative_to(self, baseline: "ExperimentResult") -> dict[str, float | None]:
        """The paper's %all-local columns (higher is better for all).

        Latency and per-label time are inverted (baseline/self) so a
        slower system scores below 1.0, matching the tables.
        """
        out: dict[str, float | None] = {}
        if self.steady_p50_latency_ns and baseline.steady_p50_latency_ns:
            out["p50_latency"] = (
                baseline.steady_p50_latency_ns / self.steady_p50_latency_ns
            )
        else:
            out["p50_latency"] = None
        if self.steady_throughput_ops_per_s and baseline.steady_throughput_ops_per_s:
            out["throughput"] = (
                self.steady_throughput_ops_per_s
                / baseline.steady_throughput_ops_per_s
            )
        else:
            out["throughput"] = None
        mine = self.mean_time_per_label_ns()
        theirs = baseline.mean_time_per_label_ns()
        out["label_time"] = (theirs / mine) if mine and theirs else None
        return out

    def summary(self) -> dict[str, object]:
        """Flat dict for table printing."""
        return {
            "policy": self.policy_name,
            "workload": self.workload_name,
            "p50_latency_us": (
                self.steady_p50_latency_ns / 1e3
                if self.steady_p50_latency_ns is not None
                else None
            ),
            "throughput_mops": (
                self.steady_throughput_ops_per_s / 1e6
                if self.steady_throughput_ops_per_s is not None
                else None
            ),
            "hit_ratio": self.steady_hit_ratio,
            "migration_share": self.traffic_breakdown.get("migration", 0.0),
            "pages_migrated": self.pages_migrated,
        }
