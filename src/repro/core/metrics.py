"""Metrics collection and the experiment result object.

Collects one :class:`BatchRecord` per simulated batch, then reduces to
the quantities the paper reports:

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


@dataclass
class BatchRecord:
    """Everything remembered about one simulated batch."""

    start_ns: float
    duration_ns: float
    num_ops: float
    num_accesses: int
    local_accesses: int
    cxl_accesses: int
    pages_migrated: int
    overhead_ns: float
    label: str = ""

    @property
    def end_ns(self) -> float:
        return self.start_ns + self.duration_ns

    @property
    def per_op_latency_ns(self) -> float | None:
        if self.num_ops <= 0:
            return None
        return self.duration_ns / self.num_ops

    @property
    def hit_ratio(self) -> float | None:
        total = self.local_accesses + self.cxl_accesses
        if total == 0:
            return None
        return self.local_accesses / total


#: Column layout of the collector's storage, in BatchRecord field order.
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
    """Accumulates batch records during an engine run.

    Storage is columnar: one grow-doubling numpy array per numeric
    field plus a label list, so the per-batch cost is a handful of
    scalar stores instead of a dict/dataclass allocation.  Values pass
    through float64/int64 columns losslessly, and :attr:`records`
    materializes the familiar :class:`BatchRecord` list on demand (all
    consumers are read-only).  Checkpoints keep the same layout: the
    columns as ndarrays plus the labels as a sorted vocabulary and an
    ``int32`` code column, so a save costs a few bulk copies, not a
    Python dict per batch.
    """

    def __init__(self):
        self._n = 0
        self._cap = 0
        self._cols: dict[str, np.ndarray] = {
            name: np.empty(0, dtype=dtype) for name, dtype in _COLUMNS
        }
        self._labels: list[str] = []

    def __len__(self) -> int:
        return self._n

    @property
    def records(self) -> list[BatchRecord]:
        """All batch records so far (materialized copy; do not mutate)."""
        n = self._n
        cols = [self._cols[name][:n].tolist() for name, __ in _COLUMNS]
        return [
            BatchRecord(*values, label=self._labels[i])
            for i, values in enumerate(zip(*cols))
        ]

    def _grow(self) -> None:
        new_cap = max(1024, 2 * self._cap)
        for name, dtype in _COLUMNS:
            grown = np.empty(new_cap, dtype=dtype)
            grown[: self._n] = self._cols[name][: self._n]
            self._cols[name] = grown
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
        self._labels.append(label)
        self._n = i + 1

    # -- checkpointing -----------------------------------------------------

    def state_dict(self) -> dict:
        """The history as columns: copies, so later batches cannot
        mutate a captured state."""
        n = self._n
        state: dict = {
            name: self._cols[name][:n].copy() for name, __ in _COLUMNS
        }
        vocab = sorted(set(self._labels))
        code_of = {label: code for code, label in enumerate(vocab)}
        state["label_vocab"] = vocab
        state["label_codes"] = np.array(
            [code_of[label] for label in self._labels], dtype=np.int32
        )
        return state

    def load_state(self, state: dict) -> None:
        codes = np.asarray(state["label_codes"])
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
        self._cols = cols
        self._n = self._cap = n
        vocab = np.array(state["label_vocab"], dtype=object)
        self._labels = vocab[codes].tolist()

    def finalize(
        self,
        policy_name: str,
        workload_name: str,
        traffic_breakdown: dict[str, float],
        migration_bytes: int,
        warmup_fraction: float = 0.25,
        policy_stats: dict[str, float] | None = None,
    ) -> "ExperimentResult":
        # Materialize once at result build; the reduction itself is
        # unchanged, so finalized numbers are bit-identical to the
        # list-of-records implementation.
        return ExperimentResult.from_records(
            self.records,
            policy_name=policy_name,
            workload_name=workload_name,
            traffic_breakdown=traffic_breakdown,
            migration_bytes=migration_bytes,
            warmup_fraction=warmup_fraction,
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

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_records(
        records: list[BatchRecord],
        policy_name: str,
        workload_name: str,
        traffic_breakdown: dict[str, float],
        migration_bytes: int,
        warmup_fraction: float = 0.25,
        policy_stats: dict[str, float] | None = None,
    ) -> "ExperimentResult":
        if not records:
            raise ValueError("cannot reduce an empty record list")
        total_time = records[-1].end_ns
        cutoff = total_time * warmup_fraction
        steady = [r for r in records if r.start_ns >= cutoff] or records

        latencies = [
            lat for r in steady if (lat := r.per_op_latency_ns) is not None
        ]
        p50 = float(np.median(latencies)) if latencies else None

        steady_ops = sum(r.num_ops for r in steady)
        steady_span = steady[-1].end_ns - steady[0].start_ns
        throughput = (
            steady_ops / (steady_span / 1e9) if steady_span > 0 and steady_ops else None
        )

        total_local = sum(r.local_accesses for r in records)
        total_cxl = sum(r.cxl_accesses for r in records)
        overall_hit = total_local / max(total_local + total_cxl, 1)
        s_local = sum(r.local_accesses for r in steady)
        s_cxl = sum(r.cxl_accesses for r in steady)
        steady_hit = s_local / max(s_local + s_cxl, 1)

        hit_timeline = [
            (r.end_ns, hr) for r in records if (hr := r.hit_ratio) is not None
        ]
        lat_timeline = [
            (r.end_ns, lat)
            for r in records
            if (lat := r.per_op_latency_ns) is not None
        ]

        per_label: dict[str, float] = {}
        for r in records:
            if r.label:
                per_label[r.label] = per_label.get(r.label, 0.0) + r.duration_ns

        return ExperimentResult(
            policy_name=policy_name,
            workload_name=workload_name,
            total_time_ns=total_time,
            steady_p50_latency_ns=p50,
            steady_throughput_ops_per_s=throughput,
            overall_hit_ratio=overall_hit,
            steady_hit_ratio=steady_hit,
            traffic_breakdown=dict(traffic_breakdown),
            migration_bytes=migration_bytes,
            pages_migrated=sum(r.pages_migrated for r in records),
            total_ops=sum(r.num_ops for r in records),
            total_accesses=sum(r.num_accesses for r in records),
            hit_ratio_timeline=hit_timeline,
            latency_timeline=lat_timeline,
            time_per_label_ns=per_label,
            policy_stats=policy_stats or {},
        )

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
