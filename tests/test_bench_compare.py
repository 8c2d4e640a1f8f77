"""Tests for the base-vs-head benchmark gate's decision rule.

The gate lives in ``scripts/`` (not a package), so it is loaded via
importlib.  The rule is tested on made-up per-run records and a fake
runner, without running the benchmark itself.
"""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).parent.parent
END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

#: A base run's end-to-end metrics.
BASE = {
    "setup_s": 0.5,
    "sim_batches_per_s": 1000.0,
    "peak_rss_mb": 250.0,
    "tick_p50_ms": 0.4,
    "tick_tail_ms": 2.0,
    "restart_s": 0.01,
    "hit_ratio": 0.9,
    "rel_perf": 0.9,
    "served_frac": 1.0,
}
#: Run-to-run noise of the ten pairs (IQR about 2.5% of the value).
NOISE = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.015, 0.985, 1.005]


@pytest.fixture(scope="module")
def gate():
    path = ROOT / "scripts" / "bench_compare.py"
    spec = importlib.util.spec_from_file_location("bench_compare", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def record(metrics: dict, correct: bool = True, attempted: int = 100, failed: int = 0):
    units = {spec["name"]: spec["unit"] for spec in END_TO_END}
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }


def runs(**scaled) -> list[dict]:
    """Ten noisy runs of ``BASE``; ``scaled[name]`` is a list of ten
    factors applied on top of the noise to that metric."""
    out = []
    for i, noise in enumerate(NOISE):
        metrics = {name: value * noise for name, value in BASE.items()}
        for name, factors in scaled.items():
            metrics[name] *= factors[i]
        out.append(record(metrics))
    return out


def failures(gate, workload: str, base: list[dict], head: list[dict]) -> list[str]:
    return gate.verdict(workload, base, head, END_TO_END)[1]


def set_values(records: list[dict], name: str, values: list[float]) -> list[dict]:
    for r, value in zip(records, values):
        r["metrics"][name]["value"] = value
    return records


#: Run-to-run factors with an IQR of 37.5% of their median, wider than
#: the 25% bound of the timing metrics.
WIDE = [0.7, 1.3, 0.8, 1.2, 0.75, 1.25, 0.9, 1.1, 0.85, 1.15]


def losing(factor: float, losses: int) -> list[float]:
    """Factors under which a higher-is-better metric loses ``losses``
    pairs by ``factor`` and wins the rest by as much."""
    return [factor] * losses + [1.0 / factor] * (10 - losses)


def test_mixed_wins_inside_every_bound_pass(gate):
    head = runs(
        sim_batches_per_s=[0.95, 1.04] * 5,
        tick_p50_ms=[1.06, 0.97] * 5,
        hit_ratio=[0.99, 1.01] * 5,
    )
    assert failures(gate, "w", runs(), head) == []


def test_median_past_the_bound_fails(gate):
    head = runs(sim_batches_per_s=[0.7] * 10)
    tripped = failures(gate, "cdn_grid", runs(), head)
    assert any("cdn_grid sim_batches_per_s" in f and "bound" in f for f in tripped)


def test_bound_applies_to_lower_is_better_metrics(gate):
    head = runs(peak_rss_mb=[1.3] * 10)
    tripped = failures(gate, "w", runs(), head)
    assert any("peak_rss_mb" in f and "bound" in f for f in tripped)


def test_nine_losses_beyond_the_iqr_fail(gate):
    head = runs(sim_batches_per_s=losing(0.9, 9))
    tripped = failures(gate, "cdn_grid", runs(), head)
    assert len(tripped) == 1
    assert "cdn_grid sim_batches_per_s: head lost 9 of 10 pairs" in tripped[0]


def test_eight_losses_pass(gate):
    head = runs(sim_batches_per_s=losing(0.9, 8))
    assert failures(gate, "cdn_grid", runs(), head) == []


def test_losses_inside_the_iqr_pass(gate):
    # Ten losses by 0.5% each: the median moves less than the base's IQR.
    head = runs(sim_batches_per_s=[0.995] * 10)
    assert failures(gate, "w", runs(), head) == []


def test_ties_count_for_neither_side(gate):
    # Eight losses and two ties: not nine losses, so the pair rule holds.
    base = runs()
    head = runs(tick_p50_ms=[1.1] * 8 + [1.0] * 2)
    assert failures(gate, "w", base, head) == []
    # Nine losses and one tie trip it.
    head = runs(tick_p50_ms=[1.1] * 9 + [1.0])
    tripped = failures(gate, "w", base, head)
    assert len(tripped) == 1 and "tick_p50_ms: head lost 9 of 10" in tripped[0]


def test_ratio_shift_inside_its_bound_passes(gate):
    # Every pair shifted by the same amount: ten losses, far past the
    # base's IQR, but a ratio metric only answers to its bound.
    head = runs(hit_ratio=[0.95] * 10, rel_perf=[0.95] * 10, served_frac=[0.99] * 10)
    assert failures(gate, "w", runs(), head) == []
    # The same shift on a timing metric is a regression.
    head = runs(setup_s=[1.0 / 0.95] * 10)
    assert failures(gate, "w", runs(), head)


def test_memory_shift_inside_its_bound_passes(gate):
    # Peak RSS a few KiB higher in every pair: ten losses past an IQR
    # of almost nothing, but memory only answers to its bound.
    base = set_values(runs(), "peak_rss_mb", [55.60] * 10)
    head = set_values(runs(), "peak_rss_mb", [55.62] * 10)
    assert failures(gate, "serve_chaos", base, head) == []


def test_ratio_past_its_bound_fails(gate):
    head = runs(served_frac=[0.9] * 10)
    tripped = failures(gate, "serve_chaos", runs(), head)
    assert any("serve_chaos served_frac" in f for f in tripped)


def test_wide_base_spread_leaves_the_bound_unresolved(gate):
    # The head's median is 30% worse, past the 25% bound, but the base's
    # own runs spread wider than that: unresolved, not a failure.
    base = set_values(runs(), "restart_s", [0.01 * f for f in WIDE])
    head = set_values(runs(), "restart_s", [0.013 * f for f in WIDE])
    summaries, tripped = gate.verdict("serve_chaos", base, head, END_TO_END)
    assert tripped == []
    [line] = [s for s in summaries if "restart_s" in s]
    assert "+30.0%" in line and "unresolved: run IQR" in line and "> 25% bound" in line
    assert all("unresolved" not in s for s in summaries if "restart_s" not in s)


def test_wide_head_spread_leaves_the_bound_unresolved(gate):
    # Identical code can read a calm stretch on one side and a noisy one
    # on the other; the noisier side's spread decides.
    base = set_values(runs(), "tick_p50_ms", [0.5] * 10)
    head = set_values(runs(), "tick_p50_ms", [0.65 * f for f in WIDE])
    summaries, tripped = gate.verdict("serve_chaos", base, head, END_TO_END)
    assert tripped == []
    [line] = [s for s in summaries if "tick_p50_ms" in s]
    assert "+30.0%" in line and "unresolved" in line


def test_wide_base_spread_fails_when_every_head_run_is_worse(gate):
    base = set_values(runs(), "restart_s", [0.01 * f for f in WIDE])
    head = set_values(runs(), "restart_s", [0.0135] * 10)
    assert failures(gate, "serve_chaos", base, head) == [
        "serve_chaos restart_s: median 0.0135 against 0.01, 35.0% worse, past the 25% bound"
    ]


def test_incorrect_head_run_fails(gate):
    head = runs()
    head[3]["correct"] = False
    tripped = failures(gate, "gap_graph", runs(), head)
    assert tripped == ["gap_graph: head run 4 incorrect: output checks failed"]


def test_larger_failed_share_fails(gate):
    head = runs()
    head[0]["failed"] = 1
    tripped = failures(gate, "w", runs(), head)
    assert tripped == ["w: head failed 0.10% of operations, base 0.00%"]
    # The base's own share is the yardstick.
    base = runs()
    base[5]["failed"] = 1
    assert failures(gate, "w", base, head) == []


class FakeRunner:
    """Serves prepared records in order and logs the calls."""

    def __init__(self, base: dict, head: dict):
        self.queues = {"base": base, "head": head}
        self.calls = []

    def __call__(self, side: str, workload: str) -> dict:
        self.calls.append((side, workload))
        return self.queues[side][workload].pop(0)


def test_run_order_alternates(gate):
    assert [gate.run_order(p) for p in range(4)] == [
        ("base", "head"), ("head", "base"), ("base", "head"), ("head", "base"),
    ]
    runner = FakeRunner({"a": runs(), "b": runs()}, {"a": runs(), "b": runs()})
    assert gate.gate(["a", "b"], END_TO_END, runner) == 0
    assert len(runner.calls) == 4 * gate.PAIRS
    assert runner.calls[:8] == [
        ("base", "a"), ("head", "a"), ("base", "b"), ("head", "b"),
        ("head", "a"), ("base", "a"), ("head", "b"), ("base", "b"),
    ]


def test_gate_exit_one_on_a_failing_head(gate, capsys):
    head = runs()
    head[7] = {"correct": False, "error": "exit 1: Traceback"}
    runner = FakeRunner({"a": runs()}, {"a": head})
    assert gate.gate(["a"], END_TO_END, runner) == 1
    out = capsys.readouterr().out
    assert "FAIL a: head run 8 incorrect: exit 1: Traceback" in out
    assert out.rstrip().endswith("head fails")


def test_gate_exit_one_names_the_regressed_metric(gate, capsys):
    runner = FakeRunner(
        {"cdn_grid": runs()}, {"cdn_grid": runs(sim_batches_per_s=[0.8] * 10)}
    )
    assert gate.gate(["cdn_grid"], END_TO_END, runner) == 1
    out = capsys.readouterr().out
    assert "FAIL cdn_grid sim_batches_per_s" in out
    # One summary line per reported metric.
    summaries = [ln for ln in out.splitlines() if ln.startswith("cdn_grid ")]
    assert len(summaries) == len(BASE)


@pytest.mark.parametrize("broken", [
    {"correct": False, "error": "exit 1: ImportError"},
    {"correct": False, "attempted": 10, "failed": 0, "metrics": {}},
])
def test_broken_base_run_stops_with_exit_two(gate, capsys, broken):
    base = runs()
    base[1] = broken
    runner = FakeRunner({"a": runs(), "b": base}, {"a": runs(), "b": runs()})
    assert gate.gate(["a", "b"], END_TO_END, runner) == 2
    err = capsys.readouterr().err
    assert "base run failed on b (pair 2)" in err
    # It stopped at once: pair 2 runs head before base.
    assert runner.calls[-1] == ("base", "b")
    assert len(runner.calls) == 8
