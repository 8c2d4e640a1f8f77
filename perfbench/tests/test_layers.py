"""Span accounting of the traced run: self time, re-entrancy, patching."""

import sys
import types

import pytest

from perfbench.layers import LAYERS, Patcher, SpanTracer, _span, _TimedStream


class ScriptedClock:
    """A clock that advances only when told to."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def advance(self, ns):
        self.now += ns


@pytest.fixture
def clock():
    return ScriptedClock()


def test_self_time_subtracts_nested_spans(clock):
    tracer = SpanTracer(clock=clock)

    def inner():
        clock.advance(30)

    def outer():
        clock.advance(10)
        tracer.call("accel.kernel", inner)
        clock.advance(5)
        tracer.call("accel.kernel", inner)
        clock.advance(5)

    tracer.call("engine.step", outer)
    assert tracer.spans["engine.step"] == [1, 80, 20]
    assert tracer.spans["accel.kernel"] == [2, 60, 60]
    # Self times add up to the outermost span's wall time.
    assert sum(s[2] for s in tracer.spans.values()) == 80


def test_three_levels(clock):
    tracer = SpanTracer(clock=clock)

    def leaf():
        clock.advance(7)

    def middle():
        clock.advance(3)
        tracer.call("cbf.increase", leaf)

    def top():
        tracer.call("policies.freqtier.on_batch", middle)
        clock.advance(1)

    tracer.call("engine.step", top)
    assert tracer.self_ms("engine.step") * 1e6 == pytest.approx(1)
    assert tracer.self_ms("policies.freqtier.on_batch") * 1e6 == pytest.approx(3)
    assert tracer.self_ms("cbf.increase") * 1e6 == pytest.approx(7)
    layers = tracer.layer_self_ms()
    assert set(layers) == set(LAYERS)
    assert sum(layers.values()) * 1e6 == pytest.approx(11)


def test_reentrant_call_counts_busy_time_once(clock):
    tracer = SpanTracer(clock=clock)

    def parent_impl():
        clock.advance(4)

    def child_impl():
        clock.advance(6)
        tracer.call("cbf.increase", parent_impl)  # super().increase(...)

    tracer.call("cbf.increase", child_impl)
    calls, busy, self_ns = tracer.spans["cbf.increase"]
    assert (calls, busy, self_ns) == (2, 10, 10)


def test_exception_still_closes_the_span(clock):
    tracer = SpanTracer(clock=clock)

    def boom():
        clock.advance(9)
        raise RuntimeError("crash")

    def outer():
        with pytest.raises(RuntimeError):
            tracer.call("serve.tick", boom)
        clock.advance(1)

    tracer.call("serve.tick_guarded", outer)
    assert tracer.spans["serve.tick"] == [1, 9, 9]
    assert tracer.spans["serve.tick_guarded"] == [1, 10, 1]


def test_after_hook_sees_arguments_and_result(clock):
    tracer = SpanTracer(clock=clock)
    seen = []

    def on_batch(self, batch):
        clock.advance(2)
        return 125.0

    wrapped = _span(tracer, "policies.x.on_batch", lambda args, r: seen.append((args[1], r)))(on_batch)
    assert wrapped(None, "b0") == 125.0
    assert seen == [("b0", 125.0)]
    assert tracer.last_ns == 2


def test_timed_stream_counts_generated_batches(clock):
    tracer = SpanTracer(clock=clock)
    batch = types.SimpleNamespace(num_accesses=4)

    def gen():
        for _ in range(3):
            clock.advance(5)
            yield batch

    stream = _TimedStream(tracer, "workloads.next", gen(), generated=True)
    next(stream)
    tracer.replaying = True
    assert list(stream) == [batch, batch]
    assert tracer.counts["workloads.batches"] == 3
    assert tracer.counts["workloads.accesses"] == 12
    assert tracer.counts["workloads.replayed_batches"] == 2
    # The exhausting next() is a (zero-length) call of its own.
    assert tracer.spans["workloads.next"] == [4, 15, 15]


def test_patcher_wraps_every_binding_and_restores():
    def f():
        return "real"

    home = types.ModuleType("perfbench_fake_home")
    user = types.ModuleType("perfbench_fake_user")
    home.f = f
    user.g = f  # ``from perfbench_fake_home import f as g``
    sys.modules[home.__name__] = home
    sys.modules[user.__name__] = user
    try:
        tracer = SpanTracer()
        patcher = Patcher()
        patcher.function(home, "f", _span(tracer, "engine.f"))
        assert home.f is user.g is not f
        assert user.g() == "real"
        assert tracer.calls("engine.f") == 1
        patcher.restore()
        assert home.f is f and user.g is f
    finally:
        del sys.modules[home.__name__], sys.modules[user.__name__]


def test_patcher_wraps_overrides_in_subclasses():
    class Base:
        def work(self):
            return "base"

    class Child(Base):
        def work(self):
            return "child+" + super().work()

    class Inherits(Base):
        pass

    tracer = SpanTracer()
    patcher = Patcher()
    patcher.method(Base, "work", lambda cls, fn: _span(tracer, f"policies.{cls.__name__}")(fn))
    assert Child().work() == "child+base"
    assert Inherits().work() == "base"
    assert tracer.calls("policies.Child") == 1
    assert tracer.calls("policies.Base") == 2
    patcher.restore()
    assert "work" not in Inherits.__dict__
    Child().work()
    assert tracer.calls("policies.Base") == 2
