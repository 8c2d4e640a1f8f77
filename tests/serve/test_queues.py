"""TenantQueue backpressure semantics and accounting."""

import numpy as np
import pytest

from repro.sampling.events import AccessBatch
from repro.serve.queues import TenantQueue, aggregate_depth


def batch(n: int = 4) -> AccessBatch:
    return AccessBatch(
        page_ids=np.arange(n, dtype=np.int64), num_ops=float(n), cpu_ns=10.0
    )


class TestOffer:
    def test_fifo_order(self):
        queue = TenantQueue("t", capacity=4, backpressure="block")
        for i in range(3):
            outcome, shed = queue.offer(batch(), now_ns=float(i))
            assert outcome == "enqueued" and shed == 0
        assert [queue.pop().index for _ in range(3)] == [0, 1, 2]
        assert queue.pop() is None

    def test_block_refuses_when_full(self):
        queue = TenantQueue("t", capacity=2, backpressure="block")
        queue.offer(batch(), 0.0)
        queue.offer(batch(), 0.0)
        outcome, shed = queue.offer(batch(), 0.0)
        assert outcome == "blocked" and shed == 0
        assert len(queue) == 2
        # A blocked offer is not part of the offered stream.
        assert queue.counters.offered == 2
        assert queue.counters.blocked == 1

    def test_shed_oldest_evicts_front(self):
        queue = TenantQueue("t", capacity=2, backpressure="shed-oldest")
        queue.offer(batch(), 0.0)
        queue.offer(batch(), 0.0)
        outcome, shed = queue.offer(batch(), 0.0)
        assert outcome == "enqueued" and shed == 1
        assert queue.counters.shed == 1
        # Oldest (index 0) was evicted; 1 and 2 remain.
        assert [queue.pop().index, queue.pop().index] == [1, 2]

    def test_reject_drops_newest(self):
        queue = TenantQueue("t", capacity=1, backpressure="reject")
        queue.offer(batch(), 0.0)
        outcome, shed = queue.offer(batch(), 0.0)
        assert outcome == "rejected" and shed == 0
        assert queue.counters.rejected == 1
        assert queue.counters.offered == 2  # rejected offers consume stream
        assert len(queue) == 1

    def test_enqueue_timestamp_recorded(self):
        queue = TenantQueue("t", capacity=2, backpressure="block")
        queue.offer(batch(), now_ns=123.5)
        assert queue.pop().enqueued_ns == 123.5

    def test_invalid_construction(self):
        with pytest.raises(ValueError, match="capacity"):
            TenantQueue("t", capacity=0, backpressure="block")
        with pytest.raises(ValueError, match="backpressure"):
            TenantQueue("t", capacity=1, backpressure="nope")


class TestStateRoundTrip:
    def test_counters_and_depth_round_trip(self):
        queue = TenantQueue("t", capacity=4, backpressure="shed-oldest")
        for _ in range(6):  # 4 enqueued + 2 shed via eviction
            queue.offer(batch(), 0.0)
        queue.pop()
        queue.counters.served += 1
        state = queue.state_dict()
        assert state["depth"] == 3
        fresh = TenantQueue("t", capacity=4, backpressure="shed-oldest")
        fresh.load_state(state)
        assert fresh.counters.as_dict() == queue.counters.as_dict()
        assert fresh.restored_depth == 3
        assert len(fresh) == 0  # entries are never captured

    def test_cursor_follows_front_disposals(self):
        """The checkpointed cursor is the one of the newest entry taken
        from the front -- shed or served -- and readmits carry theirs."""
        queue = TenantQueue("t", capacity=2, backpressure="shed-oldest")
        assert queue.state_dict()["cursor"] is None
        for i in range(3):  # the third offer sheds entry 0
            queue.offer(batch(), 0.0, cursor={"pulled": i})
        assert queue.state_dict()["cursor"] == {"pulled": 0}
        queue.served(queue.pop())
        assert queue.state_dict()["cursor"] == {"pulled": 1}
        queue.offer(batch(), 0.0, cursor={"pulled": 3})  # fits: no shed
        assert queue.cursor == {"pulled": 1}

        fresh = TenantQueue("t", capacity=2, backpressure="shed-oldest")
        fresh.load_state(queue.state_dict())
        assert fresh.cursor == {"pulled": 1}
        entry = fresh.readmit(batch(), {"pulled": 2})
        fresh.served(fresh.pop())
        assert fresh.cursor == entry.cursor == {"pulled": 2}

    def test_readmit_restores_indices_and_enqueue_times(self):
        queue = TenantQueue("t", capacity=4, backpressure="shed-oldest")
        for i in range(6):  # indices 0-1 shed, 2-5 queued
            queue.offer(batch(), float(i))
        queue.pop()
        queue.counters.served += 1
        fresh = TenantQueue("t", capacity=4, backpressure="shed-oldest")
        fresh.load_state(queue.state_dict())
        readmitted = [fresh.readmit(batch()) for _ in range(3)]
        assert [e.index for e in readmitted] == [3, 4, 5]
        assert [e.enqueued_ns for e in readmitted] == [3.0, 4.0, 5.0]
        assert fresh.counters.as_dict() == queue.counters.as_dict()
        assert fresh.restored_depth == 0
        with pytest.raises(RuntimeError, match="backlog"):
            fresh.readmit(batch())

    def test_disposed_is_stream_prefix_under_shed(self):
        # The crash-replay invariant: served + shed always equals the
        # count of the *oldest* offered batches, in every interleaving.
        queue = TenantQueue("t", capacity=2, backpressure="shed-oldest")
        disposed_indices = []
        for step in range(12):
            queue.offer(batch(), 0.0)
            if step % 3 == 2:
                entry = queue.pop()
                queue.counters.served += 1
                disposed_indices.append(entry.index)
        # Entries still queued are exactly the newest ones.
        remaining = [queue.pop().index for _ in range(len(queue))]
        disposed = queue.counters.served + queue.counters.shed
        assert sorted(remaining) == list(
            range(disposed, queue.counters.offered)
        )


class TestAggregate:
    def test_aggregate_depth(self):
        queues = {
            "a": TenantQueue("a", capacity=2, backpressure="block"),
            "b": TenantQueue("b", capacity=4, backpressure="block"),
        }
        queues["a"].offer(batch(), 0.0)
        queues["b"].offer(batch(), 0.0)
        queues["b"].offer(batch(), 0.0)
        snap = aggregate_depth(queues)
        assert snap.depth == 3
        assert snap.capacity == 6
        assert snap.fill_fraction == 0.5

    def test_clear_reports_dropped(self):
        queue = TenantQueue("t", capacity=4, backpressure="block")
        queue.offer(batch(), 0.0)
        queue.offer(batch(), 0.0)
        assert queue.clear() == 2
        assert len(queue) == 0
