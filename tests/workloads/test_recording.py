"""Tests for the recorder and the file form of a recording."""

import itertools
import pathlib

import numpy as np
import pytest

from repro.core.config import ExperimentConfig
from repro.core.parallel import WorkloadSpec
from repro.core.runner import build_machine
from repro.sampling.events import AccessBatch
from repro.workloads.recording import Recording, record
from repro.workloads.traceio import TraceFileWorkload, save_trace


def _rss_anon_bytes() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("RssAnon:"):
                return int(line.split()[1]) * 1024
    pytest.skip("the kernel reports no RssAnon")


def test_empty_int32_first_batch_round_trips(tmp_path):
    batches = [
        AccessBatch(np.empty(0, dtype=np.int32), num_ops=0.0, cpu_ns=0.0),
        AccessBatch(np.array([3, 1], dtype=np.int32), num_ops=2.0, cpu_ns=5.0),
    ]
    path = tmp_path / "empty_first.trace"
    record(batches, footprint_pages=4).save(path)
    replayed = Recording.load(path)
    replayed.validate(str(path))
    assert [b.page_ids.tolist() for b in replayed.batches()] == [[], [3, 1]]
    assert replayed.head_page_ids.dtype == np.int32


def test_save_moves_a_recording_into_the_file(tmp_path, monkeypatch):
    """Saving what record() built frees each column's memory as it is
    written, so the stream is never held twice; the recording then
    replays from the file it reopens."""
    rng = np.random.default_rng(3)
    pages = 1 << 20
    stream_bytes = 16 << 20

    def batches():
        for _ in range(stream_bytes // (8 * pages)):
            yield AccessBatch(
                rng.integers(0, pages, pages), num_ops=1.0, cpu_ns=0.0
            )

    recording = record(batches(), footprint_pages=pages)
    expected = [b.page_ids.sum() for b in recording.batches()]
    written = []
    load = Recording.load.__func__

    def reopen(cls, path):
        written.append(_rss_anon_bytes())
        return load(cls, path)

    monkeypatch.setattr(Recording, "load", classmethod(reopen))
    before = _rss_anon_bytes()
    recording.save(tmp_path / "moved.trace")
    # Measured once every column is written, before the reopen.
    assert before - written[0] >= stream_bytes * 3 // 4
    assert [b.page_ids.sum() for b in recording.batches()] == expected


#: Six CDN batches (256 slab pages, 40 ops per batch, seed 4) in trace
#: format version 1, written before trace files shared their column
#: file code with snapshots.
FORMAT1 = pathlib.Path(__file__).parent / "data" / "cdn6-format1.trace"


def _cdn6():
    workload = WorkloadSpec("cdn", slab_pages=256, ops_per_batch=40, seed=4)()
    workload.setup(
        build_machine(workload.footprint_pages, ExperimentConfig(local_fraction=0.1, seed=4))
    )
    return workload


def test_committed_format1_trace_still_replays():
    trace = TraceFileWorkload(FORMAT1)
    replayed = [b.page_ids.tolist() for b in trace.batches()]
    live = [b.page_ids.tolist() for b in itertools.islice(_cdn6().batches(), 6)]
    assert replayed == live


def test_record_writes_the_committed_bytes(tmp_path):
    workload = _cdn6()
    path = tmp_path / "cdn6.trace"
    assert save_trace(path, workload.batches(), workload.footprint_pages, 6) == 6
    assert path.read_bytes() == FORMAT1.read_bytes()
