"""Export goldens: one scripted workload's JSONL trace, Chrome trace,
metrics summary and NDJSON snapshot stream, pinned to files.

The goldens in ``goldens/`` were written at commit ``0d6d870`` by the
earlier two-store design (a ``SnapshotRecorder`` copying every metric
from an inner ``TraceRecorder`` into a separate registry), so they pin
that folding the stores into one recorder changed no single-process
output.  Clocks are frozen and the cadence is 0: every recorded time is
a constant and every metric event publishes a snapshot.  The trace
exports and the summary compare byte for byte; the snapshot stream
compares line by line as parsed JSON, because the order in which a
snapshot's gauges were first written is not part of its schema.
"""

import io
import json
import os
import time

import pytest

from repro.obs import (
    SnapshotStreamWriter,
    TraceRecorder,
    format_metrics_summary,
    write_chrome_trace,
    write_jsonl,
)

GOLDENS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens")


def scripted_workload(rec):
    """Every Recorder protocol call, a NaN gauge and two progress
    reports (the second with a NaN metric)."""
    with rec.span("pipeline", stage="slice") as sp:
        rec.counter("slice.kept", 12)
        rec.counter("cache.slice.miss")
        with rec.span("pass.obs"):
            rec.gauge("obs.depth", 3)
        sp.set(kept=12)
    with rec.span("worker", worker=0, engine="r2-mh"):
        rec.histogram("chunk", 1.0)
        rec.histogram("chunk", 4.5)
        rec.progress("r2-mh", 64, 128, accept_rate=0.5)
        rec.progress("r2-mh", 128, 128, accept_rate=0.45, ess=float("nan"))
    rec.gauge("bad", float("nan"))
    rec.gauge("ratio", 0.25)


def freeze_clocks(monkeypatch):
    monkeypatch.setattr(time, "time", lambda: 1_700_000_000.0)
    monkeypatch.setattr(time, "perf_counter", lambda: 42.0)
    monkeypatch.setattr(time, "process_time", lambda: 7.0)


def _golden(name):
    with open(os.path.join(GOLDENS, name), "rb") as f:
        return f.read()


@pytest.fixture
def recorded(monkeypatch):
    """The workload on one recorder with an NDJSON subscriber."""
    freeze_clocks(monkeypatch)
    stream = io.StringIO()
    rec = TraceRecorder(
        cadence=0.0,
        subscribers=[SnapshotStreamWriter(stream)],
        clock=lambda: 0.0,
    )
    scripted_workload(rec)
    rec.publish()
    return rec, stream.getvalue()


def _export(write, rec):
    buf = io.StringIO()
    write(rec, buf)
    return buf.getvalue().encode()


def test_jsonl_matches_golden(recorded):
    rec, _ = recorded
    assert _export(write_jsonl, rec) == _golden("telemetry.jsonl")


def test_chrome_matches_golden(recorded):
    rec, _ = recorded
    assert _export(write_chrome_trace, rec) == _golden("telemetry.chrome.json")


def test_metrics_summary_matches_golden(recorded):
    rec, _ = recorded
    text = format_metrics_summary(rec) + "\n"
    assert text.encode() == _golden("telemetry.summary.txt")


def test_snapshot_stream_matches_golden(recorded):
    _, ndjson = recorded
    got = [json.loads(line) for line in ndjson.splitlines()]
    want = [
        json.loads(line)
        for line in _golden("telemetry.ndjson").decode().splitlines()
    ]
    assert len(got) == len(want)
    for index, (a, b) in enumerate(zip(got, want)):
        assert a == b, f"snapshot line {index} differs"
