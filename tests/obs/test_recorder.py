"""Recorder core: spans, metrics, progress, merge, and the ambient
recorder machinery."""

import math
import pickle
import time

import pytest

from repro.obs import (
    NULL_RECORDER,
    NullRecorder,
    TraceRecorder,
    current_recorder,
    use_recorder,
)
from repro.obs.recorder import Span


class TestNullRecorder:
    def test_default_ambient_recorder(self):
        assert current_recorder() is NULL_RECORDER
        assert not NULL_RECORDER.enabled

    def test_all_methods_are_noops(self):
        rec = NullRecorder()
        with rec.span("anything", a=1) as sp:
            sp.set(b=2)
        rec.counter("c")
        rec.gauge("g", 1.0)
        rec.histogram("h", 1.0)
        rec.progress("src", 1, 10, rate=0.5)

    def test_span_is_shared_singleton(self):
        rec = NullRecorder()
        assert rec.span("a") is rec.span("b")


class TestSpans:
    def test_nesting_builds_a_tree(self):
        rec = TraceRecorder()
        with rec.span("outer"):
            with rec.span("inner_a"):
                pass
            with rec.span("inner_b"):
                pass
        assert len(rec.spans) == 1
        outer = rec.spans[0]
        assert outer.name == "outer"
        assert [c.name for c in outer.children] == ["inner_a", "inner_b"]

    def test_timing_and_attrs(self):
        rec = TraceRecorder()
        with rec.span("timed", flavor="x") as sp:
            time.sleep(0.01)
            sp.set(extra=True)
        span = rec.spans[0]
        assert span.duration >= 0.009
        assert span.attrs == {"flavor": "x", "extra": True}
        assert span.cpu >= 0.0
        assert span.end >= span.start

    def test_exception_still_closes_span(self):
        rec = TraceRecorder()
        with pytest.raises(RuntimeError):
            with rec.span("boom"):
                raise RuntimeError("x")
        assert rec.spans[0].name == "boom"
        assert not rec._stack

    def test_iter_spans_includes_open_stack(self):
        rec = TraceRecorder()
        with rec.span("open"):
            with rec.span("closed"):
                pass
            names = [s.name for s in rec.iter_spans()]
            assert "open" in names and "closed" in names

    def test_find_spans_and_stage_seconds(self):
        rec = TraceRecorder()
        for _ in range(3):
            with rec.span("stage"):
                time.sleep(0.002)
        assert len(rec.find_spans("stage")) == 3
        assert rec.stage_seconds()["stage"] >= 0.005

    def test_stage_seconds_skips_open_spans(self):
        rec = TraceRecorder()
        with rec.span("still-open"):
            assert "still-open" not in rec.stage_seconds()


class TestMetrics:
    def test_counters_accumulate(self):
        rec = TraceRecorder()
        rec.counter("hits")
        rec.counter("hits", 2)
        assert rec.counters["hits"] == 3

    def test_gauge_last_write_wins(self):
        rec = TraceRecorder()
        rec.gauge("rate", 0.1)
        rec.gauge("rate", 0.9)
        assert rec.gauges["rate"] == 0.9

    def test_histogram_keeps_a_summary(self):
        rec = TraceRecorder()
        for v in (1.0, 3.0, 2.0):
            rec.histogram("lat", v)
        assert rec.histograms["lat"].to_dict() == {
            "count": 3, "sum": 6.0, "min": 1.0, "max": 3.0,
        }

    def test_progress_mirrors_to_gauges_and_callback(self):
        seen = []
        rec = TraceRecorder(on_progress=seen.append)
        rec.progress("mh", 50, 100, accept_rate=0.4)
        assert rec.gauges["progress.mh.done"] == 50
        assert rec.gauges["progress.mh.accept_rate"] == 0.4
        assert len(seen) == 1 and seen[0]["total"] == 100


class TestMerge:
    def _child(self, epoch_shift=0.0):
        child = TraceRecorder()
        child.epoch += epoch_shift  # simulate a later-starting worker
        with child.span("worker", worker=0):
            with child.span("chunk"):
                pass
        child.counter("n", 5)
        child.gauge("g", 1.5)
        child.histogram("h", 2.0)
        child.progress("mh", 10, 10)
        return child

    def test_payload_is_plain_and_picklable(self):
        payload = self._child().to_payload()
        assert pickle.loads(pickle.dumps(payload)) == payload

    def test_merge_sums_counters_and_rebases_spans(self):
        parent = TraceRecorder()
        parent.counter("n", 1)
        shift = 0.25
        payload = self._child(epoch_shift=shift).to_payload()
        parent.merge_child(payload)
        assert parent.counters["n"] == 6
        assert parent.gauges["g"] == 1.5  # the child has no worker index
        assert parent.histograms["h"].to_dict() == {
            "count": 1, "sum": 2.0, "min": 2.0, "max": 2.0,
        }
        worker = parent.find_spans("worker")[0]
        assert worker.children[0].name == "chunk"
        # The child's timeline moved onto the parent's epoch.
        assert worker.start == pytest.approx(shift, abs=0.05)
        assert len(parent.progress_events) == 1

    def test_merge_under_open_span_nests(self):
        parent = TraceRecorder()
        with parent.span("parallel.run"):
            parent.merge_child(self._child().to_payload())
        assert parent.spans[0].children[0].name == "worker"

    def test_merge_none_is_noop(self):
        parent = TraceRecorder()
        parent.merge_child(None)
        assert not parent.spans and not parent.counters

    def test_span_dict_round_trip(self):
        span = Span("s", 1.0, 2.0, 0.5, {"k": "v"}, [Span("c", 1.1, 1.9)])
        assert Span.from_dict(span.to_dict()) == span
        shifted = span.shifted(1.0)
        assert shifted.start == 2.0
        assert shifted.children[0].start == pytest.approx(2.1)


class TestAmbient:
    def test_use_recorder_installs_and_restores(self):
        rec = TraceRecorder()
        assert current_recorder() is NULL_RECORDER
        with use_recorder(rec):
            assert current_recorder() is rec
            inner = TraceRecorder()
            with use_recorder(inner):
                assert current_recorder() is inner
            assert current_recorder() is rec
        assert current_recorder() is NULL_RECORDER

    def test_restored_on_exception(self):
        with pytest.raises(ValueError):
            with use_recorder(TraceRecorder()):
                raise ValueError("x")
        assert current_recorder() is NULL_RECORDER


def test_progress_nan_metric_survives_summary():
    # NaN metrics must not break the gauge mirror (export handles the
    # JSON side; this is the in-memory side).
    rec = TraceRecorder()
    rec.progress("x", 1, None, ess=float("nan"))
    assert math.isnan(rec.gauges["progress.x.ess"])
