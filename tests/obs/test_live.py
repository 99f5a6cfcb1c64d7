"""The live telemetry layer: the recorder's bounded series, snapshot
publication and worker merge, and both wire formats."""

import io
import json
import time

import pytest

from repro.core.parser import parse
from repro.inference import (
    ChurchTraceMH,
    GibbsSampler,
    LikelihoodWeighting,
    MetropolisHastings,
    RejectionSampler,
    SMCSampler,
)
from repro.obs import (
    Snapshot,
    SnapshotStreamWriter,
    TraceRecorder,
    snapshot_to_prometheus,
    use_recorder,
)
from repro.obs.export import write_chrome_trace, write_jsonl
from repro.obs.recorder import SERIES_CAPACITY, SERIES_TAIL

MODEL = parse(
    """
bool p, q;
p ~ Bernoulli(0.5);
if (p) { q ~ Bernoulli(0.9); } else { q ~ Bernoulli(0.1); }
observe(q);
return p;
"""
)


def _publishing(**kwargs):
    """A recorder with one do-nothing subscriber, so it publishes."""
    kwargs.setdefault("cadence", 0.0)
    return TraceRecorder(subscribers=[lambda snapshot: None], **kwargs)


class TestSeries:
    def test_ring_keeps_the_newest_points(self):
        rec = _publishing()
        for _ in range(SERIES_CAPACITY + 44):
            rec.counter("c")
        points = rec.series["c"]
        assert len(points) == SERIES_CAPACITY
        assert points[0][1] == 45 and points[-1][1] == SERIES_CAPACITY + 44

    def test_snapshot_carries_the_tail(self):
        rec = _publishing()
        for _ in range(SERIES_TAIL + 10):
            rec.counter("c")
        series = rec.snapshots[-1].series["c"]
        assert len(series) == SERIES_TAIL
        assert [v for _, v in series] == list(range(11, SERIES_TAIL + 11))

    def test_cadence_validation(self):
        with pytest.raises(ValueError):
            TraceRecorder(cadence=-1.0)


class TestStore:
    def test_counters_sum_and_sample(self):
        clock = {"t": 0.0}
        rec = _publishing(cadence=3600.0, clock=lambda: clock["t"])
        rec.counter("c", 2)  # first event publishes: t=0
        rec.counter("c", 3)
        rec.gauge("g", 1.5)
        rec.histogram("h", 2.0)
        rec.histogram("h", 4.0)
        clock["t"] = 1.0
        rec.publish()
        assert rec.counters["c"] == 5
        assert list(rec.series["c"]) == [(0.0, 2), (1.0, 5)]
        assert list(rec.series["g"]) == [(1.0, 1.5)]
        h = rec.histograms["h"].to_dict()
        assert h == {"count": 2, "sum": 6.0, "min": 2.0, "max": 4.0}

    def test_merge_prefixes_worker_state(self):
        parent = TraceRecorder()
        parent.counter("c", 1)
        child = _publishing(worker=3, clock=lambda: 0.5)
        child.epoch = parent.epoch + 100.0
        child.counter("c", 2)
        child.gauge("g", 7.0)
        child.histogram("h", 1.0)
        child.progress("mh", 10, 20, accept_rate=0.5)
        parent.merge_child(child.to_payload())
        assert parent.counters["c"] == 3  # counters sum unprefixed
        assert parent.gauges["w3/g"] == 7.0
        assert parent.gauges["w3/progress.mh.done"] == 10
        assert "g" not in parent.gauges
        assert parent.histograms["h"].count == 1
        prog = parent.progress_state["w3/mh"]
        assert prog["done"] == 10 and prog["total"] == 20
        assert prog["t"] == pytest.approx(100.0)  # epoch-rebased
        # One point per publication: four events at cadence 0.
        assert list(parent.series["w3/c"]) == [(100.0, 2)] * 4

    def test_unindexed_payload_merges_unprefixed(self):
        parent = TraceRecorder()
        plain = TraceRecorder()
        plain.counter("c", 1)
        plain.gauge("g", 2.0)
        parent.merge_child(plain.to_payload())
        assert parent.counters["c"] == 1
        assert parent.gauges == {"g": 2.0}


class TestSnapshotWire:
    def test_round_trip(self):
        rec = _publishing()
        rec.counter("a", 2)
        rec.progress("mh", 5, 10, accept_rate=0.4)
        snap = rec.publish()
        clone = Snapshot.from_dict(snap.to_dict())
        assert clone.seq == snap.seq
        assert clone.counters == dict(snap.counters)
        assert clone.progress["mh"]["done"] == 5
        assert clone.worker is None

    def test_wire_is_json_clean(self):
        rec = _publishing()
        rec.gauge("bad", float("nan"))
        rec.gauge("worse", float("inf"))
        snap = rec.publish()
        line = json.dumps(snap.to_dict(), allow_nan=False)  # must not raise
        parsed = json.loads(line)
        assert parsed["gauges"]["bad"] == "nan"
        assert parsed["gauges"]["worse"] == "inf"

    def test_stream_writer_counts_and_flushes(self):
        buf = io.StringIO()
        writer = SnapshotStreamWriter(buf)
        rec = TraceRecorder(cadence=0.0, subscribers=[writer])
        rec.counter("x")
        rec.counter("x")
        assert writer.n_written == rec.n_published >= 2
        lines = [json.loads(l) for l in buf.getvalue().splitlines()]
        assert [l["seq"] for l in lines] == list(range(len(lines)))
        assert all(l["type"] == "snapshot" for l in lines)

    def test_stream_writer_owns_files(self, tmp_path):
        path = tmp_path / "snap.ndjson"
        writer = SnapshotStreamWriter(str(path))
        rec = TraceRecorder(cadence=0.0, subscribers=[writer])
        rec.counter("x")
        writer.close()
        assert json.loads(path.read_text().splitlines()[0])["counters"] == {
            "x": 1
        }

    def test_ndjson_validates_against_schema(self, tmp_path):
        from repro.obs.validate import validate_jsonl

        path = tmp_path / "snap.ndjson"
        writer = SnapshotStreamWriter(str(path))
        rec = TraceRecorder(cadence=0.0, subscribers=[writer], worker=1)
        with use_recorder(rec):
            MetropolisHastings(n_samples=50, burn_in=10, seed=0).infer(MODEL)
        rec.publish()
        writer.close()
        assert validate_jsonl(str(path), schema="snapshot") == []

    def test_validate_rejects_garbage(self, tmp_path):
        from repro.obs.validate import validate_jsonl

        path = tmp_path / "bad.ndjson"
        path.write_text('{"type": "snapshot", "seq": -1}\n')
        assert validate_jsonl(str(path), schema="snapshot") != []


class TestPublication:
    def test_cadence_throttles_publication(self):
        clock = {"t": 0.0}
        rec = _publishing(cadence=1.0, clock=lambda: clock["t"])
        rec.counter("c")  # first event always publishes
        rec.counter("c")
        rec.counter("c")
        assert rec.n_published == 1
        clock["t"] = 1.5
        rec.counter("c")
        assert rec.n_published == 2
        assert rec.snapshots[-1].counters["c"] == 4

    def test_publish_is_unconditional(self):
        rec = _publishing(cadence=3600.0)
        rec.counter("c")
        before = rec.n_published
        rec.publish()
        assert rec.n_published == before + 1

    def test_no_subscriber_publishes_nothing(self):
        rec = TraceRecorder(cadence=0.0)
        with rec.span("stage"):
            rec.counter("c", 2)
            rec.gauge("g", 1.0)
            rec.histogram("h", 5.0)
        rec.progress("mh", 3, 9, accept_rate=0.2)
        assert rec.publish() is None
        assert rec.n_published == 0 and not rec.snapshots
        assert rec.series == {}
        # ... while the store itself still holds everything.
        assert rec.counters["c"] == 2 and rec.gauges["g"] == 1.0
        assert rec.progress_state["mh"]["done"] == 3
        assert rec.find_spans("stage")

    def test_progress_state_in_snapshot(self):
        rec = _publishing()
        rec.progress("mh", 64, 128, accept_rate=0.75)
        snap = rec.snapshots[-1]
        assert snap.progress["mh"]["done"] == 64
        assert snap.gauges["progress.mh.accept_rate"] == 0.75
        assert snap.gauges["progress.mh.done"] == 64

    def test_worker_snapshot_reaches_subscribers_unmerged(self):
        seen = []
        rec = TraceRecorder(cadence=0.0, subscribers=[seen.append])
        worker = _publishing(worker=2)
        worker.progress("mh", 10, 20, accept_rate=0.9)
        rec.ingest_worker_snapshot(worker.snapshots[-1].to_dict())
        assert seen and seen[-1].worker == 2
        assert seen[-1].progress["mh"]["done"] == 10
        assert rec.progress_state == {}  # merged only from the payload

    def test_merge_child_folds_worker_payload(self):
        parent = _publishing()
        worker = TraceRecorder(worker=0)
        with worker.span("worker", worker=0, engine="mh", pid=1):
            worker.counter("engine.samples", 40)
            worker.progress("mh", 40, 40, accept_rate=0.5)
        parent.merge_child(worker.to_payload())
        assert parent.counters["engine.samples"] == 40
        assert parent.find_spans("worker")
        assert parent.progress_state["w0/mh"]["done"] == 40
        assert parent.publish().progress["w0/mh"]["done"] == 40


def _scripted_workload(rec):
    """A fixed event sequence exercising every Recorder protocol call."""
    with rec.span("pipeline", stage="slice"):
        rec.counter("slice.kept", 12)
        with rec.span("pass.obs"):
            rec.gauge("obs.depth", 3.0)
    rec.histogram("chunk", 1.0)
    rec.histogram("chunk", 4.0)
    rec.progress("mh", 64, 128, accept_rate=0.5)
    rec.progress("mh", 128, 128, accept_rate=0.45)


class TestJsonlByteIdentical:
    def test_subscribers_leave_exports_unchanged(self, tmp_path, monkeypatch):
        """Publishing only reads the store: one recorder exports the
        same JSONL and Chrome bytes with and without subscribers.
        Clocks are frozen so both recorders see the same timeline;
        everything else (structure, values, ordering) must then match
        to the byte."""
        monkeypatch.setattr(time, "time", lambda: 1_700_000_000.0)
        monkeypatch.setattr(time, "perf_counter", lambda: 42.0)
        monkeypatch.setattr(time, "process_time", lambda: 7.0)

        def exports(rec):
            jsonl, chrome = io.StringIO(), io.StringIO()
            write_jsonl(rec, jsonl)
            write_chrome_trace(rec, chrome)
            return jsonl.getvalue(), chrome.getvalue()

        baseline = TraceRecorder()
        _scripted_workload(baseline)
        seen = []
        live = TraceRecorder(
            cadence=0.0, subscribers=[seen.append], clock=lambda: 0.0
        )
        _scripted_workload(live)
        live.publish()
        assert len(seen) == 7
        assert exports(live) == exports(baseline)

    def test_engine_run_structurally_identical(self):
        """On a real engine run (no clock mocking), the recorded trace
        *structure* — span names, counters, progress event sequence —
        is unchanged by live telemetry."""

        def run(recorder):
            with use_recorder(recorder):
                MetropolisHastings(n_samples=60, burn_in=10, seed=1).infer(
                    MODEL
                )
            return recorder

        plain = run(TraceRecorder())
        live = run(_publishing())
        assert live.n_published > 0
        assert plain.counters == live.counters
        assert plain.gauges.keys() == live.gauges.keys()
        assert [s.name for s in plain.iter_spans()] == [
            s.name for s in live.iter_spans()
        ]
        strip = lambda events: [
            (e["source"], e["done"], e["total"]) for e in events
        ]
        assert strip(plain.progress_events) == strip(live.progress_events)


ENGINES = [
    MetropolisHastings(n_samples=200, burn_in=20, seed=0),
    ChurchTraceMH(n_samples=200, burn_in=20, seed=0),
    LikelihoodWeighting(n_samples=400, seed=0),
    RejectionSampler(n_samples=100, seed=0),
    SMCSampler(n_particles=100, seed=0),
    GibbsSampler(n_samples=100, burn_in=20, seed=0),
]


class TestEveryEngineSnapshots:
    @pytest.mark.parametrize("engine", ENGINES, ids=lambda e: e.name)
    def test_engine_produces_snapshots(self, engine):
        """Acceptance criterion: every engine drives the snapshot
        stream through the existing progress-event path — at cadence 0
        each report publishes, and the engine appears as a progress
        source from its very first (baseline, done=0-or-later)
        report."""
        rec = _publishing()
        with use_recorder(rec):
            engine.infer(MODEL)
        assert rec.n_published >= 1
        assert any(
            engine.name in snap.progress for snap in rec.snapshots
        ), f"{engine.name} never appeared in a snapshot"
        final = rec.snapshots[-1]
        state = final.progress[engine.name]
        assert state["total"] is not None and state["done"] >= state["total"]

    def test_cadence_interval_coverage(self):
        """On a wall-clock run the stream keeps up with the cadence:
        gaps between consecutive snapshots stay in the same order of
        magnitude as the cadence (engine reports arrive every few
        hundred microseconds, so a 25ms cadence is never starved)."""
        cadence = 0.025
        rec = _publishing(cadence=cadence)
        engine = MetropolisHastings(n_samples=4000, burn_in=100, seed=0)
        with use_recorder(rec):
            engine.infer(MODEL)
        rec.publish()
        times = [snap.t for snap in rec.snapshots]
        assert len(times) >= 2
        gaps = [b - a for a, b in zip(times, times[1:])]
        # Generous bound (CI machines stall): no starvation beyond 10x
        # the cadence while the engine was actively reporting.
        assert max(gaps) < cadence * 10


class TestPrometheus:
    def test_exposition_format(self):
        rec = _publishing()
        rec.counter("engine.samples", 128)
        rec.gauge("cache.size", 3.0)
        rec.histogram("chunk", 2.0)
        rec.progress("r2-mh", 50, 100, accept_rate=0.5)
        text = snapshot_to_prometheus(rec.publish())
        lines = text.splitlines()
        assert "# TYPE repro_engine_samples_total counter" in lines
        assert "repro_engine_samples_total 128.0" in lines
        assert "# TYPE repro_cache_size gauge" in lines
        assert "repro_chunk_count 1" in lines
        assert 'repro_progress_done{source="r2-mh"} 50' in lines
        assert 'repro_progress_accept_rate{source="r2-mh"} 0.5' in lines
        assert text.endswith("\n")

    def test_worker_label(self):
        rec = _publishing(worker=2)
        rec.counter("c", 1)
        rec.progress("mh", 1, 2)
        text = snapshot_to_prometheus(rec.publish())
        assert 'repro_c_total{worker="2"} 1.0' in text
        assert 'repro_progress_done{source="mh",worker="2"} 1' in text

    def test_skips_unrenderable_values(self):
        rec = _publishing()
        rec.gauge("label", "not-a-number")
        text = snapshot_to_prometheus(rec.publish())
        assert "label" not in text


class TestSnapshotSinkContract:
    """Every sink — the --watch dashboard, the NDJSON stream writer,
    and repro.serve's SSE bridge — shares one SnapshotSink delivery
    discipline.  These tests pin the contract itself, parametrized
    over all three production subclasses."""

    @staticmethod
    def _sinks():
        from repro.obs.live import SnapshotSink
        from repro.obs.watch import WatchDashboard
        from repro.serve.sse import SnapshotBridge

        return {
            "watch": lambda: WatchDashboard(
                stream=io.StringIO(), force=True, min_interval=0.0
            ),
            "stream": lambda: SnapshotStreamWriter(io.StringIO()),
            "sse": lambda: SnapshotBridge(emit=lambda kind, data: None),
            "base": lambda: type(
                "NullSink", (SnapshotSink,), {"on_snapshot": lambda s, x: None}
            )(),
        }

    @pytest.fixture(params=["watch", "stream", "sse", "base"])
    def sink(self, request):
        return self._sinks()[request.param]()

    def test_cadence_zero_drops_nothing(self, sink):
        """Cadence 0 = every event publishes; every publish reaches
        the sink.  Deterministic: frozen clock, counted delivery."""
        t = [1000.0]
        rec = TraceRecorder(cadence=0, subscribers=[sink], clock=lambda: t[0])
        for _ in range(5):
            rec.counter("mh.steps")
        rec.publish()  # finalize
        assert sink.n_received == 6
        assert sink.last_snapshot.counters["mh.steps"] == 5

    def test_finalize_snapshot_retained_despite_throttle(self, sink):
        """A huge cadence swallows intermediate publishes, but the
        explicit finalize publish() bypasses the throttle and the
        sink always retains it as last_snapshot."""
        t = [1000.0]
        rec = TraceRecorder(
            cadence=3600.0, subscribers=[sink], clock=lambda: t[0]
        )
        rec.counter("a")   # first event publishes
        rec.counter("a")   # throttled
        rec.counter("a")   # throttled
        assert sink.n_received == 1
        rec.publish()
        assert sink.n_received == 2
        assert sink.last_snapshot.counters["a"] == 3

    def test_close_is_idempotent_and_flushes_once(self):
        flushes = []

        from repro.obs.live import SnapshotSink

        class CountingSink(SnapshotSink):
            def on_snapshot(self, snapshot):
                pass

            def flush(self):
                flushes.append(1)

        sink = CountingSink()
        sink.close()
        sink.close()
        sink.close()
        assert len(flushes) == 1
        assert sink.closed

    def test_last_snapshot_updates_even_after_close(self, sink):
        rec = _publishing()
        rec.counter("x")
        snap = rec.publish()
        sink.close()
        sink(snap)
        assert sink.last_snapshot is snap
        assert sink.n_received == 1

    def test_watch_flush_renders_deferred_snapshot(self):
        """The dashboard side of the no-drop guarantee: a throttled
        render is emitted at close() so the finalize-time state always
        reaches the terminal."""
        from repro.obs.watch import WatchDashboard

        buf = io.StringIO()
        t = [50.0]
        watch = WatchDashboard(
            stream=buf, force=True, min_interval=1e9, clock=lambda: t[0]
        )
        rec = TraceRecorder(cadence=0, subscribers=[watch], clock=lambda: t[0])
        rec.progress("mh", 10, 100)
        assert watch.n_renders == 1  # first render always lands
        rec.progress("mh", 99, 100)
        assert watch.n_renders == 1  # throttled — deferred, not lost
        watch.close()
        assert watch.n_renders == 2
        assert "99/100" in buf.getvalue()

    def test_stream_writer_and_bridge_see_identical_payloads(self):
        """One recorder, both consumers: the NDJSON writer and the SSE
        bridge receive byte-for-byte the same snapshot dicts."""
        from repro.serve.sse import SnapshotBridge

        buf = io.StringIO()
        frames = []
        writer = SnapshotStreamWriter(buf)
        bridge = SnapshotBridge(emit=lambda kind, data: frames.append(data))
        rec = TraceRecorder(cadence=0, subscribers=[writer, bridge])
        rec.counter("c", 2)
        rec.progress("mh", 5, 10)
        rec.publish()
        ndjson = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert len(ndjson) == len(frames) == 3
        assert ndjson == frames
        assert writer.n_received == bridge.n_received == 3
