"""The live telemetry layer: ring buffers, registry, snapshots, the
SnapshotRecorder composition, and both wire formats."""

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
    SnapshotRecorder,
    SnapshotStreamWriter,
    TraceRecorder,
    snapshot_to_prometheus,
    use_recorder,
)
from repro.obs.export import write_jsonl
from repro.obs.live import MetricsRegistry, TimeSeries

MODEL = parse(
    """
bool p, q;
p ~ Bernoulli(0.5);
if (p) { q ~ Bernoulli(0.9); } else { q ~ Bernoulli(0.1); }
observe(q);
return p;
"""
)


class TestTimeSeries:
    def test_ring_drops_oldest(self):
        ts = TimeSeries(capacity=3)
        for i in range(5):
            ts.append(float(i), float(i * 10))
        assert ts.points() == [(2.0, 20.0), (3.0, 30.0), (4.0, 40.0)]
        assert len(ts) == 3

    def test_tail_and_window(self):
        ts = TimeSeries(capacity=10)
        for i in range(6):
            ts.append(float(i), float(i))
        assert ts.tail(2) == [(4.0, 4.0), (5.0, 5.0)]
        assert ts.tail(100) == ts.points()
        assert ts.window(4.0) == [(4.0, 4.0), (5.0, 5.0)]
        assert ts.last() == (5.0, 5.0)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            TimeSeries(capacity=0)


class TestMetricsRegistry:
    def test_counters_sum_and_sample(self):
        reg = MetricsRegistry(capacity=8)
        reg.bump_counter("c", 2)
        reg.bump_counter("c", 3)
        reg.set_gauge("g", 1.5)
        reg.observe("h", 2.0)
        reg.observe("h", 4.0)
        reg.sample(t=1.0)
        assert reg.counters["c"] == 5
        assert reg.series["c"].points() == [(1.0, 5)]
        assert reg.series["g"].points() == [(1.0, 1.5)]
        h = reg.histograms["h"].to_dict()
        assert h == {"count": 2, "sum": 6.0, "min": 2.0, "max": 4.0}

    def test_merge_prefixes_worker_state(self):
        parent = MetricsRegistry()
        parent.bump_counter("c", 1)
        child = MetricsRegistry()
        child.bump_counter("c", 2)
        child.set_gauge("g", 7.0)
        child.observe("h", 1.0)
        child.note_progress("mh", 10, 20, {"accept_rate": 0.5}, t=0.5)
        child.sample(t=0.5)
        parent.merge(child.to_payload(), offset=100.0, worker=3)
        assert parent.counters["c"] == 3  # counters sum unprefixed
        assert parent.gauges["w3/g"] == 7.0
        assert parent.histograms["h"].count == 1
        prog = parent.progress["w3/mh"]
        assert prog["done"] == 10 and prog["total"] == 20
        assert prog["t"] == pytest.approx(100.5)  # epoch-rebased
        assert parent.series["w3/c"].points() == [(100.5, 2)]

    def test_merge_none_payload_is_noop(self):
        reg = MetricsRegistry()
        reg.merge(None)
        assert reg.counters == {}


class TestSnapshotWire:
    def test_round_trip(self):
        rec = SnapshotRecorder(cadence=0.0)
        rec.counter("a", 2)
        rec.progress("mh", 5, 10, accept_rate=0.4)
        snap = rec.publish()
        clone = Snapshot.from_dict(snap.to_dict())
        assert clone.seq == snap.seq
        assert clone.counters == dict(snap.counters)
        assert clone.progress["mh"]["done"] == 5
        assert clone.worker is None

    def test_wire_is_json_clean(self):
        rec = SnapshotRecorder(cadence=0.0)
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
        rec = SnapshotRecorder(cadence=0.0, subscribers=[writer])
        rec.counter("x")
        rec.counter("x")
        assert writer.n_written == rec.n_published >= 2
        lines = [json.loads(l) for l in buf.getvalue().splitlines()]
        assert [l["seq"] for l in lines] == list(range(len(lines)))
        assert all(l["type"] == "snapshot" for l in lines)

    def test_stream_writer_owns_files(self, tmp_path):
        path = tmp_path / "snap.ndjson"
        writer = SnapshotStreamWriter(str(path))
        rec = SnapshotRecorder(cadence=0.0, subscribers=[writer])
        rec.counter("x")
        writer.close()
        assert json.loads(path.read_text().splitlines()[0])["counters"] == {
            "x": 1
        }

    def test_ndjson_validates_against_schema(self, tmp_path):
        from repro.obs.validate import validate_jsonl

        path = tmp_path / "snap.ndjson"
        writer = SnapshotStreamWriter(str(path))
        rec = SnapshotRecorder(cadence=0.0, subscribers=[writer], worker=1)
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


class TestSnapshotRecorder:
    def test_cadence_throttles_publication(self):
        clock = {"t": 0.0}
        rec = SnapshotRecorder(cadence=1.0, clock=lambda: clock["t"])
        rec.counter("c")  # first event always publishes
        rec.counter("c")
        rec.counter("c")
        assert rec.n_published == 1
        clock["t"] = 1.5
        rec.counter("c")
        assert rec.n_published == 2
        assert rec.snapshots[-1].counters["c"] == 4

    def test_publish_is_unconditional(self):
        rec = SnapshotRecorder(cadence=3600.0)
        rec.counter("c")
        before = rec.n_published
        rec.publish()
        assert rec.n_published == before + 1

    def test_delegates_to_inner_trace(self):
        inner = TraceRecorder()
        rec = SnapshotRecorder(inner=inner, cadence=0.0)
        with rec.span("stage", kind="test"):
            rec.counter("c", 2)
            rec.gauge("g", 1.0)
            rec.histogram("h", 5.0)
        rec.progress("mh", 3, 9, accept_rate=0.2)
        assert inner.counters["c"] == 2
        assert inner.gauges["g"] == 1.0
        assert [s.name for s in inner.spans] == ["stage"]
        assert inner.progress_events[-1]["source"] == "mh"
        # Post-hoc queries fall through to the inner recorder.
        assert rec.counters["c"] == 2
        assert rec.find_spans("stage")

    def test_progress_mirrors_into_registry(self):
        rec = SnapshotRecorder(cadence=0.0)
        rec.progress("mh", 64, 128, accept_rate=0.75)
        snap = rec.snapshots[-1]
        assert snap.progress["mh"]["done"] == 64
        assert snap.gauges["progress.mh.accept_rate"] == 0.75
        assert snap.gauges["progress.mh.done"] == 64

    def test_subscribe_and_worker_ingest(self):
        seen = []
        rec = SnapshotRecorder(cadence=0.0, subscribers=[seen.append])
        worker = SnapshotRecorder(cadence=0.0, worker=2, health=None)
        worker.progress("mh", 10, 20, accept_rate=0.9)
        rec.ingest_worker_snapshot(worker.snapshots[-1].to_dict())
        assert rec.worker_snapshots[2].progress["mh"]["done"] == 10
        assert seen and seen[-1].worker == 2

    def test_wants_live_ignores_health_tracker(self):
        rec = SnapshotRecorder(cadence=0.0)
        assert rec.health is not None
        assert not rec.wants_live
        rec.subscribe(lambda snap: None)
        assert rec.wants_live

    def test_merge_child_folds_live_payload(self):
        parent = SnapshotRecorder(cadence=0.0)
        worker = SnapshotRecorder(cadence=0.0, worker=0, health=None)
        with worker.span("worker", worker=0, engine="mh", pid=1):
            worker.counter("engine.samples", 40)
            worker.progress("mh", 40, 40, accept_rate=0.5)
        parent.merge_child(worker.to_payload())
        # Trace half merged (span + counter), live half merged
        # (prefixed progress).
        assert parent.counters["engine.samples"] == 40
        assert parent.find_spans("worker")
        assert parent.registry.progress["w0/mh"]["done"] == 40

    def test_merge_child_tolerates_plain_trace_payload(self):
        parent = SnapshotRecorder(cadence=0.0)
        plain = TraceRecorder()
        plain.counter("c", 1)
        parent.merge_child(plain.to_payload())  # no "live" key
        assert parent.counters["c"] == 1


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
    def test_composition_preserves_jsonl_bytes(self, tmp_path, monkeypatch):
        """PR 3's JSONL export must be byte-identical with the live
        layer composed in.  Clocks are frozen so both recorders see the
        same timeline; everything else (structure, values, ordering)
        must then match to the byte."""
        monkeypatch.setattr(time, "time", lambda: 1_700_000_000.0)
        monkeypatch.setattr(time, "perf_counter", lambda: 42.0)
        monkeypatch.setattr(time, "process_time", lambda: 7.0)

        baseline = TraceRecorder()
        _scripted_workload(baseline)
        base_path = tmp_path / "base.jsonl"
        write_jsonl(baseline, str(base_path))

        inner = TraceRecorder()
        composed = SnapshotRecorder(
            inner=inner, cadence=0.0, clock=lambda: 0.0
        )
        _scripted_workload(composed)
        composed.publish()
        live_path = tmp_path / "live.jsonl"
        write_jsonl(inner, str(live_path))
        assert base_path.read_bytes() == live_path.read_bytes()

        # The wrapper itself also exports identically (attribute
        # delegation): a driver can hand either object to write_trace.
        via_wrapper = tmp_path / "wrapper.jsonl"
        write_jsonl(composed, str(via_wrapper))
        assert via_wrapper.read_bytes() == base_path.read_bytes()

    def test_composition_engine_run_structurally_identical(self):
        """On a real engine run (no clock mocking), the recorded trace
        *structure* — span names, counters, progress event sequence —
        is unchanged by live telemetry."""

        def run(recorder):
            with use_recorder(recorder):
                MetropolisHastings(n_samples=60, burn_in=10, seed=1).infer(
                    MODEL
                )

        plain = TraceRecorder()
        run(plain)
        inner = TraceRecorder()
        run(SnapshotRecorder(inner=inner, cadence=0.0))
        assert plain.counters == inner.counters
        assert [s.name for s in plain.iter_spans()] == [
            s.name for s in inner.iter_spans()
        ]
        strip = lambda events: [
            (e["source"], e["done"], e["total"]) for e in events
        ]
        assert strip(plain.progress_events) == strip(inner.progress_events)


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
        rec = SnapshotRecorder(cadence=0.0)
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
        rec = SnapshotRecorder(cadence=cadence)
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
        rec = SnapshotRecorder(cadence=0.0, worker=None)
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
        rec = SnapshotRecorder(cadence=0.0, worker=2, health=None)
        rec.counter("c", 1)
        rec.progress("mh", 1, 2)
        text = snapshot_to_prometheus(rec.publish())
        assert 'repro_c_total{worker="2"} 1.0' in text
        assert 'repro_progress_done{source="mh",worker="2"} 1' in text

    def test_skips_unrenderable_values(self):
        rec = SnapshotRecorder(cadence=0.0)
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
        rec = SnapshotRecorder(
            cadence=0, subscribers=[sink], health=None, clock=lambda: t[0]
        )
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
        rec = SnapshotRecorder(
            cadence=3600.0, subscribers=[sink], health=None,
            clock=lambda: t[0],
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
        rec = SnapshotRecorder(cadence=0, subscribers=[], health=None)
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
        rec = SnapshotRecorder(
            cadence=0, subscribers=[watch], health=None, clock=lambda: t[0]
        )
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
        rec = SnapshotRecorder(
            cadence=0, subscribers=[writer, bridge], health=None
        )
        rec.counter("c", 2)
        rec.progress("mh", 5, 10)
        rec.publish()
        ndjson = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert len(ndjson) == len(frames) == 3
        assert ndjson == frames
        assert writer.n_received == bridge.n_received == 3
