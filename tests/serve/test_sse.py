"""SSE framing, event-log replay semantics, and the snapshot bridge."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.inference.base import InferenceCancelled
from repro.obs.recorder import TraceRecorder
from repro.serve.jobs import Event, EventLog
from repro.serve.sse import SnapshotBridge, format_comment, format_event
from repro.serve.testing import FrozenClock

from .conftest import payload


class TestFraming:
    def test_frame_layout(self):
        frame = format_event(Event(seq=3, kind="snapshot", data={"a": 1}))
        assert frame == b'id: 3\nevent: snapshot\ndata: {"a":1}\n\n'

    def test_frame_is_compact_single_data_line(self):
        frame = format_event(
            Event(seq=0, kind="status", data={"x": "a b", "y": [1, 2]})
        )
        body = frame.split(b"data: ", 1)[1].rstrip(b"\n")
        assert json.loads(body) == {"x": "a b", "y": [1, 2]}
        assert frame.count(b"data: ") == 1

    def test_non_json_values_fall_back_to_repr(self):
        frame = format_event(
            Event(seq=1, kind="status", data={"v": {1, 2} if True else None})
        )
        assert b"event: status" in frame

    def test_comment_frame(self):
        assert format_comment("ping") == b": ping\n\n"


def collect(log, from_seq=0, limit=None):
    async def run():
        out = []
        async for event in log.replay(from_seq):
            out.append(event)
            if limit is not None and len(out) >= limit:
                break
        return out

    loop = asyncio.new_event_loop()
    try:
        return loop.run_until_complete(run())
    finally:
        loop.close()


class TestEventLogReplay:
    def test_full_history_replays_after_close(self):
        log = EventLog()
        log.append("status", {"n": 0})
        log.append("snapshot", {"n": 1})
        log.append("status", {"n": 2})
        log.close()
        events = collect(log)
        assert [(e.seq, e.kind) for e in events] == [
            (0, "status"), (1, "snapshot"), (2, "status"),
        ]

    def test_identical_replay_for_every_subscriber(self):
        log = EventLog()
        for i in range(5):
            log.append("snapshot", {"i": i})
        log.close()
        assert collect(log) == collect(log)

    def test_replay_from_seq(self):
        log = EventLog()
        for i in range(4):
            log.append("snapshot", {"i": i})
        log.close()
        assert [e.seq for e in collect(log, from_seq=2)] == [2, 3]

    def test_ring_buffer_drops_oldest_and_first_seq_tracks(self):
        log = EventLog(capacity=3)
        for i in range(10):
            log.append("snapshot", {"i": i})
        assert log.first_seq == 7
        log.close()
        assert [e.seq for e in collect(log)] == [7, 8, 9]
        # Asking for dropped history starts at the oldest retained.
        assert [e.seq for e in collect(log, from_seq=0)] == [7, 8, 9]

    def test_live_subscriber_wakes_on_append_without_polling(self):
        log = EventLog()
        log.append("status", {"n": 0})
        seen = []

        async def consume():
            async for event in log.replay(0):
                seen.append(event.seq)

        async def produce():
            log.append("snapshot", {"n": 1})
            await asyncio.sleep(0)  # one loop turn, not wall time
            log.append("status", {"n": 2})
            log.close()

        async def main():
            await asyncio.gather(consume(), produce())

        loop = asyncio.new_event_loop()
        try:
            loop.run_until_complete(main())
        finally:
            loop.close()
        assert seen == [0, 1, 2]

    def test_append_after_limit_collection(self):
        log = EventLog()
        log.append("status", {"n": 0})
        assert [e.seq for e in collect(log, limit=1)] == [0]


class TestEndpoint:
    def test_events_stream_via_client(self, client, store, fake_runner):
        job_id = client.submit(payload()).data["id"]
        job = store.get(job_id)
        fake_runner.snapshot(job, {"seq": 0, "counters": {}})
        fake_runner.finish(job)
        events = client.events(job_id)
        kinds = [e.kind for e in events]
        assert kinds[0] == "status"
        assert "snapshot" in kinds
        assert "result" in kinds
        assert kinds[-1] == "status"
        final = events[-1].data
        assert final["status"] == "done"

    def test_last_event_id_resume(self, client, store, fake_runner):
        job_id = client.submit(payload()).data["id"]
        job = store.get(job_id)
        fake_runner.snapshot(job, {"seq": 0})
        fake_runner.finish(job)
        full = client.events(job_id)
        resumed = client.events(job_id, last_event_id=full[1].seq)
        assert [e.seq for e in resumed] == [e.seq for e in full[2:]]

    def test_bad_last_event_id_is_400(self, client):
        job_id = client.submit(payload()).data["id"]
        response = client.get(
            f"/v1/jobs/{job_id}/events",
            headers={"Last-Event-ID": "xyz"},
        )
        assert response.status == 400

    def test_events_unknown_job_is_404(self, client):
        assert client.get("/v1/jobs/j-0000ff/events").status == 404

    def test_log_closes_on_terminal_status(self, client, store, fake_runner):
        job_id = client.submit(payload()).data["id"]
        job = store.get(job_id)
        assert not job.log.closed
        fake_runner.fail(job)
        assert job.log.closed


class TestSnapshotBridge:
    def test_forwards_snapshots_with_cadence_zero(self):
        emitted = []
        bridge = SnapshotBridge(emit=lambda k, d: emitted.append((k, d)))
        clock = FrozenClock()
        recorder = TraceRecorder(cadence=0, subscribers=[bridge], clock=clock)
        recorder.counter("mh.steps")
        recorder.counter("mh.steps")
        recorder.publish()  # the finalize-time snapshot
        assert len(emitted) == 3
        assert all(kind == "snapshot" for kind, _ in emitted)
        assert bridge.n_forwarded == 3
        # SnapshotSink contract: the last snapshot is retained.
        assert bridge.last_snapshot is not None
        assert bridge.last_snapshot.counters["mh.steps"] == 2

    def test_finalize_snapshot_never_dropped(self):
        """Cadence throttling may swallow intermediate events, but the
        explicit finalize publish always reaches the bridge."""
        emitted = []
        bridge = SnapshotBridge(emit=lambda k, d: emitted.append(d))
        clock = FrozenClock()
        recorder = TraceRecorder(
            cadence=100.0, subscribers=[bridge], clock=clock
        )
        recorder.counter("a")  # first event always publishes
        recorder.counter("a")  # throttled
        recorder.counter("a")  # throttled
        assert bridge.n_received == 1
        recorder.publish()  # finalize bypasses the throttle
        assert bridge.n_received == 2
        assert bridge.last_snapshot.counters["a"] == 3

    def test_cancel_raises_inside_recorder_stack(self):
        cancelled = {"flag": False}
        bridge = SnapshotBridge(
            emit=lambda k, d: None,
            should_cancel=lambda: cancelled["flag"],
        )
        recorder = TraceRecorder(
            cadence=0, subscribers=[bridge], clock=FrozenClock()
        )
        recorder.counter("ok")  # forwards fine
        cancelled["flag"] = True
        with pytest.raises(InferenceCancelled):
            recorder.counter("boom")
        # The cancelling snapshot was still retained, not forwarded.
        assert bridge.n_forwarded == 1
        assert bridge.n_received == 2
