"""Server-Sent Events framing and the snapshot→SSE bridge.

``GET /v1/jobs/{id}/events`` streams the job's :class:`EventLog` as
``text/event-stream``.  Frames carry the event's per-job ``seq`` as the
SSE ``id:``, so a reconnecting client resumes from where it left off
with the standard ``Last-Event-ID`` header — the replay semantics come
entirely from the log; this module only does the wire format.

:class:`SnapshotBridge` is the serve-side
:class:`~repro.obs.live.SnapshotSink`: subscribed to a job's
:class:`~repro.obs.recorder.TraceRecorder`, it forwards every published
snapshot into the job's event log (via the runner's thread-safe
``emit``) and doubles as the deadline enforcement point — it raises
:class:`~repro.inference.base.InferenceCancelled` *inside the engine's
thread* once the scheduler has flagged the job, which is how a
sequential in-process engine gets interrupted without any signal
machinery.  Because it subclasses ``SnapshotSink``, the finalize-time
snapshot contract from :mod:`repro.obs.live` applies verbatim: the
last snapshot is always retained on the sink and (unless cancelling)
forwarded, never dropped.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict

from ..inference.base import InferenceCancelled
from ..obs.live import Snapshot, SnapshotSink
from .jobs import Event

__all__ = ["format_event", "format_comment", "SnapshotBridge"]


def format_event(event: Event) -> bytes:
    """One SSE frame: ``id``/``event`` lines, one ``data:`` line per
    newline in the JSON body (the body is compact JSON, so in practice
    exactly one), blank-line terminated."""
    body = json.dumps(event.data, separators=(",", ":"), default=repr)
    lines = [f"id: {event.seq}", f"event: {event.kind}"]
    lines.extend(f"data: {chunk}" for chunk in body.split("\n"))
    return ("\n".join(lines) + "\n\n").encode()


def format_comment(text: str) -> bytes:
    """An SSE comment frame (keep-alives; ignored by clients)."""
    return f": {text}\n\n".encode()


class SnapshotBridge(SnapshotSink):
    """Per-job subscriber: recorder snapshots → job event log.

    ``emit(kind, data)`` must be safe to call from the engine's thread
    (the runner passes its ``post``-marshalled publisher).
    ``should_cancel`` is polled on every snapshot; when true the bridge
    raises :class:`InferenceCancelled` instead of forwarding, unwinding
    the engine cooperatively.  Cadence-0 recorders publish on every
    recorded event, making this poll tight enough for tests to cancel
    deterministically.
    """

    def __init__(
        self,
        emit: Callable[[str, Dict[str, Any]], None],
        should_cancel: Callable[[], bool] = lambda: False,
    ) -> None:
        super().__init__()
        self._emit = emit
        self._should_cancel = should_cancel
        self.n_forwarded = 0

    def on_snapshot(self, snapshot: Snapshot) -> None:
        if self._should_cancel():
            raise InferenceCancelled(
                "job cancelled while streaming snapshots"
            )
        self._emit("snapshot", snapshot.to_dict())
        self.n_forwarded += 1
