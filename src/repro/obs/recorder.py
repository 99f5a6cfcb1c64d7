"""The Recorder protocol and the one metric store.

Two implementations share one duck-typed surface:

* :data:`NULL_RECORDER` (a :class:`NullRecorder`) — the process-wide
  default.  Every method is a no-op and :meth:`NullRecorder.span`
  returns one shared null context manager, so instrumentation woven
  through the hot paths costs an attribute lookup and a call — the
  disabled-path overhead budget that
  ``benchmarks/bench_obs_overhead.py`` enforces (<2%).  Call sites
  that would do *extra work to compute attributes* (walking an AST to
  classify statements, say) must guard on :attr:`Recorder.enabled`.
* :class:`TraceRecorder` — buffers hierarchical spans (wall + CPU
  time, free-form attributes), typed metrics (monotonic counters,
  last-value gauges, count/sum/min/max histogram summaries), every
  per-engine progress event and the latest state per progress source.
  Export lives in :mod:`repro.obs.export`.  Given subscribers, it also
  publishes a :class:`~repro.obs.live.Snapshot` of that state every
  ``cadence`` seconds, on the recording thread, and keeps a bounded
  time series per counter and gauge for the snapshots to carry.

The ambient recorder is a :mod:`contextvars` variable:
:func:`current_recorder` reads it (the instrumented layers call this
once per stage, never per iteration) and :func:`use_recorder` is the
context manager the CLI / harness / tests install a recorder with.

Cross-process merging (the :class:`repro.runtime.parallel
.ParallelRunner` worker protocol): a worker builds its own
``TraceRecorder(worker=i)``, serializes it with
:meth:`TraceRecorder.to_payload` (plain dicts — picklable under fork,
spawn, and forkserver alike), and the parent folds it in with
:meth:`TraceRecorder.merge_child`.  Span timestamps are kept relative
to each recorder's wall-clock epoch, so merging re-bases the child's
spans by the epoch difference and the merged tree lines up on one
timeline.
"""

from __future__ import annotations

import contextvars
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Deque, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple
)

from .live import Snapshot

__all__ = [
    "Span",
    "HistogramSummary",
    "NullRecorder",
    "NULL_RECORDER",
    "TraceRecorder",
    "Recorder",
    "current_recorder",
    "use_recorder",
]


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


@dataclass
class Span:
    """One timed region.  ``start``/``end`` are wall-clock seconds
    relative to the owning recorder's ``epoch``; ``cpu`` is the CPU
    seconds consumed between enter and exit (process-wide clock, so
    concurrent spans overlap)."""

    name: str
    start: float
    end: float = 0.0
    cpu: float = 0.0
    attrs: Dict[str, Any] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes; chainable, usable on the open span."""
        self.attrs.update(attrs)
        return self

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "cpu": self.cpu,
            "attrs": dict(self.attrs),
            "children": [c.to_dict() for c in self.children],
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "Span":
        return cls(
            name=d["name"],
            start=d["start"],
            end=d["end"],
            cpu=d.get("cpu", 0.0),
            attrs=dict(d.get("attrs", {})),
            children=[cls.from_dict(c) for c in d.get("children", [])],
        )

    def shifted(self, offset: float) -> "Span":
        """A copy with every timestamp moved by ``offset`` seconds."""
        return Span(
            name=self.name,
            start=self.start + offset,
            end=self.end + offset,
            cpu=self.cpu,
            attrs=dict(self.attrs),
            children=[c.shifted(offset) for c in self.children],
        )


class _NullSpan:
    """The shared do-nothing span/context-manager."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class _ActiveSpan:
    """Context manager around one :class:`Span` on a recorder's stack."""

    __slots__ = ("_recorder", "span")

    def __init__(self, recorder: "TraceRecorder", span: Span) -> None:
        self._recorder = recorder
        self.span = span

    def __enter__(self) -> Span:
        rec = self._recorder
        span = self.span
        span.start = rec._now()
        rec._cpu_marks.append(time.process_time())
        rec._stack.append(span)
        return span

    def __exit__(self, *exc: object) -> bool:
        rec = self._recorder
        span = rec._stack.pop()
        span.end = rec._now()
        span.cpu = time.process_time() - rec._cpu_marks.pop()
        if rec._stack:
            rec._stack[-1].children.append(span)
        else:
            rec.spans.append(span)
        return False


# ---------------------------------------------------------------------------
# Recorders
# ---------------------------------------------------------------------------


class NullRecorder:
    """The default recorder: records nothing, costs (almost) nothing."""

    enabled = False

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def counter(self, name: str, value: float = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def histogram(self, name: str, value: float) -> None:
        pass

    def progress(
        self, source: str, done: int, total: Optional[int], **metrics: float
    ) -> None:
        pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NullRecorder()"


NULL_RECORDER = NullRecorder()


@dataclass
class HistogramSummary:
    """A histogram's count, sum, min and max — all either exporter
    prints, so the values themselves are not kept."""

    count: int = 0
    sum: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def merge(self, other: Mapping[str, float]) -> None:
        """Add another (non-empty) summary in its :meth:`to_dict` form."""
        self.count += int(other["count"])
        self.sum += other["sum"]
        self.min = min(self.min, other["min"])
        self.max = max(self.max, other["max"])

    def to_dict(self) -> Dict[str, float]:
        return {"count": self.count, "sum": self.sum, "min": self.min, "max": self.max}


#: Points kept per counter/gauge series (oldest dropped first).
SERIES_CAPACITY = 256
#: Most recent points of each series that a snapshot carries.
SERIES_TAIL = 32
#: Most recent snapshots a recorder keeps in :attr:`TraceRecorder.snapshots`.
SNAPSHOTS_KEPT = 1024


class TraceRecorder:
    """In-memory recorder of spans, metrics, and progress events.

    ``on_progress`` — optional callable invoked with every progress
    event dict (the stderr progress line registers here).
    ``subscribers`` — snapshot consumers (the ``--watch`` dashboard, an
    NDJSON stream, a :class:`~repro.obs.health.HealthTracker`, the
    service's SSE bridge).  With none, nothing is ever published.
    ``cadence`` — minimum seconds between published snapshots (``0``
    publishes on every metric or progress event: the deterministic
    test mode).  ``worker`` — the worker index inside a
    :class:`~repro.runtime.parallel.ParallelRunner` shard, ``None`` on
    the parent.  ``clock`` — monotonic time source of the snapshot
    timeline, injectable for tests.
    """

    enabled = True

    def __init__(
        self,
        on_progress: Optional[Callable[[Dict[str, Any]], None]] = None,
        cadence: float = 0.25,
        subscribers: Iterable[Callable[[Snapshot], None]] = (),
        worker: Optional[int] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if cadence < 0:
            raise ValueError("cadence must be >= 0")
        #: Wall-clock (``time.time``) instant all span times are
        #: relative to — the cross-process alignment anchor.
        self.epoch = time.time()
        self._perf0 = time.perf_counter()
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, HistogramSummary] = {}
        self.progress_events: List[Dict[str, Any]] = []
        #: Latest state per progress source: ``done``, ``total``, ``t``
        #: and ``first_t`` (snapshot-clock seconds), ``events`` (reports
        #: so far) and the latest ``metrics``.
        self.progress_state: Dict[str, Dict[str, Any]] = {}
        #: Bounded ``(t, value)`` history per counter and gauge, sampled
        #: at each publication.
        self.series: Dict[str, Deque[Tuple[float, float]]] = {}
        self.on_progress = on_progress
        self.cadence = cadence
        self.subscribers: List[Callable[[Snapshot], None]] = list(subscribers)
        self.worker = worker
        #: The most recent snapshots (bounded), for post-hoc readers.
        self.snapshots: Deque[Snapshot] = deque(maxlen=SNAPSHOTS_KEPT)
        self.n_published = 0
        self._clock = clock
        self._start = clock()
        self._last_pub: Optional[float] = None
        self._stack: List[Span] = []
        self._cpu_marks: List[float] = []

    # -- time ----------------------------------------------------------------

    def _now(self) -> float:
        return time.perf_counter() - self._perf0

    # -- spans ---------------------------------------------------------------

    def span(self, name: str, **attrs: Any) -> _ActiveSpan:
        """``with recorder.span("stage", key=...) as sp: ...`` — the
        span closes (and is attached to its parent) on exit."""
        return _ActiveSpan(self, Span(name=name, start=0.0, attrs=attrs))

    # -- metrics ---------------------------------------------------------------

    def counter(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value
        if self.subscribers:
            self.maybe_publish()

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value
        if self.subscribers:
            self.maybe_publish()

    def histogram(self, name: str, value: float) -> None:
        self.histograms.setdefault(name, HistogramSummary()).observe(value)
        if self.subscribers:
            self.maybe_publish()

    # -- progress --------------------------------------------------------------

    def progress(
        self, source: str, done: int, total: Optional[int], **metrics: float
    ) -> None:
        """One engine progress report (``done`` of ``total`` units).

        The latest value of each metric is mirrored into gauges as
        ``progress.<source>.<metric>`` so a summary needs no replay.
        """
        event: Dict[str, Any] = {
            "t": self._now(),
            "source": source,
            "done": done,
            "total": total,
            "metrics": dict(metrics),
        }
        self.progress_events.append(event)
        self.gauges[f"progress.{source}.done"] = done
        for key, value in metrics.items():
            self.gauges[f"progress.{source}.{key}"] = value
        t = self._clock() - self._start
        state = self.progress_state.get(source)
        if state is None:
            state = self.progress_state[source] = {
                "done": 0, "total": total, "t": t, "first_t": t,
                "events": 0, "metrics": {},
            }
        state.update(done=done, total=total, t=t, metrics=event["metrics"])
        state["events"] += 1
        if self.on_progress is not None:
            self.on_progress(event)
        if self.subscribers:
            self.maybe_publish()

    # -- publication -----------------------------------------------------------

    def maybe_publish(self) -> Optional[Snapshot]:
        """Publish if at least ``cadence`` seconds have passed since
        the previous publication (always publishes the first time)."""
        now = self._clock() - self._start
        if self._last_pub is not None and now - self._last_pub < self.cadence:
            return None
        return self.publish()

    def publish(self) -> Optional[Snapshot]:
        """Sample the series and hand every subscriber a snapshot,
        whatever the cadence; with no subscriber, do nothing."""
        if not self.subscribers:
            return None
        t = self._clock() - self._start
        self._last_pub = t
        for name, value in self.counters.items():
            self._sample(name, t, value)
        for name, value in self.gauges.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                self._sample(name, t, float(value))
        snapshot = Snapshot(
            seq=self.n_published,
            t=t,
            epoch=self.epoch,
            worker=self.worker,
            counters=dict(self.counters),
            gauges=dict(self.gauges),
            histograms={k: h.to_dict() for k, h in self.histograms.items()},
            progress=_copy_states(self.progress_state),
            series={
                name: tuple(points)[-SERIES_TAIL:]
                for name, points in self.series.items()
            },
        )
        self.n_published += 1
        self.snapshots.append(snapshot)
        for fn in self.subscribers:
            fn(snapshot)
        return snapshot

    def _sample(self, name: str, t: float, value: float) -> None:
        points = self.series.get(name)
        if points is None:
            points = self.series[name] = deque(maxlen=SERIES_CAPACITY)
        points.append((t, value))

    def ingest_worker_snapshot(self, payload: Mapping[str, Any]) -> None:
        """Hand one in-flight worker snapshot (:meth:`Snapshot.to_dict`
        form, shipped over the parallel runner's queue) to the
        subscribers.  It is not merged into this store: the worker's
        final payload is, once, by :meth:`merge_child`."""
        snapshot = Snapshot.from_dict(payload)
        for fn in self.subscribers:
            fn(snapshot)

    # -- cross-process merge ---------------------------------------------------

    def to_payload(self) -> Dict[str, Any]:
        """The whole store as plain data, for shipping across a process
        boundary (the one payload a parallel worker sends home)."""
        return {
            "epoch": self.epoch,
            "worker": self.worker,
            "spans": [s.to_dict() for s in self.spans],
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {k: h.to_dict() for k, h in self.histograms.items()},
            "progress": [dict(e) for e in self.progress_events],
            "progress_state": _copy_states(self.progress_state),
            "series": {name: list(points) for name, points in self.series.items()},
        }

    def merge_child(self, payload: Optional[Dict[str, Any]]) -> None:
        """Fold a worker's :meth:`to_payload` into this recorder.

        Child spans are re-based onto this recorder's timeline (epoch
        difference) and attached under the currently open span (the
        parallel fan-out span) or at the root; progress events append
        with re-based timestamps.  Counters and histograms add under
        their own names.  Gauges, progress state and series are the
        worker's own view, so those of worker *i* merge under a
        ``w<i>/`` prefix (a payload with no worker index merges
        unprefixed, last write wins).
        """
        if payload is None:
            return
        offset = payload["epoch"] - self.epoch
        worker = payload["worker"]
        prefix = "" if worker is None else f"w{worker}/"
        sink = self._stack[-1].children if self._stack else self.spans
        for d in payload["spans"]:
            sink.append(Span.from_dict(d).shifted(offset))
        for name, value in payload["counters"].items():
            self.counters[name] = self.counters.get(name, 0) + value
        for name, other in payload["histograms"].items():
            self.histograms.setdefault(name, HistogramSummary()).merge(other)
        for name, value in payload["gauges"].items():
            self.gauges[prefix + name] = value
        for event in payload["progress"]:
            self.progress_events.append(dict(event, t=event["t"] + offset))
        for source, state in _copy_states(payload["progress_state"]).items():
            state["t"] += offset
            state["first_t"] += offset
            self.progress_state[prefix + source] = state
        for name, points in payload["series"].items():
            for t, value in points:
                self._sample(prefix + name, t + offset, value)

    # -- queries ---------------------------------------------------------------

    def iter_spans(self) -> Iterator[Span]:
        """Depth-first over every span: finished roots plus the open
        stack (whose attached children are already finished)."""
        stack = list(reversed(self.spans + self._stack))
        while stack:
            span = stack.pop()
            yield span
            stack.extend(reversed(span.children))

    def find_spans(self, name: str) -> List[Span]:
        return [s for s in self.iter_spans() if s.name == name]

    def stage_seconds(self) -> Dict[str, float]:
        """Total wall seconds per span name, summed over occurrences
        (spans still open are skipped)."""
        out: Dict[str, float] = {}
        for span in self.iter_spans():
            if span.end < span.start:  # still open
                continue
            out[span.name] = out.get(span.name, 0.0) + span.duration
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceRecorder(spans={len(self.spans)}, "
            f"counters={len(self.counters)}, "
            f"progress={len(self.progress_events)}, "
            f"published={self.n_published})"
        )


def _copy_states(states: Mapping[str, Mapping[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Progress states copied deep enough that later reports do not
    show through."""
    return {
        source: dict(state, metrics=dict(state["metrics"]))
        for source, state in states.items()
    }


#: Structural union for annotations; both implementations satisfy it.
Recorder = object


# ---------------------------------------------------------------------------
# The ambient recorder
# ---------------------------------------------------------------------------

_CURRENT: "contextvars.ContextVar[Any]" = contextvars.ContextVar(
    "repro_obs_recorder", default=NULL_RECORDER
)


def current_recorder() -> Any:
    """The ambient recorder (default: :data:`NULL_RECORDER`)."""
    return _CURRENT.get()


@contextmanager
def use_recorder(recorder: Any) -> Iterator[Any]:
    """Install ``recorder`` as the ambient recorder for the block."""
    token = _CURRENT.set(recorder)
    try:
        yield recorder
    finally:
        _CURRENT.reset(token)
