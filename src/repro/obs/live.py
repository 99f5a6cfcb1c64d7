"""Live telemetry: the snapshot value, its sinks, and its wire formats.

A :class:`~repro.obs.recorder.TraceRecorder` with subscribers publishes
its state on a cadence as a :class:`Snapshot`: an immutable,
plain-data picture of its counters, gauges, histogram summaries,
latest progress per source, and the recent tail of each metric's
bounded time series.  Snapshots are what every downstream consumer
sees: the ``--watch`` dashboard, the NDJSON stream, the Prometheus
exposition, the :mod:`repro.obs.health` monitors, and the
``repro.serve`` SSE bridge.

Cross-process: a :class:`repro.runtime.parallel.ParallelRunner` worker
runs its own ``TraceRecorder(worker=i)``, whose one payload the parent
merges when the shard ends.  When the parent has subscribers, the
worker also publishes, and its snapshots stream back over a manager
queue during the run, giving per-worker rows on the watch dashboard
while the pool is still busy.

No threads anywhere: publication is opportunistic (checked whenever an
instrumented event arrives), which keeps the layer deterministic under
test (inject ``clock=``/``cadence=0``) and free of teardown hazards.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from typing import IO, Any, Dict, List, Mapping, Optional, Tuple, Union

from .export import _jsonable

__all__ = [
    "Snapshot",
    "SnapshotSink",
    "SnapshotStreamWriter",
    "snapshot_to_prometheus",
]


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Snapshot:
    """An immutable picture of a recorder's metric state at one instant.

    All mappings are fresh copies taken at publication; treat them as
    read-only.  ``t`` is seconds since the producing recorder started;
    ``epoch`` is that recorder's wall-clock anchor (``time.time()``),
    so ``epoch + t`` is an absolute timestamp comparable across
    processes.  ``worker`` is ``None`` on the parent and the worker
    index inside a :class:`~repro.runtime.parallel.ParallelRunner`
    shard.
    """

    seq: int
    t: float
    epoch: float
    worker: Optional[int]
    counters: Mapping[str, float] = field(default_factory=dict)
    gauges: Mapping[str, Any] = field(default_factory=dict)
    histograms: Mapping[str, Mapping[str, float]] = field(default_factory=dict)
    progress: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)
    series: Mapping[str, Tuple[Tuple[float, float], ...]] = field(
        default_factory=dict
    )

    def to_dict(self) -> Dict[str, Any]:
        """The NDJSON wire form (``obs/snapshot_schema.json``)."""
        return {
            "type": "snapshot",
            "seq": self.seq,
            "t": self.t,
            "epoch": self.epoch,
            "worker": self.worker,
            "counters": dict(self.counters),
            "gauges": _jsonable(dict(self.gauges)),
            "histograms": {k: dict(v) for k, v in self.histograms.items()},
            "progress": _jsonable(
                {k: dict(v) for k, v in self.progress.items()}
            ),
            "series": {
                name: [[t, _jsonable(v)] for t, v in points]
                for name, points in self.series.items()
            },
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "Snapshot":
        return cls(
            seq=int(d["seq"]),
            t=float(d["t"]),
            epoch=float(d["epoch"]),
            worker=d.get("worker"),
            counters=dict(d.get("counters", {})),
            gauges=dict(d.get("gauges", {})),
            histograms={
                k: dict(v) for k, v in d.get("histograms", {}).items()
            },
            progress={k: dict(v) for k, v in d.get("progress", {}).items()},
            series={
                name: tuple((float(t), float(v)) for t, v in points)
                for name, points in d.get("series", {}).items()
            },
        )


# ---------------------------------------------------------------------------
# Sinks
# ---------------------------------------------------------------------------


class SnapshotSink:
    """The consumer contract every snapshot sink implements.

    A *sink* is anything a :class:`~repro.obs.recorder.TraceRecorder` publishes to that
    has a lifetime: the ``--watch`` dashboard, the NDJSON stream
    writer, and ``repro.serve``'s per-job SSE bridge all subclass
    this.  The contract exists so every sink shares one delivery
    discipline instead of each reinventing (and mis-handling) the
    finalize edge:

    * ``__call__`` — the subscriber entry point.  It records the
      snapshot (``last_snapshot``, ``n_received``) *before* handing it
      to :meth:`on_snapshot`, so a snapshot published during engine
      finalize — after the last cadence window, possibly after the
      sink's consumer stopped caring — is always retained even if the
      subclass throttles or defers its visible effect.
    * ``close()`` — idempotent.  Calls :meth:`flush` exactly once, so
      any effect a throttled :meth:`on_snapshot` deferred (a pending
      dashboard render, a buffered SSE frame) is emitted rather than
      dropped.  Delivery after ``close()`` still updates
      ``last_snapshot`` (nothing is silently lost) but subclasses may
      skip side effects via ``self.closed``.

    Subclasses implement :meth:`on_snapshot` and optionally
    :meth:`flush`.
    """

    def __init__(self) -> None:
        self.last_snapshot: Optional[Snapshot] = None
        self.n_received = 0
        self.closed = False

    def __call__(self, snapshot: Snapshot) -> None:
        self.last_snapshot = snapshot
        self.n_received += 1
        self.on_snapshot(snapshot)

    def on_snapshot(self, snapshot: Snapshot) -> None:
        raise NotImplementedError

    def flush(self) -> None:
        """Emit any deferred effect; called once by :meth:`close`."""

    def close(self) -> None:
        if self.closed:
            return
        try:
            self.flush()
        finally:
            self.closed = True


# ---------------------------------------------------------------------------
# Wire formats
# ---------------------------------------------------------------------------


class SnapshotStreamWriter(SnapshotSink):
    """Incremental NDJSON snapshot stream (``--stream-metrics FILE|-``).

    One :meth:`Snapshot.to_dict` JSON object per line, flushed as it is
    written so a tailing consumer (or the ``repro.serve`` SSE bridge)
    sees snapshots the moment they publish.  Validated by
    ``python -m repro.obs.validate --schema snapshot``.
    """

    def __init__(self, dest: Union[str, IO[str]]) -> None:
        super().__init__()
        self._owns = False
        if dest == "-":
            self.stream: IO[str] = sys.stdout
        elif isinstance(dest, str):
            self.stream = open(dest, "w")
            self._owns = True
        else:
            self.stream = dest
        self.n_written = 0

    def on_snapshot(self, snapshot: Snapshot) -> None:
        if self.closed:
            return
        self.stream.write(
            json.dumps(snapshot.to_dict(), allow_nan=False, default=repr)
        )
        self.stream.write("\n")
        self.stream.flush()
        self.n_written += 1

    def flush(self) -> None:
        try:
            self.stream.flush()
        except ValueError:  # already-closed underlying file
            pass

    def close(self) -> None:
        if self.closed:
            return
        super().close()
        if self._owns:
            self.stream.close()
            self._owns = False


def _prom_name(name: str, prefix: str = "repro") -> str:
    out = []
    for ch in name:
        out.append(ch if ch.isalnum() or ch == "_" else "_")
    metric = "".join(out)
    if metric and metric[0].isdigit():
        metric = "_" + metric
    return f"{prefix}_{metric}"


def _prom_value(value: Any) -> Optional[str]:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    if value != value:
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    return repr(float(value))


def snapshot_to_prometheus(snapshot: Snapshot, prefix: str = "repro") -> str:
    """Prometheus text exposition (version 0.0.4) of one snapshot.

    Counters render as ``<prefix>_<name>_total`` counters, gauges as
    gauges, histogram summaries as ``_count``/``_sum`` pairs, and
    per-source progress as ``<prefix>_progress_done{source="..."}``
    (plus one gauge per progress metric).  Worker snapshots carry a
    ``worker`` label.  This string is what the future ``repro.serve``
    ``/metrics`` endpoint returns verbatim.
    """
    labels = "" if snapshot.worker is None else f'{{worker="{snapshot.worker}"}}'

    def source_labels(source: str) -> str:
        if snapshot.worker is None:
            return f'{{source="{source}"}}'
        return f'{{source="{source}",worker="{snapshot.worker}"}}'

    lines: List[str] = []
    for name in sorted(snapshot.counters):
        value = _prom_value(snapshot.counters[name])
        if value is None:
            continue
        metric = _prom_name(name, prefix) + "_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric}{labels} {value}")
    for name in sorted(snapshot.gauges):
        value = _prom_value(snapshot.gauges[name])
        if value is None:
            continue
        metric = _prom_name(name, prefix)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric}{labels} {value}")
    for name in sorted(snapshot.histograms):
        summary = snapshot.histograms[name]
        metric = _prom_name(name, prefix)
        lines.append(f"# TYPE {metric} summary")
        lines.append(f"{metric}_count{labels} {int(summary.get('count', 0))}")
        lines.append(
            f"{metric}_sum{labels} {_prom_value(summary.get('sum', 0.0))}"
        )
    for source in sorted(snapshot.progress):
        state = snapshot.progress[source]
        slabels = source_labels(source)
        done_metric = _prom_name("progress.done", prefix)
        lines.append(f"# TYPE {done_metric} gauge")
        lines.append(f"{done_metric}{slabels} {int(state.get('done', 0))}")
        total = state.get("total")
        if total is not None:
            total_metric = _prom_name("progress.total", prefix)
            lines.append(f"# TYPE {total_metric} gauge")
            lines.append(f"{total_metric}{slabels} {int(total)}")
        for key in sorted(state.get("metrics", {})):
            value = _prom_value(state["metrics"][key])
            if value is None:
                continue
            metric = _prom_name(f"progress.{key}", prefix)
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric}{slabels} {value}")
    lines.append("")
    return "\n".join(lines)
