"""Exporters for :class:`repro.obs.TraceRecorder` buffers.

Two wire formats plus a human summary:

* :func:`write_jsonl` — one JSON object per line (``meta``, ``span``,
  ``counter``, ``gauge``, ``histogram``, ``progress`` records; spans
  are flattened depth-first with ``id``/``parent`` links).  The line
  schema is checked in at ``src/repro/obs/trace_schema.json`` and
  enforced by :mod:`repro.obs.validate` (CI runs it on a traced CLI run).
* :func:`write_chrome_trace` — the Chrome trace-event JSON array
  (``chrome://tracing`` / https://ui.perfetto.dev): complete events
  (``ph: "X"``) with microsecond timestamps; spans merged from a
  parallel worker render on their own ``tid`` so per-worker chains
  show as separate tracks.
* :func:`format_metrics_summary` — aligned plain text (stage timings,
  counters, gauges, histogram summaries) for ``--metrics-summary``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, IO, Iterator, List, Optional, Union

from .recorder import Span, TraceRecorder

__all__ = [
    "TRACE_FORMATS",
    "iter_jsonl_records",
    "write_jsonl",
    "chrome_trace_events",
    "write_chrome_trace",
    "write_trace",
    "format_metrics_summary",
]

TRACE_FORMATS = ("jsonl", "chrome")


# ---------------------------------------------------------------------------
# JSONL
# ---------------------------------------------------------------------------


def iter_jsonl_records(recorder: TraceRecorder) -> Iterator[Dict[str, Any]]:
    """The JSONL records, in emission order."""
    yield {
        "type": "meta",
        "version": 1,
        "epoch": recorder.epoch,
        "n_spans": sum(1 for _ in recorder.iter_spans()),
    }
    next_id = 0

    def walk(span: Span, parent: Optional[int]) -> Iterator[Dict[str, Any]]:
        nonlocal next_id
        sid = next_id
        next_id += 1
        yield {
            "type": "span",
            "id": sid,
            "parent": parent,
            "name": span.name,
            "start_s": span.start,
            "dur_s": span.duration,
            "cpu_s": span.cpu,
            "attrs": _jsonable(span.attrs),
        }
        for child in span.children:
            yield from walk(child, sid)

    for root in recorder.spans:
        yield from walk(root, None)
    for name in sorted(recorder.counters):
        yield {"type": "counter", "name": name, "value": recorder.counters[name]}
    for name in sorted(recorder.gauges):
        yield {"type": "gauge", "name": name, "value": _jsonable(recorder.gauges[name])}
    for name in sorted(recorder.histograms):
        values = recorder.histograms[name]
        yield {
            "type": "histogram",
            "name": name,
            "count": len(values),
            "sum": float(sum(values)),
            "min": float(min(values)),
            "max": float(max(values)),
        }
    for event in recorder.progress_events:
        yield {
            "type": "progress",
            "t": event["t"],
            "source": event["source"],
            "done": event["done"],
            "total": event["total"],
            "metrics": _jsonable(event["metrics"]),
        }


def write_jsonl(recorder: TraceRecorder, dest: Union[str, IO[str]]) -> int:
    """Write the JSONL export; returns the number of records."""
    n = 0
    if isinstance(dest, str):
        with open(dest, "w") as f:
            return write_jsonl(recorder, f)
    for record in iter_jsonl_records(recorder):
        dest.write(json.dumps(record, allow_nan=False, default=_fallback))
        dest.write("\n")
        n += 1
    return n


# ---------------------------------------------------------------------------
# Chrome trace events
# ---------------------------------------------------------------------------


def chrome_trace_events(recorder: TraceRecorder) -> List[Dict[str, Any]]:
    """Trace-event dicts (the JSON-array flavor Perfetto ingests)."""
    events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": "repro"},
        }
    ]
    tids = {0: "main"}

    def walk(span: Span, tid: int) -> None:
        # A span merged from a parallel worker opens its own track.
        worker = span.attrs.get("worker")
        if worker is not None:
            tid = int(worker) + 1
            tids.setdefault(tid, f"worker {worker}")
        events.append(
            {
                "name": span.name,
                "ph": "X",
                "ts": span.start * 1e6,
                "dur": span.duration * 1e6,
                "pid": 0,
                "tid": tid,
                "args": _jsonable(span.attrs),
            }
        )
        for child in span.children:
            walk(child, tid)

    for root in recorder.spans:
        walk(root, 0)
    for tid, label in tids.items():
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": tid,
                "args": {"name": label},
            }
        )
    for event in recorder.progress_events:
        events.append(
            {
                "name": f"progress/{event['source']}",
                "ph": "i",
                "s": "g",
                "ts": event["t"] * 1e6,
                "pid": 0,
                "tid": 0,
                "args": _jsonable(
                    {"done": event["done"], "total": event["total"], **event["metrics"]}
                ),
            }
        )
    return events


def write_chrome_trace(recorder: TraceRecorder, dest: Union[str, IO[str]]) -> int:
    """Write the Chrome trace JSON array; returns the event count."""
    events = chrome_trace_events(recorder)
    if isinstance(dest, str):
        with open(dest, "w") as f:
            json.dump(events, f, default=_fallback)
    else:
        json.dump(events, dest, default=_fallback)
    return len(events)


def write_trace(
    recorder: TraceRecorder, path: str, trace_format: str = "jsonl"
) -> int:
    """Dispatch on ``trace_format`` (one of :data:`TRACE_FORMATS`)."""
    if trace_format == "jsonl":
        return write_jsonl(recorder, path)
    if trace_format == "chrome":
        return write_chrome_trace(recorder, path)
    raise ValueError(
        f"unknown trace format {trace_format!r}; expected one of {TRACE_FORMATS}"
    )


# ---------------------------------------------------------------------------
# Text summary
# ---------------------------------------------------------------------------


def format_metrics_summary(recorder: TraceRecorder) -> str:
    """Stage timings + metrics as aligned text (``--metrics-summary``)."""
    lines: List[str] = []
    stages = recorder.stage_seconds()
    if stages:
        lines.append("== stage timings ==")
        width = max(len(n) for n in stages)
        for name, secs in sorted(stages.items(), key=lambda kv: -kv[1]):
            lines.append(f"  {name:<{width}}  {secs * 1000:10.2f} ms")
    if recorder.counters:
        lines.append("== counters ==")
        width = max(len(n) for n in recorder.counters)
        for name in sorted(recorder.counters):
            lines.append(f"  {name:<{width}}  {recorder.counters[name]:g}")
    if recorder.gauges:
        lines.append("== gauges ==")
        width = max(len(n) for n in recorder.gauges)
        for name in sorted(recorder.gauges):
            lines.append(f"  {name:<{width}}  {recorder.gauges[name]:g}")
    if recorder.histograms:
        lines.append("== histograms ==")
        width = max(len(n) for n in recorder.histograms)
        for name in sorted(recorder.histograms):
            vs = recorder.histograms[name]
            lines.append(
                f"  {name:<{width}}  n={len(vs)} sum={sum(vs):g} "
                f"min={min(vs):g} max={max(vs):g}"
            )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# JSON hygiene
# ---------------------------------------------------------------------------


def _jsonable(value: Any) -> Any:
    """Coerce attribute values to JSON-encodable types (repr fallback)."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float):
        # NaN/Inf are not valid JSON; stringify them.
        if value != value or value in (float("inf"), float("-inf")):
            return repr(value)
        return value
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    return repr(value)


def _fallback(value: Any) -> str:
    return repr(value)
