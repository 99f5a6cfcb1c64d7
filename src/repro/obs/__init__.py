"""Observability for the slice→compile→infer pipeline.

The package gives every layer of the system a shared, near-zero-cost
way to report what it is doing:

* **Spans** — hierarchical timed regions with attributes (each SLI
  stage, IR lowering, executor compilation, the parallel fan-out and
  its per-worker chains).
* **Metrics** — monotonic counters (cache hits/misses/evictions,
  slice statements kept/dropped per CFG node class), last-value
  gauges, and histogram summaries.
* **Progress** — per-iteration engine reports (acceptance rate,
  log-weight ESS, SMC resamples) that can drive a stderr progress
  line.

The default ambient recorder is :data:`NULL_RECORDER`, whose every
method is a no-op — ``benchmarks/bench_obs_overhead.py`` holds the
disabled-path overhead under 2%.  Install a :class:`TraceRecorder`
with :func:`use_recorder` (the CLI's ``--trace`` / ``--progress`` /
``--metrics-summary`` and the harness's ``recorder=`` do this), then
export with :func:`write_trace` (JSONL or Chrome trace-event format —
load the latter in ``chrome://tracing`` or https://ui.perfetto.dev).
The same recorder is the live layer: give it subscribers (a
:class:`WatchDashboard`, a :class:`SnapshotStreamWriter`, a
:class:`HealthTracker`) and it publishes a :class:`Snapshot` of its
metrics every ``cadence`` seconds while the run is in flight.
"""

from .export import (
    TRACE_FORMATS,
    chrome_trace_events,
    format_metrics_summary,
    iter_jsonl_records,
    write_chrome_trace,
    write_jsonl,
    write_trace,
)
from .progress import ProgressLine
from .recorder import (
    NULL_RECORDER,
    NullRecorder,
    Recorder,
    Span,
    TraceRecorder,
    current_recorder,
    use_recorder,
)
from .live import (
    Snapshot,
    SnapshotSink,
    SnapshotStreamWriter,
    snapshot_to_prometheus,
)
from .health import (
    HealthReport,
    HealthTracker,
    HealthWarning,
)
from .watch import WatchDashboard

__all__ = [
    "NULL_RECORDER",
    "NullRecorder",
    "Recorder",
    "Span",
    "TraceRecorder",
    "current_recorder",
    "use_recorder",
    "ProgressLine",
    "TRACE_FORMATS",
    "chrome_trace_events",
    "format_metrics_summary",
    "iter_jsonl_records",
    "write_chrome_trace",
    "write_jsonl",
    "write_trace",
    "Snapshot",
    "SnapshotSink",
    "SnapshotStreamWriter",
    "snapshot_to_prometheus",
    "HealthReport",
    "HealthTracker",
    "HealthWarning",
    "WatchDashboard",
]
