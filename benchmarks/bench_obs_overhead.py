"""Observability overhead: the disabled path must cost <2%.

``repro.obs`` instrumentation is woven through the slicing pipeline,
the compiler, the cache, and every engine's sampling loop.  The deal
that makes this acceptable is that with the default
:data:`~repro.obs.NULL_RECORDER` installed each instrumentation point
degenerates to an attribute lookup and a no-op call.  This bench holds
us to that deal two ways:

* a micro-benchmark of the null recorder's per-event cost, projected
  over the number of events an actual traced slice+infer run emits —
  an *upper bound* on what the disabled path can add (hot-loop sites
  additionally guard on ``rec.enabled``, so they are cheaper still);
* a direct A/B of the workload under the null recorder vs under a
  :class:`~repro.obs.TraceRecorder`, reported for context (recording
  is allowed to cost more; disabled is not).
"""

import time

import pytest

from repro.inference import MetropolisHastings
from repro.models import benchmark as lookup
from repro.obs import NULL_RECORDER, TraceRecorder, use_recorder
from repro.transforms import sli

from .conftest import record_block

#: Disabled-path budget from the PR acceptance criteria.
OVERHEAD_BUDGET = 0.02


def _workload(program):
    """The representative pipeline: slice, then compiled MH inference
    on the slice (fresh engine each call so nothing is memoized away
    except the process-lifetime lowering/compile caches, which both
    sides share equally)."""
    result = sli(program)
    engine = MetropolisHastings(400, burn_in=100, seed=7, compiled=True)
    engine.infer(result.sliced)
    return result


def _null_event_cost_ns(events: int = 200_000) -> float:
    """Per-event cost of the null recorder, in nanoseconds: one span
    enter/exit plus one counter per event (pessimistic — most call
    sites emit one, not both)."""
    rec = NULL_RECORDER
    t0 = time.perf_counter_ns()
    for _ in range(events):
        with rec.span("x", a=1):
            pass
        rec.counter("c")
    return (time.perf_counter_ns() - t0) / events


def test_null_recorder_overhead_budget(benchmark):
    """events(traced run) x cost(null event) must be <2% of runtime."""
    benchmark.group = "obs-overhead"
    program = lookup("BayesianLinearRegression").bench()
    # Warm the process-lifetime caches so timing measures steady state.
    _workload(program)

    # How many instrumentation events does this workload emit?  Count
    # them with a real TraceRecorder: spans + counters + gauges +
    # progress events, each conservatively priced at one null event.
    recorder = TraceRecorder()
    with use_recorder(recorder):
        _workload(program)
    n_events = (
        sum(1 for _ in recorder.iter_spans())
        + len(recorder.counters)
        + len(recorder.gauges)
        + len(recorder.progress_events)
    )
    assert n_events > 10  # the workload really is instrumented

    per_event_ns = _null_event_cost_ns()

    def run():
        with use_recorder(NULL_RECORDER):
            _workload(program)

    t0 = time.perf_counter()
    runs = 0
    while time.perf_counter() - t0 < 1.0:
        run()
        runs += 1
    baseline_s = (time.perf_counter() - t0) / runs

    projected = n_events * per_event_ns * 1e-9
    overhead = projected / baseline_s
    benchmark.extra_info["events"] = n_events
    benchmark.extra_info["per_event_ns"] = round(per_event_ns, 1)
    benchmark.extra_info["projected_overhead"] = round(overhead, 6)
    record_block(
        "Observability: disabled-path overhead",
        (
            f"workload: {baseline_s * 1000:.1f}ms, {n_events} events, "
            f"null cost {per_event_ns:.0f}ns/event\n"
            f"projected disabled-path overhead: {overhead:.3%} "
            f"(budget {OVERHEAD_BUDGET:.0%})"
        ),
    )
    benchmark.pedantic(run, rounds=3, iterations=1)
    assert overhead < OVERHEAD_BUDGET, (
        f"null-recorder overhead {overhead:.3%} exceeds "
        f"{OVERHEAD_BUDGET:.0%} budget "
        f"({n_events} events x {per_event_ns:.0f}ns on "
        f"{baseline_s * 1000:.1f}ms workload)"
    )


def test_live_layer_disabled_overhead(benchmark):
    """PR 8's live telemetry must leave the disabled path alone.

    The snapshot layer added instrumentation sites (engine baseline
    progress reports) and new modules; this re-runs the projected
    overhead check with the live layer resident in the process — a
    :class:`~repro.obs.TraceRecorder` publishing to a
    :class:`~repro.obs.HealthTracker`, exercised on the workload
    first — so the event count includes every PR 8 hook and any
    accidental ambient cost the live layer introduced would show up in
    the baseline timing.
    """
    benchmark.group = "obs-overhead"
    from repro.obs import HealthTracker, current_recorder

    program = lookup("BayesianLinearRegression").bench()
    _workload(program)  # warm process-lifetime caches
    live = TraceRecorder(cadence=0.0, subscribers=[HealthTracker()])
    with use_recorder(live):
        _workload(program)
    assert live.n_published >= 1, "live layer never published a snapshot"
    assert current_recorder() is NULL_RECORDER, "ambient recorder leaked"

    recorder = TraceRecorder()
    with use_recorder(recorder):
        _workload(program)
    n_events = (
        sum(1 for _ in recorder.iter_spans())
        + len(recorder.counters)
        + len(recorder.gauges)
        + len(recorder.progress_events)
    )
    per_event_ns = _null_event_cost_ns()

    def run():
        with use_recorder(NULL_RECORDER):
            _workload(program)

    t0 = time.perf_counter()
    runs = 0
    while time.perf_counter() - t0 < 1.0:
        run()
        runs += 1
    baseline_s = (time.perf_counter() - t0) / runs
    projected = n_events * per_event_ns * 1e-9
    overhead = projected / baseline_s
    benchmark.extra_info["events"] = n_events
    benchmark.extra_info["projected_overhead"] = round(overhead, 6)
    record_block(
        "Observability: disabled path with live layer resident",
        (
            f"workload: {baseline_s * 1000:.1f}ms, {n_events} events "
            f"(incl. PR 8 baseline hooks), null cost "
            f"{per_event_ns:.0f}ns/event\n"
            f"projected disabled-path overhead: {overhead:.3%} "
            f"(budget {OVERHEAD_BUDGET:.0%})"
        ),
    )
    benchmark.pedantic(run, rounds=3, iterations=1)
    assert overhead < OVERHEAD_BUDGET, (
        f"disabled-path overhead {overhead:.3%} with live layer resident "
        f"exceeds {OVERHEAD_BUDGET:.0%} budget"
    )


@pytest.mark.parametrize("mode", ["null", "trace"])
def test_recording_cost_ab(benchmark, mode):
    """The same workload under both recorders — context for how much
    *enabling* tracing costs (informational; no budget on this side)."""
    benchmark.group = "obs-overhead"
    program = lookup("NoisyOR").bench()
    _workload(program)  # warm caches
    recorder = NULL_RECORDER if mode == "null" else TraceRecorder()

    def run():
        with use_recorder(recorder):
            _workload(program)

    benchmark.pedantic(run, rounds=5, iterations=1)
