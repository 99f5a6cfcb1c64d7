"""Recorder merge across process boundaries.

The ISSUE acceptance criterion: the merged span tree and counter sums
from a parallel run must be identical across every available backend
(fork / spawn / forkserver / inline), and the counter sums must equal
what the same engine reports at ``n_workers=1`` — observability must
not depend on how the work was scheduled.
"""

import multiprocessing

import pytest

from repro.core.parser import parse
from repro.inference import LikelihoodWeighting, MetropolisHastings
from repro.obs import TraceRecorder, use_recorder
from repro.runtime import ParallelRunner

BACKENDS = ["inline"] + multiprocessing.get_all_start_methods()

MODEL = parse(
    """
bool p, q;
p ~ Bernoulli(0.5);
if (p) { q ~ Bernoulli(0.9); } else { q ~ Bernoulli(0.1); }
observe(q);
return p;
"""
)


def _traced_run(engine, n_workers, backend="inline"):
    recorder = TraceRecorder()
    with use_recorder(recorder):
        result = ParallelRunner(n_workers=n_workers, backend=backend).run(
            engine, MODEL
        )
    return recorder, result


def _span_tree(recorder):
    """The merged span structure as comparable (name, sorted-children)
    nesting, with worker spans sorted by their worker index."""

    def shape(span):
        return (
            span.name,
            span.attrs.get("worker"),
            tuple(shape(c) for c in span.children),
        )

    def key(s):
        return (s[0], -1 if s[1] is None else s[1])

    roots = [shape(s) for s in recorder.spans]
    return tuple(sorted(roots, key=key))


@pytest.mark.parametrize("backend", BACKENDS)
class TestAcrossBackends:
    def test_span_tree_and_counters_match_inline(self, backend):
        engine = MetropolisHastings(n_samples=40, burn_in=5, seed=3)
        reference, ref_result = _traced_run(engine, 2, "inline")
        recorder, result = _traced_run(engine, 2, backend)
        assert _span_tree(recorder) == _span_tree(reference)
        assert recorder.counters == reference.counters
        assert result.samples == ref_result.samples

    def test_per_worker_spans_present(self, backend):
        engine = MetropolisHastings(n_samples=40, burn_in=5, seed=3)
        recorder, _ = _traced_run(engine, 3, backend)
        run_spans = recorder.find_spans("parallel.run")
        assert len(run_spans) == 1
        workers = recorder.find_spans("worker")
        assert sorted(s.attrs["worker"] for s in workers) == [0, 1, 2]
        # Worker spans nest under the fan-out span.
        assert {c.name for c in run_spans[0].children} == {"worker"}
        for span in workers:
            assert span.attrs["engine"] == engine.name
            assert span.duration > 0.0

    def test_counter_sums_equal_single_worker(self, backend):
        # MH chains always deliver their full shard budget, so both
        # engine-emitted totals are scheduling-invariant.
        engine = MetropolisHastings(n_samples=48, burn_in=5, seed=9)
        single, single_result = _traced_run(engine, 1, "inline")
        multi, multi_result = _traced_run(engine, 4, backend)
        assert len(multi_result.samples) == len(single_result.samples)
        assert (
            multi.counters["engine.samples"]
            == single.counters["engine.samples"]
        )
        assert multi.counters["engine.samples"] == len(multi_result.samples)

    def test_counters_track_merged_result(self, backend):
        # Likelihood weighting discards zero-weight draws, so sample
        # counts vary with the seed stream — but the merged counters
        # must agree with the merged result, and the proposal total
        # (draw budget) is scheduling-invariant.
        engine = LikelihoodWeighting(n_samples=64, seed=9)
        single, _ = _traced_run(engine, 1, "inline")
        multi, multi_result = _traced_run(engine, 4, backend)
        assert multi.counters["engine.samples"] == len(multi_result.samples)
        assert (
            multi.counters["engine.proposals"]
            == single.counters["engine.proposals"]
        )

    def test_progress_events_survive_the_boundary(self, backend):
        engine = LikelihoodWeighting(n_samples=600, seed=9)
        recorder, _ = _traced_run(engine, 2, backend)
        sources = {e["source"] for e in recorder.progress_events}
        assert engine.name in sources

    def test_each_worker_keeps_its_gauges(self, backend):
        # Gauges are per-worker state: worker i's land under w<i>/,
        # none under the bare name (last write would win there).
        engine = MetropolisHastings(n_samples=40, burn_in=5, seed=3)
        recorder, _ = _traced_run(engine, 2, backend)
        done = {
            name: value
            for name, value in recorder.gauges.items()
            if name.endswith("progress.r2-mh.done")
        }
        assert set(done) == {
            "w0/progress.r2-mh.done",
            "w1/progress.r2-mh.done",
        }
        assert all(value >= 20 for value in done.values())


class TestMergeDetails:
    def test_worker_pids_differ_under_processes(self):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork unavailable")
        engine = MetropolisHastings(n_samples=30, burn_in=5, seed=1)
        recorder, _ = _traced_run(engine, 2, "fork")
        pids = {s.attrs["pid"] for s in recorder.find_spans("worker")}
        assert len(pids) == 2

    def test_inline_worker_spans_share_this_pid(self):
        import os

        engine = MetropolisHastings(n_samples=30, burn_in=5, seed=1)
        recorder, _ = _traced_run(engine, 2, "inline")
        pids = {s.attrs["pid"] for s in recorder.find_spans("worker")}
        assert pids == {os.getpid()}

    def test_no_recorder_means_no_payload_shipping(self):
        # Without an enabled ambient recorder the workers must not
        # build/ship trace payloads (the disabled path stays cheap).
        engine = MetropolisHastings(n_samples=30, burn_in=5, seed=1)
        result = ParallelRunner(n_workers=2, backend="inline").run(
            engine, MODEL
        )
        assert len(result.samples) == 30

    def test_rebased_worker_spans_fit_inside_run_span(self):
        engine = MetropolisHastings(n_samples=40, burn_in=5, seed=3)
        recorder, _ = _traced_run(engine, 2, "inline")
        run = recorder.find_spans("parallel.run")[0]
        for worker in recorder.find_spans("worker"):
            # Generous slack: epoch alignment uses wall clocks.
            assert worker.start >= run.start - 0.05
            assert worker.end <= run.end + 0.05
