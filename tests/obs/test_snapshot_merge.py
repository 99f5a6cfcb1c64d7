"""Snapshot aggregation across process boundaries.

A parallel run under a publishing recorder must merge worker telemetry
into the same store state regardless of the backend that scheduled the
work — fork / spawn / forkserver workers and the inline backend all
land identical counters and per-worker progress (times differ; values
must not)."""

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

N_WORKERS = 2


def _live_run(engine, backend, subscribers=(lambda snapshot: None,)):
    recorder = TraceRecorder(cadence=0.0, subscribers=list(subscribers))
    with use_recorder(recorder):
        result = ParallelRunner(n_workers=N_WORKERS, backend=backend).run(
            engine, MODEL
        )
    recorder.publish()
    return recorder, result


def _store_state(recorder):
    """The backend-independent view of a merged store: counter sums,
    and per-source progress done/total (no timestamps)."""
    progress = {
        key: (state["done"], state["total"])
        for key, state in recorder.progress_state.items()
    }
    return dict(recorder.counters), progress


class TestMergeAcrossBackends:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_mh_store_state_matches_inline(self, backend):
        engine = MetropolisHastings(n_samples=256, burn_in=32, seed=3)
        baseline, _ = _live_run(engine, "inline")
        recorder, result = _live_run(engine, backend)
        assert _store_state(recorder) == _store_state(baseline)
        assert len(result.samples) == 256

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_lw_store_state_matches_inline(self, backend):
        engine = LikelihoodWeighting(n_samples=512, seed=5)
        baseline, _ = _live_run(engine, "inline")
        recorder, _ = _live_run(engine, backend)
        assert _store_state(recorder) == _store_state(baseline)

    def test_worker_progress_is_prefixed_and_complete(self):
        engine = MetropolisHastings(n_samples=256, burn_in=32, seed=3)
        recorder, _ = _live_run(engine, "inline")
        sources = set(recorder.progress_state)
        assert sources == {f"w{i}/{engine.name}" for i in range(N_WORKERS)}
        for state in recorder.progress_state.values():
            assert state["done"] >= state["total"]
        final = recorder.snapshots[-1]
        assert set(final.progress) == sources

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_worker_spans_still_merge(self, backend):
        """Publishing leaves the worker span merge untouched."""
        engine = MetropolisHastings(n_samples=128, burn_in=16, seed=1)
        recorder, _ = _live_run(engine, backend)
        workers = recorder.find_spans("worker")
        assert sorted(s.attrs["worker"] for s in workers) == list(
            range(N_WORKERS)
        )


class TestInFlightSnapshots:
    def test_inline_backend_streams_worker_snapshots(self):
        """With a subscriber attached, worker snapshots arrive *during*
        the run (via the inline sink) tagged with their worker index;
        each worker's last one carries its final progress."""
        seen = []
        engine = MetropolisHastings(n_samples=256, burn_in=32, seed=3)
        recorder, _ = _live_run(engine, "inline", subscribers=[seen.append])
        worker_ids = {s.worker for s in seen if s.worker is not None}
        assert worker_ids == set(range(N_WORKERS))
        last = [s for s in seen if s.worker == 0][-1]
        assert last.progress[engine.name]["done"] >= 128
        # In-flight snapshots reach subscribers only; the store holds
        # the merged payloads, once.
        assert set(recorder.progress_state) == {
            f"w{i}/{engine.name}" for i in range(N_WORKERS)
        }

    def test_no_subscribers_means_no_streaming_plumbing(self):
        """Without subscribers no worker publishes and the runner pays
        for no sink: worker telemetry only lands via the end-of-run
        payload merge."""
        engine = MetropolisHastings(n_samples=64, burn_in=8, seed=1)
        recorder, _ = _live_run(engine, "inline", subscribers=())
        assert recorder.n_published == 0
        assert recorder.series == {}
        # ... but the merged store still has their telemetry.
        assert set(recorder.progress_state) == {
            f"w{i}/{engine.name}" for i in range(N_WORKERS)
        }

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="fork start method unavailable",
    )
    def test_fork_backend_streams_worker_snapshots(self):
        """Cross-process in-flight streaming: snapshots cross the
        manager queue while the pool is running."""
        seen = []
        engine = MetropolisHastings(n_samples=512, burn_in=64, seed=3)
        recorder, _ = _live_run(engine, "fork", subscribers=[seen.append])
        worker_ids = {s.worker for s in seen if s.worker is not None}
        assert worker_ids == set(range(N_WORKERS))
