"""Inference-health monitors: synthetic snapshots for each monitor,
then the calibration criterion on real Table-1 programs (sliced
BayesianLinearRegression collapses, Ex3 stays clean)."""

import pytest

from repro.inference import MetropolisHastings
from repro.models import TABLE1
from repro.models import benchmark as lookup
from repro.obs import TraceRecorder, use_recorder
from repro.obs.health import (
    AcceptanceCollapseMonitor,
    ConvergenceMonitor,
    HealthReport,
    HealthTracker,
    HealthWarning,
    ResampleStormMonitor,
    StallMonitor,
    WeightDegeneracyMonitor,
    default_monitors,
)
from repro.transforms import sli


def _snap(rec):
    """Publish and return the latest snapshot."""
    return rec.publish()


def _mh_progress(rec, done, total, rate, source="r2-mh"):
    rec.progress(source, done, total, accept_rate=rate)


class TestAcceptanceCollapse:
    def _tracker(self, **kw):
        return HealthTracker(monitors=[AcceptanceCollapseMonitor(**kw)])

    def test_fires_below_threshold(self):
        tracker = self._tracker()
        rec = TraceRecorder(cadence=0.0, subscribers=[tracker])
        _mh_progress(rec, 500, 1000, 0.206)
        warnings = tracker.warnings
        assert len(warnings) == 1
        w = warnings[0]
        assert w.kind == "acceptance-collapse"
        assert w.source == "r2-mh"
        assert w.severity == "critical"
        assert w.value == pytest.approx(0.206)

    def test_quiet_above_threshold(self):
        tracker = self._tracker()
        rec = TraceRecorder(cadence=0.0, subscribers=[tracker])
        _mh_progress(rec, 500, 1000, 0.32)  # HIV's rate: healthy
        assert tracker.warnings == []

    def test_needs_min_proposals(self):
        tracker = self._tracker(min_proposals=200)
        rec = TraceRecorder(cadence=0.0, subscribers=[tracker])
        _mh_progress(rec, 50, 1000, 0.0)  # early noise, too few proposals
        assert tracker.warnings == []
        _mh_progress(rec, 250, 1000, 0.1)
        assert len(tracker.warnings) == 1

    def test_windowed_collapse_after_healthy_start(self):
        """A chain that starts healthy then collapses: cumulative rate
        stays above threshold for a while, but the recent window
        catches it."""
        tracker = self._tracker(min_window=100)
        rec = TraceRecorder(cadence=0.0, subscribers=[tracker])
        _mh_progress(rec, 1000, 4000, 0.9)
        assert tracker.warnings == []
        # 1000 more proposals at ~0% acceptance: cumulative is still
        # 900/2000 = 0.45, but the window is flat.
        _mh_progress(rec, 2000, 4000, 0.45)
        assert len(tracker.warnings) == 1
        assert "window" in tracker.warnings[0].message

    def test_fires_once_per_source(self):
        tracker = self._tracker()
        rec = TraceRecorder(cadence=0.0, subscribers=[tracker])
        for done in (300, 600, 900):
            _mh_progress(rec, done, 1000, 0.05)
        assert len(tracker.warnings) == 1

    def test_ignores_rejection_sampler(self):
        """The rejection sampler's low accept rate is expected physics,
        not a pathology — only MH-family sources are monitored."""
        tracker = self._tracker()
        rec = TraceRecorder(cadence=0.0, subscribers=[tracker])
        rec.progress("rejection", 500, 1000, accept_rate=0.001)
        assert tracker.warnings == []

    def test_worker_prefixed_sources_monitored_separately(self):
        tracker = self._tracker()
        rec = TraceRecorder(cadence=3600.0, subscribers=[tracker])
        for index, rate in ((0, 0.05), (1, 0.9)):
            worker = TraceRecorder(worker=index)
            _mh_progress(worker, 500, 1000, rate)
            rec.merge_child(worker.to_payload())
        _snap(rec)
        assert [w.source for w in tracker.warnings] == ["w0/r2-mh"]

    def test_in_flight_and_merged_snapshots_warn_once_per_worker(self):
        """A worker's in-flight snapshot names its chain ``(i, "r2-mh")``
        and the parent's merged one ``(None, "w<i>/r2-mh")``: both are
        the same chain, so it is flagged once."""
        tracker = self._tracker()
        parent = TraceRecorder(cadence=3600.0, subscribers=[tracker])
        for index in (0, 1):
            worker = TraceRecorder(cadence=0.0, subscribers=[tracker], worker=index)
            _mh_progress(worker, 500, 1000, 0.05)
            parent.merge_child(worker.to_payload())
        _snap(parent)
        assert tracker.n_snapshots == 3
        assert sorted(w.worker for w in tracker.warnings) == [0, 1]


class TestWeightDegeneracy:
    def test_fires_on_low_ess_ratio(self):
        tracker = HealthTracker(monitors=[WeightDegeneracyMonitor()])
        rec = TraceRecorder(cadence=0.0, subscribers=[tracker])
        rec.progress("likelihood-weighting", 1000, 2000, ess=3.0)
        assert [w.kind for w in tracker.warnings] == ["weight-degeneracy"]

    def test_quiet_on_healthy_ess(self):
        tracker = HealthTracker(monitors=[WeightDegeneracyMonitor()])
        rec = TraceRecorder(cadence=0.0, subscribers=[tracker])
        rec.progress("likelihood-weighting", 1000, 2000, ess=700.0)
        assert tracker.warnings == []


class TestResampleStorm:
    def test_fires_when_every_barrier_resamples(self):
        tracker = HealthTracker(monitors=[ResampleStormMonitor()])
        rec = TraceRecorder(cadence=0.0, subscribers=[tracker])
        rec.progress("smc", 50, 100, live=100, barriers=10, resamples=10)
        assert [w.kind for w in tracker.warnings] == ["resample-storm"]

    def test_quiet_below_rate_or_sample_size(self):
        tracker = HealthTracker(monitors=[ResampleStormMonitor()])
        rec = TraceRecorder(cadence=0.0, subscribers=[tracker])
        rec.progress("smc", 50, 100, live=100, barriers=4, resamples=4)
        assert tracker.warnings == []  # too few barriers to judge
        rec.progress("smc", 60, 100, live=100, barriers=10, resamples=5)
        assert tracker.warnings == []  # rate 0.5 < 0.9


class TestStall:
    def test_fires_on_idle_unfinished_source(self):
        clock = {"t": 0.0}
        tracker = HealthTracker(monitors=[StallMonitor(deadline=5.0)])
        rec = TraceRecorder(
            cadence=0.0, subscribers=[tracker], clock=lambda: clock["t"]
        )
        rec.progress("r2-mh", 100, 1000, accept_rate=0.5)
        clock["t"] = 10.0
        rec.counter("tick")  # publishes; progress unchanged for 10s
        assert [w.kind for w in tracker.warnings] == ["stall"]

    def test_finished_sources_never_stall(self):
        clock = {"t": 0.0}
        tracker = HealthTracker(monitors=[StallMonitor(deadline=5.0)])
        rec = TraceRecorder(
            cadence=0.0, subscribers=[tracker], clock=lambda: clock["t"]
        )
        rec.progress("r2-mh", 1000, 1000, accept_rate=0.5)
        clock["t"] = 60.0
        rec.counter("tick")
        assert tracker.warnings == []


class TestConvergenceMonitor:
    def _result(self, samples, weights=None, chains=None):
        class R:
            pass

        r = R()
        r.samples = samples
        r.weights = weights
        r.chains = chains
        return r

    def test_autocorr_ess_on_unweighted(self):
        mon = ConvergenceMonitor()
        import random

        rng = random.Random(0)
        r = self._result([rng.gauss(0, 1) for _ in range(500)])
        assert mon.finalize(r, elapsed=2.0) == []
        info = mon.info()
        assert info["ess_kind"] == "autocorrelation"
        assert info["ess"] > 100
        assert info["ess_per_sec"] == pytest.approx(info["ess"] / 2.0)

    def test_kish_on_weighted(self):
        mon = ConvergenceMonitor()
        r = self._result([1.0, 2.0, 3.0, 4.0], weights=[1.0, 1.0, 1.0, 1.0])
        mon.finalize(r, elapsed=1.0)
        info = mon.info()
        assert info["ess_kind"] == "kish"
        assert info["ess"] == pytest.approx(4.0)

    def test_split_r_hat_warning_on_disagreeing_chains(self):
        mon = ConvergenceMonitor(r_hat_threshold=1.1)
        chains = [[0.0, 0.1, -0.1, 0.05, 0.0, 0.1] for _ in range(2)]
        chains[1] = [x + 50.0 for x in chains[1]]
        r = self._result(
            [x for c in chains for x in c], chains=chains
        )
        warnings = mon.finalize(r, elapsed=1.0)
        assert [w.kind for w in warnings] == ["non-convergence"]
        assert mon.info()["split_r_hat"] > 1.1

    def test_agreeing_chains_clean(self):
        import random

        rng = random.Random(1)
        chains = [
            [rng.gauss(0, 1) for _ in range(200)] for _ in range(2)
        ]
        mon = ConvergenceMonitor()
        r = self._result([x for c in chains for x in c], chains=chains)
        assert mon.finalize(r, elapsed=1.0) == []

    def test_non_numeric_samples_skipped(self):
        mon = ConvergenceMonitor()
        r = self._result(["a", "b", "c"])
        assert mon.finalize(r, elapsed=1.0) == []
        assert "ess" not in mon.info()


class TestHealthReport:
    def test_summary_clean(self):
        report = HealthReport(warnings=(), info={}, n_snapshots=3)
        assert report.clean
        assert "ok" in report.summary().splitlines()[0]

    def test_summary_with_warnings(self):
        w = HealthWarning(
            kind="acceptance-collapse",
            source="r2-mh",
            message="rate 0.05 below 0.25",
            severity="critical",
            value=0.05,
            threshold=0.25,
        )
        report = HealthReport(
            warnings=(w,), info={"ess": 12.0}, n_snapshots=9
        )
        assert not report.clean
        assert report.has("acceptance-collapse")
        assert not report.has("stall")
        text = report.summary()
        assert "acceptance-collapse" in text
        assert "critical" in text
        assert "ess" in text

    def test_to_dict_round_trippable(self):
        import json

        w = HealthWarning(kind="stall", source="mh", message="idle")
        report = HealthReport(warnings=(w,), info={"a": 1.0}, n_snapshots=2)
        d = json.loads(json.dumps(report.to_dict()))
        assert d["warnings"][0]["kind"] == "stall"
        assert d["n_snapshots"] == 2


class TestTrackerLifecycle:
    def test_on_warning_callback(self):
        fired = []
        tracker = HealthTracker(monitors=[AcceptanceCollapseMonitor()])
        tracker.on_warning(fired.append)
        rec = TraceRecorder(cadence=0.0, subscribers=[tracker])
        _mh_progress(rec, 500, 1000, 0.05)
        assert [w.kind for w in fired] == ["acceptance-collapse"]

    def test_default_monitors_cover_all_kinds(self):
        kinds = {type(m).__name__ for m in default_monitors()}
        assert kinds == {
            "AcceptanceCollapseMonitor",
            "WeightDegeneracyMonitor",
            "ResampleStormMonitor",
            "StallMonitor",
            "ConvergenceMonitor",
        }

    def test_finalize_is_recallable(self):
        tracker = HealthTracker(monitors=[AcceptanceCollapseMonitor()])
        rec = TraceRecorder(cadence=0.0, subscribers=[tracker])
        _mh_progress(rec, 500, 1000, 0.05)
        r1 = tracker.finalize(None, elapsed=1.0)
        r2 = tracker.finalize(None, elapsed=1.0)
        assert [w.kind for w in r1.warnings] == [w.kind for w in r2.warnings]
        assert r1.n_snapshots == r2.n_snapshots


class TestRealPrograms:
    """The acceptance criteria: on the paper's own benchmarks, the
    health layer flags exactly the pathology PR 3's bench tables
    documented (sliced BLR's 0.206 acceptance) and nothing else."""

    def _run(self, program, n=800):
        tracker = HealthTracker()
        rec = TraceRecorder(cadence=0.0, subscribers=[tracker])
        engine = MetropolisHastings(
            n_samples=n, burn_in=100, seed=0, compiled=True
        )
        with use_recorder(rec):
            out = engine.infer(program)
        rec.publish()
        return tracker.finalize(out)

    def test_sliced_blr_flags_acceptance_collapse(self):
        program = lookup("BayesianLinearRegression").bench()
        report = self._run(sli(program).sliced)
        assert report.has("acceptance-collapse")

    def test_ex3_clean(self):
        program = lookup("Ex3").bench()
        report = self._run(sli(program).sliced)
        assert report.clean, [w.to_dict() for w in report.warnings]
        assert report.info.get("ess", 0) > 0

    def test_table1_flags_only_sliced_blr(self):
        """The suite-level verdict over all 16 (model, original or
        sliced) cells: exactly one flagged entry, for one reason."""
        reports = {}
        for spec in TABLE1:
            program = spec.bench()
            for side, target in (("original", program), ("sliced", sli(program).sliced)):
                reports[spec.name, side] = self._run(target, n=400)
        flagged = [cell for cell, report in reports.items() if not report.clean]
        assert flagged == [("BayesianLinearRegression", "sliced")], flagged
        kinds = {w.kind for report in reports.values() for w in report.warnings}
        assert kinds == {"acceptance-collapse"}, kinds
