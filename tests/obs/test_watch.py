"""The --watch dashboard, plus ProgressLine regression tests for the
two PR 8 satellite fixes (total==0 rendering, terminal-event flush)."""

import io

from repro.obs import TraceRecorder, WatchDashboard
from repro.obs.health import HealthWarning
from repro.obs.progress import ProgressLine


class _TtyStringIO(io.StringIO):
    def isatty(self):
        return True


def _snapshot(**progress_states):
    """Build a snapshot carrying the given progress states."""
    rec = TraceRecorder(cadence=3600.0, subscribers=[lambda snapshot: None])
    for source, (done, total, metrics) in progress_states.items():
        rec.progress(source, done, total, **metrics)
    return rec.publish()


class TestProgressLineRegressions:
    def test_total_zero_renders_as_finished(self):
        """Regression (PR 8 satellite): ``total == 0`` used to divide
        by zero / render garbage.  An empty run is born finished and
        must render as ``0/0 (100%)``."""
        buf = io.StringIO()
        line = ProgressLine(stream=buf, force=True)
        line(
            {
                "source": "rejection",
                "done": 0,
                "total": 0,
                "metrics": {},
                "t": 0.0,
            }
        )
        assert "0/0 (100%)" in buf.getvalue()

    def test_terminal_event_flushes_through_throttle(self):
        """Regression (PR 8 satellite): the final ``done >= total``
        event must always be written even if it lands inside the
        throttle window — otherwise short runs end with a stale
        line."""
        buf = io.StringIO()
        line = ProgressLine(stream=buf, force=True, min_interval=3600.0)
        ev = {"source": "mh", "done": 1, "total": 10, "metrics": {}, "t": 0.0}
        line(ev)  # first write
        line({**ev, "done": 2})  # throttled away
        assert "2/10" not in buf.getvalue()
        line({**ev, "done": 10})  # terminal: must flush regardless
        assert "10/10 (100%)" in buf.getvalue()

    def test_unknown_total_renders_count(self):
        buf = io.StringIO()
        line = ProgressLine(stream=buf, force=True)
        line({"source": "mh", "done": 7, "total": None, "metrics": {}, "t": 0.0})
        assert "[mh] 7" in buf.getvalue()

    def test_silent_on_non_tty_without_force(self):
        buf = io.StringIO()
        line = ProgressLine(stream=buf)
        line({"source": "mh", "done": 5, "total": 10, "metrics": {}, "t": 0.0})
        line.close()
        assert buf.getvalue() == ""


class TestWatchDashboard:
    def test_one_row_per_source(self):
        buf = io.StringIO()
        watch = WatchDashboard(stream=buf, force=True, min_interval=0.0)
        watch(
            _snapshot(
                **{
                    "r2-mh": (64, 128, {"accept_rate": 0.5}),
                    "smc": (10, 100, {"live": 90}),
                }
            )
        )
        rows = watch.rows()
        assert set(rows) == {"r2-mh", "smc"}
        assert "64/128 (50%)" in rows["r2-mh"]
        assert "accept_rate=0.5" in rows["r2-mh"]
        out = buf.getvalue()
        assert out.index("[r2-mh]") < out.index("[smc]")  # sorted rows

    def test_worker_snapshots_get_worker_rows(self):
        watch = WatchDashboard(stream=io.StringIO(), force=True)
        rec = TraceRecorder(cadence=0.0, subscribers=[watch], worker=3)
        rec.progress("r2-mh", 5, 10)
        assert set(watch.rows()) == {"w3/r2-mh"}

    def test_total_zero_row(self):
        watch = WatchDashboard(stream=io.StringIO(), force=True)
        watch(_snapshot(mh=(0, 0, {})))
        assert "0/0 (100%)" in watch.rows()["mh"]

    def test_throttle_and_close_force_final_render(self):
        clock = {"t": 0.0}
        buf = io.StringIO()
        watch = WatchDashboard(
            stream=buf,
            force=True,
            min_interval=10.0,
            clock=lambda: clock["t"],
        )
        watch(_snapshot(mh=(1, 10, {})))
        watch(_snapshot(mh=(9, 10, {})))  # inside throttle window
        assert watch.n_renders == 1
        assert "9/10" not in buf.getvalue()
        watch.close()  # terminal state must always be shown
        assert watch.n_renders == 2
        assert "9/10 (90%)" in buf.getvalue()

    def test_tty_rendering_redraws_in_place(self):
        buf = _TtyStringIO()
        watch = WatchDashboard(stream=buf, min_interval=0.0)
        watch(_snapshot(mh=(1, 10, {})))
        watch(_snapshot(mh=(2, 10, {})))
        out = buf.getvalue()
        assert "\x1b[2K" in out  # erase-line redraws
        assert "\x1b[2F" in out  # cursor back up over the 2-line block

    def test_non_tty_force_prints_plain_blocks(self):
        buf = io.StringIO()
        watch = WatchDashboard(stream=buf, force=True, min_interval=0.0)
        watch(_snapshot(mh=(1, 10, {})))
        watch(_snapshot(mh=(2, 10, {})))
        out = buf.getvalue()
        assert "\x1b" not in out  # no escape codes off-TTY
        assert out.count("watch t=") == 2  # sequential blocks

    def test_silent_without_force_off_tty(self):
        buf = io.StringIO()
        watch = WatchDashboard(stream=buf)
        watch(_snapshot(mh=(1, 10, {})))
        watch.close()
        assert buf.getvalue() == ""
        assert watch.rows()  # state still folds in for introspection

    def test_note_warning_appears_and_is_bounded(self):
        buf = io.StringIO()
        watch = WatchDashboard(
            stream=buf, force=True, min_interval=0.0, max_warnings=2
        )
        for i in range(4):
            watch.note_warning(
                HealthWarning(
                    kind="acceptance-collapse",
                    source=f"s{i}",
                    message=f"m{i}",
                    severity="critical",
                )
            )
        assert len(watch.warnings()) == 2
        assert "s3" in watch.warnings()[-1]
        watch(_snapshot(mh=(1, 10, {})))
        out = buf.getvalue()
        assert "!! [critical] acceptance-collapse s3: m3" in out
        assert "s0" not in out  # oldest warnings dropped

    def test_worker_warning_labelled(self):
        watch = WatchDashboard(stream=io.StringIO(), force=True)
        watch.note_warning(
            HealthWarning(kind="stall", source="mh", message="idle", worker=2)
        )
        assert "w2/mh" in watch.warnings()[0]
