"""Exporters: JSONL (schema-validated), Chrome trace events, and the
text summary."""

import json

import jsonschema
import pytest

from repro.obs import (
    TraceRecorder,
    chrome_trace_events,
    format_metrics_summary,
    iter_jsonl_records,
    write_chrome_trace,
    write_jsonl,
    write_trace,
)
from repro.obs.progress import ProgressLine
from repro.obs.validate import load_schema, validate_jsonl


@pytest.fixture
def recorder():
    rec = TraceRecorder()
    with rec.span("root", kind="test"):
        with rec.span("child", worker=1):
            pass
    rec.counter("hits", 3)
    rec.gauge("rate", 0.5)
    rec.histogram("lat", 1.0)
    rec.histogram("lat", 3.0)
    rec.progress("mh", 10, 20, accept_rate=0.4)
    return rec


class TestJsonl:
    def test_record_stream_shape(self, recorder):
        records = list(iter_jsonl_records(recorder))
        kinds = [r["type"] for r in records]
        assert kinds[0] == "meta"
        assert kinds.count("span") == 2
        assert "counter" in kinds and "gauge" in kinds
        assert "histogram" in kinds and "progress" in kinds
        child = [r for r in records if r["type"] == "span"][1]
        root = [r for r in records if r["type"] == "span"][0]
        assert child["parent"] == root["id"]

    def test_written_file_validates_against_schema(self, recorder, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        n = write_jsonl(recorder, path)
        assert n == sum(1 for _ in open(path))
        assert validate_jsonl(path) == []

    def test_schema_rejects_malformed_records(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"type": "span", "name": "no-ids"})
            + "\n"
            + json.dumps({"type": "unknown"})
            + "\nnot json at all\n"
        )
        errors = validate_jsonl(str(path))
        assert len(errors) >= 3
        assert any("not JSON" in msg for _, msg in errors)

    def test_schema_is_valid_draft_2020_12(self):
        jsonschema.Draft202012Validator.check_schema(load_schema())

    def test_nan_attrs_do_not_break_export(self, tmp_path):
        rec = TraceRecorder()
        with rec.span("s", bad=float("nan"), obj=object()):
            pass
        rec.gauge("g", float("inf"))
        path = str(tmp_path / "nan.jsonl")
        write_jsonl(rec, path)
        assert validate_jsonl(path) == []


class TestChromeTrace:
    def test_events_shape(self, recorder):
        events = chrome_trace_events(recorder)
        complete = [e for e in events if e["ph"] == "X"]
        meta = [e for e in events if e["ph"] == "M"]
        instants = [e for e in events if e["ph"] == "i"]
        assert len(complete) == 2
        assert len(instants) == 1
        assert any(e["name"] == "process_name" for e in meta)
        # The worker-attributed span lands on its own track.
        child = next(e for e in complete if e["name"] == "child")
        root = next(e for e in complete if e["name"] == "root")
        assert child["tid"] == 2  # worker 1 -> tid 2
        assert root["tid"] == 0
        assert any(
            e["name"] == "thread_name" and e["args"]["name"] == "worker 1"
            for e in meta
        )

    def test_written_file_is_loadable_json_array(self, recorder, tmp_path):
        path = str(tmp_path / "trace.json")
        n = write_chrome_trace(recorder, path)
        with open(path) as f:
            events = json.load(f)
        assert isinstance(events, list) and len(events) == n
        for e in events:
            assert {"name", "ph", "pid", "tid"} <= set(e)

    def test_timestamps_are_microseconds(self, recorder):
        events = chrome_trace_events(recorder)
        root = next(e for e in events if e.get("name") == "root")
        span = recorder.spans[0]
        assert root["ts"] == pytest.approx(span.start * 1e6)
        assert root["dur"] == pytest.approx(span.duration * 1e6)


class TestWriteTrace:
    def test_dispatch(self, recorder, tmp_path):
        assert write_trace(recorder, str(tmp_path / "a.jsonl"), "jsonl") > 0
        assert write_trace(recorder, str(tmp_path / "a.json"), "chrome") > 0

    def test_unknown_format_rejected(self, recorder, tmp_path):
        with pytest.raises(ValueError):
            write_trace(recorder, str(tmp_path / "x"), "protobuf")


class TestSummary:
    def test_sections_present(self, recorder):
        text = format_metrics_summary(recorder)
        assert "== stage timings ==" in text
        assert "== counters ==" in text
        assert "hits" in text and "rate" in text
        assert "lat" in text and "n=2" in text

    def test_empty_recorder_summary_is_empty(self):
        assert format_metrics_summary(TraceRecorder()) == ""


class TestProgressLine:
    class _Buf:
        def __init__(self, tty):
            self._tty = tty
            self.chunks = []

        def write(self, s):
            self.chunks.append(s)

        def flush(self):
            pass

        def isatty(self):
            return self._tty

    def _event(self, done, total, **metrics):
        return {"source": "mh", "done": done, "total": total, "metrics": metrics}

    def test_writes_and_overwrites(self):
        buf = self._Buf(tty=True)
        line = ProgressLine(stream=buf, min_interval=0.0)
        line(self._event(5, 10, accept_rate=0.25))
        line(self._event(10, 10, accept_rate=0.3))
        line.close()
        out = "".join(buf.chunks)
        assert "\r[mh] 5/10 (50%) accept_rate=0.25" in out
        assert "10/10 (100%)" in out
        assert out.endswith("\n")

    def test_silent_on_non_tty(self):
        buf = self._Buf(tty=False)
        line = ProgressLine(stream=buf)
        line(self._event(1, 2))
        line.close()
        assert buf.chunks == []

    def test_force_overrides_tty_check(self):
        buf = self._Buf(tty=False)
        line = ProgressLine(stream=buf, force=True, min_interval=0.0)
        line(self._event(1, 2))
        assert buf.chunks

    def test_throttled_but_final_event_always_shown(self):
        buf = self._Buf(tty=True)
        line = ProgressLine(stream=buf, min_interval=60.0)
        line(self._event(1, 100))
        line(self._event(2, 100))  # throttled away
        line(self._event(100, 100))  # finished: always rendered
        out = "".join(buf.chunks)
        assert "1/100" in out
        assert "2/100" not in out
        assert "100/100" in out
