"""End-to-end: real LocalRunner, real ProgramCache, real engines —
and one real-socket pass through HttpServer on an ephemeral port."""

from __future__ import annotations

import asyncio
import http.client
import json
import threading

import jsonschema
import pytest

from repro.obs.validate import load_schema as load_obs_schema
from repro.runtime.cache import ProgramCache
from repro.serve.app import HttpServer, ServeApp
from repro.serve.runner import LocalRunner
from repro.serve.testing import ServeTestClient

from .conftest import payload


def http_json(port: int, method: str, path: str, body=None):
    """One JSON request over a fresh connection; a 4xx/5xx fails."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request(
            method, path, body=None if body is None else json.dumps(body),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        out = json.loads(response.read())
    finally:
        conn.close()
    assert response.status < 400, (response.status, out)
    return out


def sse_frames(port: int, path: str):
    """Yield ``(event, data)`` for each frame of an SSE stream until the
    server closes it or the caller stops iterating."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        assert response.status == 200
        assert response.getheader("Content-Type") == "text/event-stream"
        kind = None
        for line in response.fp:
            text = line.decode().rstrip("\n")
            if text.startswith("event: "):
                kind = text[len("event: "):]
            elif text.startswith("data: "):
                yield kind, json.loads(text[len("data: "):])
    finally:
        conn.close()


def make_app(workers: int = 1, **kw) -> ServeApp:
    cache = ProgramCache()
    return ServeApp(
        runner=LocalRunner(cache=cache), cache=cache, workers=workers, **kw
    )


class TestRealPipeline:
    def test_submit_runs_to_done_with_posterior(self):
        app = make_app()
        with ServeTestClient(app) as client:
            body = client.submit(
                payload(engine="importance", samples=200, seed=7)
            ).data
            app.runner.join(timeout=60)
            job = client.get(f"/v1/jobs/{body['id']}").data
            assert job["status"] == "done"
            assert job["result"]["samples"] == 200
            assert 0.0 <= job["result"]["mean"] <= 1.0
            assert job["cache"] == "miss"
            assert any(
                name.startswith("pass.") for name in job["stage_seconds"]
            )
            from repro.serve.protocol import load_schema

            jsonschema.validate(job, load_schema("job"))

    def test_second_identical_submit_is_a_cache_hit(self):
        """The acceptance criterion: same fingerprint -> served from
        cache, visible as the cache.slice.hit counter and the absence
        of pass.* stage timings on the second job."""
        app = make_app()
        with ServeTestClient(app) as client:
            request = payload(engine="importance", samples=100)
            first_id = client.submit(request).data["id"]
            app.runner.join(timeout=60)
            second_id = client.submit(request).data["id"]
            app.runner.join(timeout=60)
            first, second = app.store.get(first_id), app.store.get(second_id)
            assert first.cache == "miss"
            assert second.cache == "hit"
            assert second.counters.get("cache.slice.hit", 0) >= 1
            assert not any(
                name.startswith("pass.") for name in second.stage_seconds
            )
            assert app.scheduler.counters["cache.hit"] == 1
            assert app.scheduler.counters["cache.miss"] == 1
            stats = client.get("/v1/stats").data
            assert stats["cache"]["slice_hits"] >= 1
            assert stats["cache"]["slice_misses"] == 1

    def test_concurrent_identical_submits_slice_once(self):
        """Two in-flight jobs for one fingerprint: the cache's
        single-flight lock guarantees exactly one pipeline run."""
        app = make_app(workers=2)
        with ServeTestClient(app) as client:
            request = payload(engine="importance", samples=300)
            client.submit(request)
            client.submit(request)
            app.runner.join(timeout=60)
            assert app.cache.stats.slice_misses == 1
            assert app.cache.stats.slice_hits >= 1

    def test_snapshot_events_validate_against_schema(self):
        schema = load_obs_schema("snapshot")
        app = make_app()
        with ServeTestClient(app) as client:
            job_id = client.submit(
                payload(engine="mh", samples=100, cadence=0)
            ).data["id"]
            app.runner.join(timeout=60)
            snapshots = [
                event.data
                for event in client.events(job_id)
                if event.kind == "snapshot"
            ]
            assert snapshots, "cadence-0 run must stream snapshots"
            for snapshot in snapshots:
                jsonschema.validate(snapshot, schema)

    def test_factored_program_runs_sharded(self):
        program = (
            "bool a; bool b; a ~ Bernoulli(0.3); b ~ Bernoulli(0.6); "
            "observe(a || !a); return a || b;"
        )
        app = make_app()
        with ServeTestClient(app) as client:
            job_id = client.submit(
                payload(
                    program=program, factorize=True,
                    engine="importance", samples=150,
                )
            ).data["id"]
            app.runner.join(timeout=60)
            job = app.store.get(job_id)
            assert job.status == "done"
            assert job.result["samples"] > 0

    def test_graceful_drain_waits_for_inflight(self):
        app = make_app()
        with ServeTestClient(app) as client:
            client.submit(payload(engine="importance", samples=200))
            fired = threading.Event()
            app.scheduler.drain(fired.set)
            assert client.submit(payload()).status == 503
            app.runner.join(timeout=60)
            assert fired.wait(timeout=10)

    def test_deadline_interrupts_real_run(self):
        app = make_app()
        with ServeTestClient(app) as client:
            job_id = client.submit(
                payload(
                    engine="mh", samples=1_000_000, cadence=0,
                    deadline_s=0.05,
                )
            ).data["id"]
            job = app.store.get(job_id)
            # Event-driven expiry: sweep until the wall clock passes
            # the deadline (no sleeps — tick() is cheap and exact).
            while not job.terminal:
                app.scheduler.tick()
            assert job.status == "deadline"
            assert job.partial is True
            assert job.cancel_requested is True
            # The engine thread unwinds cooperatively via the bridge.
            app.runner.join(timeout=60)
            assert app.scheduler.counters.get("late_completions", 0) >= 0


class TestRealSocket:
    """One pass over actual HTTP on an ephemeral port (port 0 — no
    collisions, no retries)."""

    @pytest.fixture
    def server(self):
        # Admission limits high enough that no submission is refused.
        app = make_app(
            workers=2, tenant_rate=1000, tenant_burst=1000,
            tenant_max_inflight=1000,
        )
        info = {}
        ready = threading.Event()

        def run() -> None:
            async def main() -> None:
                server = HttpServer(app, port=0)
                await server.start()
                info["server"] = server
                info["loop"] = asyncio.get_running_loop()
                info["port"] = server.port
                ready.set()
                try:
                    await server.serve_forever()
                except asyncio.CancelledError:
                    pass

            asyncio.run(main())

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        assert ready.wait(timeout=10)
        yield app, info["port"]
        future = asyncio.run_coroutine_threadsafe(
            info["server"].shutdown(timeout=10), info["loop"]
        )
        future.result(timeout=30)
        thread.join(timeout=10)

    def test_submit_stream_poll_over_http(self, server):
        app, port = server
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        body = json.dumps(
            payload(engine="importance", samples=100, cadence=0)
        )
        conn.request("POST", "/v1/jobs", body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        assert response.status == 202
        job = json.loads(response.read())
        conn.close()

        # Follow the SSE stream to the terminal status frame: this is
        # event-driven (the server holds the connection open), so the
        # test never polls or sleeps.
        final = next(
            (
                data for kind, data in sse_frames(port, job["events_url"])
                if kind == "status" and data["status"] in ("done", "failed")
            ),
            None,
        )
        assert final is not None
        assert final["status"] == "done"
        assert final["result"]["samples"] == 100
        assert http_json(port, "GET", f"/v1/jobs/{job['id']}")["status"] == "done"

    def test_mixed_tenant_load_hits_cache_with_valid_snapshots(self, server):
        """A seeded 10-request load from four tenants: even requests
        share one program (warm), odd ones each submit a distinct
        fingerprint (cold).  Every job finishes, the shared program is
        served from the cache, and a streamed SSE snapshot validates
        against the schema."""
        app, port = server
        shared = "bool c; c ~ Bernoulli(0.5); observe(c); return c;"
        ids = []
        for i in range(10):
            program = shared if i % 2 == 0 else (
                f"bool c; c ~ Bernoulli(0.5); "
                f"observe(c{' || false' * (i + 1)}); return c;"
            )
            ids.append(http_json(port, "POST", "/v1/jobs", {
                "program": program, "samples": 300, "seed": 100 + i,
                "engine": "importance", "cadence": 0.05,
                "tenant": f"t{i % 4}",
            })["id"])
        app.runner.join(timeout=120)
        jobs = [http_json(port, "GET", f"/v1/jobs/{job_id}") for job_id in ids]
        assert [job["status"] for job in jobs] == ["done"] * 10, jobs
        assert sum(job["cache"] == "hit" for job in jobs) >= 1

        snapshot = next(
            (
                data for kind, data in sse_frames(port, f"/v1/jobs/{ids[0]}/events")
                if kind == "snapshot"
            ),
            None,
        )
        assert snapshot is not None, "stream ended before a snapshot"
        jsonschema.validate(snapshot, load_obs_schema("snapshot"))

    def test_http_level_validation_and_stats(self, server):
        _, port = server
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        conn.request("POST", "/v1/jobs", body=b"{bad json")
        assert conn.getresponse().status == 400
        conn.close()
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        conn.request("GET", "/v1/stats")
        response = conn.getresponse()
        assert response.status == 200
        stats = json.loads(response.read())
        assert "scheduler" in stats and "cache" in stats
        conn.close()
