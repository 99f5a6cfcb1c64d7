"""HTTP surface behavior, driven entirely in-process."""

from __future__ import annotations

import jsonschema
import pytest

from repro.serve.protocol import load_schema
from repro.serve.scheduler import Scheduler

from .conftest import payload


def nested(depth):
    return f"int x; x = {'(' * depth}1{')' * depth}; return x;"


class TestSubmit:
    def test_submit_returns_202_job(self, client, store):
        response = client.submit(payload(deadline_s=9))
        assert response.status == 202
        body = response.data
        assert body["status"] == "running"
        assert body["id"].startswith("j-")
        assert body["events_url"] == f"/v1/jobs/{body['id']}/events"
        assert body["deadline_t"] == pytest.approx(1009.0)
        assert store.get(body["id"]) is not None

    def test_submit_body_validates_against_job_schema(self, client):
        body = client.submit(payload()).data
        jsonschema.validate(body, load_schema("job"))

    def test_invalid_json_is_400(self, client):
        response = client.post("/v1/jobs", body=b"{nope")
        assert response.status == 400
        assert response.data["error"] == "invalid-json"

    def test_protocol_error_is_400_naming_field(self, client):
        response = client.submit(payload(engine="hmc"))
        assert response.status == 400
        assert response.data["field"] == "engine"

    @pytest.mark.parametrize(
        "source",
        # A non-ASCII digit reaches int(); deep nesting exhausts the stack.
        ["x = ²; return x;", nested(110)],
        ids=["non-ascii-digit", "nested-110"],
    )
    def test_parse_failure_is_400(self, client, source):
        response = client.submit(payload(program=source))
        assert response.status == 400
        assert response.data["field"] == "program"

    def test_nesting_100_deep_is_accepted(self, client):
        assert client.submit(payload(program=nested(100))).status == 202

    def test_payload_too_large_is_413(self, client):
        response = client.post("/v1/jobs", body=b"x" * (2 << 20))
        assert response.status == 413

    def test_admission_rejection_is_429_with_retry_after(
        self, store, fake_runner, clock
    ):
        from repro.serve.app import ServeApp
        from repro.serve.testing import ServeTestClient

        sched = Scheduler(
            store, fake_runner, clock=clock, workers=1,
            tenant_rate=1.0, tenant_burst=1.0, tenant_max_inflight=100,
        )
        app = ServeApp(
            scheduler=sched, store=store, runner=fake_runner, clock=clock
        )
        with ServeTestClient(app) as client:
            assert client.submit(payload()).status == 202
            response = client.submit(payload())
            assert response.status == 429
            assert response.data["error"] == "admission"
            assert float(response.headers["Retry-After"]) == pytest.approx(
                1.0
            )

    def test_draining_is_503(self, client, scheduler):
        scheduler.drain()
        response = client.submit(payload())
        assert response.status == 503
        assert response.data["error"] == "draining"


class TestPollAndCancel:
    def test_poll_running_then_done(self, client, store, fake_runner):
        job_id = client.submit(payload()).data["id"]
        assert client.get(f"/v1/jobs/{job_id}").data["status"] == "running"
        fake_runner.finish(store.get(job_id), result={"mean": 0.25},
                           cache="hit")
        body = client.get(f"/v1/jobs/{job_id}").data
        assert body["status"] == "done"
        assert body["cache"] == "hit"
        assert body["result"]["mean"] == 0.25
        jsonschema.validate(body, load_schema("job"))

    def test_poll_unknown_job_is_404(self, client):
        assert client.get("/v1/jobs/j-0000ff").status == 404

    def test_queue_position_exposed_while_queued(self, client):
        client.submit(payload())
        client.submit(payload())
        third = client.submit(payload()).data
        assert third["status"] == "queued"
        assert third["queue_position"] == 0

    def test_delete_cancels(self, client, store, fake_runner):
        job_id = client.submit(payload()).data["id"]
        response = client.delete(f"/v1/jobs/{job_id}")
        assert response.status == 200
        assert response.data["status"] == "cancelled"
        assert response.data["cancelled_now"] is True
        again = client.delete(f"/v1/jobs/{job_id}")
        assert again.data["cancelled_now"] is False

    def test_delete_unknown_job_is_404(self, client):
        assert client.delete("/v1/jobs/j-0000ff").status == 404


class TestMisc:
    def test_unknown_path_is_404(self, client):
        assert client.get("/v2/nope").status == 404

    def test_method_not_allowed(self, client):
        response = client.get("/v1/jobs")
        assert response.status == 405
        assert "POST" in response.headers["Allow"]
        job_id = client.submit(payload()).data["id"]
        assert client.post(
            f"/v1/jobs/{job_id}/events", json_body={}
        ).status == 405

    def test_healthz_reports_draining(self, client, scheduler):
        assert client.get("/healthz").data == {"ok": True, "draining": False}
        scheduler.drain()
        assert client.get("/healthz").data["draining"] is True

    def test_schemas_endpoint(self, client):
        for name in ("job", "job_request"):
            response = client.get(f"/v1/schemas/{name}")
            assert response.status == 200
            jsonschema.Draft202012Validator.check_schema(response.data)
        assert client.get("/v1/schemas/other").status == 404

    def test_stats_endpoint(self, client, store, fake_runner):
        job_id = client.submit(payload(tenant="warm")).data["id"]
        fake_runner.finish(store.get(job_id), cache="hit")
        body = client.get("/v1/stats").data
        assert body["scheduler"]["counters"]["finished.done"] == 1
        assert body["scheduler"]["tenants"]["warm"]["inflight"] == 0
        assert set(body["cache"]) >= {
            "slice_hits", "slice_misses", "flight_waits", "entries",
        }

    def test_query_strings_are_ignored_in_routing(self, client):
        assert client.get("/healthz?verbose=1").status == 200

    def test_route_exception_becomes_500(self, app, client):
        app.validate = lambda payload: (_ for _ in ()).throw(
            RuntimeError("boom")
        )
        response = client.submit(payload())
        assert response.status == 500
        assert "boom" in response.data["message"]
