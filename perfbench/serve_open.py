"""``serve-open``: an open loop of HTTP clients against ``repro.serve``.

The server runs as a child process (``python -m repro.serve --port 0
--workers 2``); one client process sends requests on a seeded Poisson
schedule at :data:`RATE` per second over at most ``nproc``
connections, dealt in shuffled blocks (:data:`BLOCK`):

* most requests resubmit the :data:`HOT` set — Table-1 programs
  primed during set-up, so the slice comes from the cache;
* the rest are fresh seeded programs (:data:`MISS`: cache misses that
  write to the cache) and :data:`LONG` MH jobs that the client
  ``DELETE``s :data:`CANCEL_AFTER_S` after submitting them.

Latency runs from each request's due time to the job's ``finished_t``.
The server stamps ``finished_t`` with ``time.monotonic``, which on
Linux is one clock for every process, so the client's poll interval
(:data:`POLL_S`, one ``GET /v1/jobs/{id}`` per outstanding job per
sweep) only delays when the client learns of a completion, not the
latency it records.  The client calibrates the machine's speed between
sends and normalises every job's times by it (:mod:`perfbench.speed`).
On this workload ``samples_per_s`` and ``ess_per_s`` cover the hot set
only, and the ESS is the one the server reports in each job's
``health.info.ess`` (the library's online estimator: the service
returns no draws), so unlike the in-process workloads it follows the
library's definition of ESS.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.printer import pretty
from repro.models import benchmark

from .checks import Reference, check_posterior, table1_references
from .common import (
    MCMC_ESS_DISCOUNT,
    SETUP_REPEATS,
    SRC,
    cell_rate,
    end_to_end,
    layer_metrics,
    library_ess_seconds,
    mean,
    normalise,
    percentile,
    timed_setups,
)
from .programs import generate
from .speed import TICK_EVERY_S, Speedometer

#: Requests per second, calibrated on a 2-core machine: low enough that
#: GIL contention in the server reaches few requests, so the latency tail
#: moves little from one schedule to the next (see perfbench/README.md).
RATE = 3.0
CANCEL_AFTER_S = 0.1
POLL_S = 0.25
#: A job not finished this long after its due time counts as failed.
DEADLINE_S = 20.0
#: Client connections: at most ``nproc``.
CONNECTIONS = os.cpu_count() or 1
SERVER_ARGS = (
    "--port", "0", "--workers", "2",
    # Admission is not under test: one client stands for many tenants.
    "--tenant-rate", "10000", "--tenant-burst", "10000",
    "--tenant-max-inflight", "10000",
)

#: The hot set: (Table-1 model, slicer, engine, backend, samples).
HOT = (
    ("Ex5", "svf", "mh", "closure", 200),
    ("Ex3", "ab", "importance", "interp", 200),
    ("BurglarAlarm", "ab", "importance", "numpy", 2000),
    ("NoisyOR", "svf", "importance", "closure", 200),
    ("HIV", "svf", "mh", "closure", 300),
    ("BayesianLinearRegression", "ab", "importance", "numpy", 2000),
)
#: Fresh programs: (generator, engine, backend, samples); each runs
#: under both slicers.
MISS = (
    ("NoisyOR", "importance", "numpy", 2000),
    ("HIV", "mh", "closure", 200),
    ("BayesianLinearRegression", "importance", "closure", 300),
    ("NoisyOR", "importance", "interp", 300),
)
#: A long job, cancelled by design.
LONG = ("HIV", "svf", "mh", "closure", 200_000)
#: One block of the request mix: 24 hot (each entry 4 times), 8 misses
#: (each generator under each slicer) and 1 long job, in 33 requests.
BLOCK = (
    [("hot", i) for i in range(len(HOT))] * 4
    + [("miss", i) for i in range(2 * len(MISS))]
    + [("long", 0)]
)
TERMINAL = ("done", "failed", "deadline", "cancelled")


@dataclass
class Request:
    kind: str  # "hot" | "miss" | "long"
    model: str
    body: dict
    due: float = 0.0
    reference: Optional[object] = None
    sent: Optional[float] = None
    submit_s: Optional[float] = None
    status: Optional[int] = None
    job: Optional[dict] = None
    job_id: Optional[str] = None
    cancelled: bool = False


def _body(source: str, slicer: str, engine: str, backend: str, samples: int,
          seed: int) -> dict:
    return {
        "program": source, "slicer": slicer, "engine": engine,
        "backend": backend, "samples": samples, "seed": seed,
        "deadline_s": DEADLINE_S,
    }


def _hot_requests() -> List[Request]:
    return [
        Request("hot", model, _body(pretty(benchmark(model).bench()), slicer,
                                     engine, backend, samples, 0))
        for model, slicer, engine, backend, samples in HOT
    ]


def plan(seed: int, seconds: float) -> List[Request]:
    """The seeded request schedule.  Due times are a Poisson process at
    :data:`RATE` conditioned on its count (``RATE * seconds`` arrivals
    placed uniformly at random), and kinds are dealt in shuffled blocks
    of :data:`BLOCK`, so every run holds the same number of requests
    and nearly the same mix."""
    rng = random.Random(seed)
    hot = _hot_requests()
    long_source = pretty(benchmark(LONG[0]).bench())
    dues = sorted(rng.uniform(0.0, seconds) for _ in range(round(RATE * seconds)))
    out: List[Request] = []
    deck: List[Tuple[str, int]] = []
    for due in dues:
        if not deck:
            deck = list(BLOCK)
            rng.shuffle(deck)
        kind, index = deck.pop()
        job_seed = rng.randrange(1 << 30)
        if kind == "hot":
            # A resubmission: the same program, settings and engine seed,
            # so a hot job's draws and ESS are the same in every run.
            template = hot[index]
            req = Request("hot", template.model, dict(template.body))
        elif kind == "long":
            model, slicer, engine, backend, samples = LONG
            req = Request("long", model,
                          _body(long_source, slicer, engine, backend, samples, job_seed))
        else:
            model, engine, backend, samples = MISS[index % len(MISS)]
            gen = generate(model, rng, small=True)
            req = Request("miss", model,
                          _body(gen.source, ("svf", "ab")[index // len(MISS)], engine,
                                backend, samples, job_seed))
            req.reference = gen.reference
        req.due = due
        out.append(req)
    return out


# -- the server child -----------------------------------------------------------


class Server:
    """``python -m repro.serve`` as a child process."""

    def __init__(self) -> None:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", *SERVER_ARGS],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        line = self.proc.stderr.readline()
        if "listening on http://" not in line:
            self.stop()
            raise RuntimeError(f"server failed to start: {line.strip()!r}")
        # Keep the pipe drained: the server may log to stderr later.
        self._drain = threading.Thread(target=self.proc.stderr.read, daemon=True)
        self._drain.start()
        host_port = line.rsplit("http://", 1)[1].strip()
        self.host, port = host_port.rsplit(":", 1)
        self.port = int(port)

    def cpu_seconds(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if hasattr(self, "_drain"):
            self._drain.join(timeout=10)
        self.proc.stderr.close()


# -- the client -----------------------------------------------------------------


class Client:
    def __init__(self, server: Server, speed: Optional[Speedometer] = None) -> None:
        self.host, self.port = server.host, server.port
        self.speed = speed
        self.slots = asyncio.Semaphore(CONNECTIONS)
        #: Calls waiting for a connection; a poll sweep yields to them.
        self.waiting = 0

    async def call(self, method: str, path: str, body: Optional[dict] = None,
                   on_send=None) -> Tuple[int, dict]:
        data = b"" if body is None else json.dumps(body).encode()
        head = (f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
                f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n"
                "Connection: close\r\n\r\n").encode()
        self.waiting += 1
        try:
            await self.slots.acquire()
        finally:
            self.waiting -= 1
        try:
            if on_send is not None:
                on_send()
            reader, writer = await asyncio.open_connection(self.host, self.port)
            try:
                writer.write(head + data)
                await writer.drain()
                raw = await reader.read()
            finally:
                writer.close()
                await writer.wait_closed()
        finally:
            self.slots.release()
        status_line, _, rest = raw.partition(b"\r\n")
        _, _, payload = rest.partition(b"\r\n\r\n")
        return int(status_line.split()[1]), (json.loads(payload) if payload else {})

    async def submit(self, req: Request, outstanding: Dict[str, Request]) -> None:
        def stamp() -> None:
            req.sent = time.monotonic()

        status, reply = await self.call("POST", "/v1/jobs", req.body, on_send=stamp)
        req.submit_s = time.monotonic() - req.sent
        req.status = status
        if status == 202:
            req.job_id = reply["id"]
            outstanding[req.job_id] = req
            if req.kind == "long":
                await asyncio.sleep(max(0.0, req.sent + CANCEL_AFTER_S - time.monotonic()))
                await self.call("DELETE", f"/v1/jobs/{req.job_id}")
                req.cancelled = True

    async def poll(self, outstanding: Dict[str, Request]) -> None:
        """One sweep over the outstanding jobs in submit order, stopping
        at the first one still running (jobs start in FIFO order, so
        the rest are most likely running or queued too) or as soon as a
        send is waiting for a connection."""
        for job_id, req in list(outstanding.items()):
            if self.waiting:
                return
            status, job = await self.call("GET", f"/v1/jobs/{job_id}")
            if status != 200 or job["status"] not in TERMINAL:
                return
            req.job = job
            del outstanding[job_id]

    async def run(self, requests: List[Request], t0: float) -> None:
        outstanding: Dict[str, Request] = {}
        tasks = []
        done_sending = asyncio.Event()

        async def poller() -> None:
            while not (done_sending.is_set() and not outstanding):
                await asyncio.sleep(POLL_S)
                await self.poll(outstanding)
                if time.monotonic() > t0 + requests[-1].due + DEADLINE_S + 5.0:
                    return  # whatever is left failed its deadline

        async def calibrator() -> None:
            # Blocks the loop for one calibration (~3 ms) per tick; a send
            # it delays shows in loadgen.lag_p90_ms.
            while not poll_task.done():
                self.speed.tick()
                await asyncio.sleep(TICK_EVERY_S)

        poll_task = asyncio.create_task(poller())
        calib_task = asyncio.create_task(calibrator()) if self.speed else None
        for req in requests:
            req.due += t0
            delay = req.due - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.create_task(self.submit(req, outstanding)))
        await asyncio.gather(*tasks)
        done_sending.set()
        await poll_task
        if calib_task is not None:
            await calib_task

    async def prime(self, hot: List[Request]) -> None:
        """Submit each hot program once and wait until all are done."""
        outstanding: Dict[str, Request] = {}
        await asyncio.gather(*(self.submit(req, outstanding) for req in hot))
        while outstanding:
            await asyncio.sleep(POLL_S / 4)
            await self.poll(outstanding)
        bad = [r.model for r in hot if r.job is None or r.job["status"] != "done"]
        if bad:
            raise RuntimeError(f"priming failed for {bad}")


def _boot_and_prime() -> Server:
    server = Server()
    try:
        asyncio.run(Client(server).prime(_hot_requests()))
    except BaseException:
        server.stop()
        raise
    return server


# -- results --------------------------------------------------------------------


def _ar1_library_ess_seconds(n: int, ess: float, seed: int) -> float:
    """The library ESS cost on an AR(1) chain with the job's length and
    ESS (the service ran that estimator on the job's own chain)."""
    phi = max(0.0, min(0.99, (n - ess) / (n + ess))) if n > 0 else 0.0
    rng = random.Random(seed)
    x, chain = 0.0, []
    for _ in range(n):
        x = phi * x + rng.gauss(0.0, 1.0)
        chain.append(x)
    return library_ess_seconds(chain)


def _record(req: Request, traced: bool) -> dict:
    job = req.job
    result = job["result"]
    stages = job.get("stage_seconds") or {}
    counters = job.get("counters") or {}
    info = (result.get("health") or {}).get("info", {})
    engine, backend = req.body["engine"], req.body["backend"]
    record = {
        "cell": (req.model, req.body["slicer"], engine, backend),
        "engine": engine,
        "backend": backend,
        "kind": req.kind,
        "span": (req.due, job["finished_t"]),
        "job_s": job["finished_t"] - req.due,
        "infer_s": stages.get("infer", 0.0),
        "draws": result["samples"],
        "ess": float(info["ess"]),
        "accept": result.get("acceptance_rate", 0.0),
        "cache_hit": job["cache"] == "hit",
        "cache_s": stages.get("sli", 0.0),
        "queue_s": job["started_t"] - job["created_t"],
        "run_s": job["finished_t"] - job["started_t"],
        "submit_s": req.submit_s,
    }
    if traced:
        kept = sum(v for k, v in counters.items() if k.startswith("slice.kept."))
        dropped = sum(v for k, v in counters.items() if k.startswith("slice.dropped."))
        record.update({
            "stages": stages,
            "slice_s": stages.get("sli", 0.0),
            "compile_s": stages.get("semantics.compile", 0.0)
            + stages.get("semantics.vectorize", 0.0),
            # Per-layer shares are of the server-side run of the job.
            "share_s": record["run_s"],
        })
        if engine == "mh":
            record["lib_ess_s"] = _ar1_library_ess_seconds(
                record["draws"], record["ess"], len(req.body["program"])
            )
        if kept + dropped:
            record["kept_frac"] = kept / (kept + dropped)
        if backend == "numpy":
            record["vectorized"] = not any(
                k.startswith("vectorized.fallback.") for k in counters
            )
    return record


def _check(req: Request, refs: Dict[str, Reference]) -> Optional[str]:
    result = req.job["result"]
    if "mean" not in result:
        return result.get("moments_unavailable", "no posterior mean")
    info = (result.get("health") or {}).get("info", {})
    if "ess" not in info:
        return "no ESS in the job's health report"
    ess = float(info["ess"])
    if req.body["engine"] == "mh":
        # As for in-process chains (see perfbench.common.describe).
        stuck = result.get("variance", 0.0) == 0.0
        ess = 1.0 if stuck else ess / MCMC_ESS_DISCOUNT
    reference = req.reference() if req.reference is not None else refs[req.model]
    sd = math.sqrt(max(result.get("variance", math.nan), 0.0))
    return check_posterior(result["mean"], sd, ess, reference)


def run(seed: int, seconds: float, trace: bool) -> dict:
    # The server stamps jobs with time.monotonic, so calibrations do too.
    speed = Speedometer(clock=time.monotonic)
    setups = timed_setups(_boot_and_prime, speed, SETUP_REPEATS, Server.stop)
    setup_times = [elapsed for _, elapsed in setups]
    server = setups[-1][0]
    try:
        requests = plan(seed, seconds)
        refs = table1_references()
        cpu0 = server.cpu_seconds()
        t0 = time.monotonic() + 0.05
        asyncio.run(Client(server, speed).run(requests, t0))
        wall = max(
            (r.job["finished_t"] for r in requests if r.job is not None),
            default=t0 + seconds,
        ) - t0
        cpu = server.cpu_seconds() - cpu0
        stats = asyncio.run(Client(server).call("GET", "/v1/stats"))[1]
        rss = server.peak_rss_mb()
    finally:
        server.stop()

    jobs: List[dict] = []
    failures: List[str] = []
    cancelled = refused = 0
    for req in requests:
        label = f"{req.kind}/{req.model}/{req.body['engine']}/{req.body['backend']}"
        if req.status in (429, 503):
            refused += 1
            failures.append(f"{label}: refused with HTTP {req.status}")
        elif req.status != 202:
            failures.append(f"{label}: HTTP {req.status}")
        elif req.job is None:
            failures.append(f"{label}: not finished {DEADLINE_S:g}s after its due time")
        elif req.cancelled and req.job["status"] == "cancelled":
            cancelled += 1
        elif req.job["status"] != "done":
            failures.append(f"{label}: {req.job['status']}: {req.job.get('error')}")
        else:
            problem = _check(req, refs)
            if problem is not None:
                failures.append(f"{label}: {problem}")
            else:
                jobs.append(_record(req, trace))
    attempted = len(requests) - cancelled
    normalise(jobs, speed)
    metrics = end_to_end(jobs, setup_times, wall, rss)
    # The sampling rates cover the hot set: fixed programs and seeds, so
    # they move with the server's speed only, not with fresh data.
    hot = [job for job in jobs if job["kind"] == "hot"]
    metrics["samples_per_s"] = cell_rate(hot, "draws")
    metrics["ess_per_s"] = cell_rate(hot, "ess")
    layers = layer_metrics(jobs)
    hits = [j["job_s"] for j in jobs if j["kind"] == "hot"]
    misses = [j["job_s"] for j in jobs if j["kind"] == "miss"]
    lags = [(r.sent - r.due) * 1e3 for r in requests if r.sent is not None]
    layers.update({
        "serve.submit.ms": mean(r.submit_s * 1e3 for r in requests if r.submit_s),
        "serve.queue_wait.ms": mean(j["queue_s"] * 1e3 for j in jobs),
        "serve.run.ms": mean(j["run_s"] * 1e3 for j in jobs),
        "serve.hit.job_ms": mean(h * 1e3 for h in hits),
        "serve.miss.job_ms": mean(m * 1e3 for m in misses),
        "serve.refused_frac": refused / max(1, len(requests)),
        "serve.cpu_ms_per_job": cpu * 1e3 / max(1, len(jobs) + cancelled),
        "serve.late_completions": float(
            stats["scheduler"]["counters"].get("late_completions", 0)
        ),
        "loadgen.lag_p90_ms": percentile(lags, 90),
    })
    return {
        "attempted": attempted,
        "failures": failures,
        "jobs": jobs,
        "end_to_end": metrics,
        "per_layer": layers,
        "cancelled": cancelled,
    }
