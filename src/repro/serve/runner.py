"""Job execution: the slice→compile→infer run behind each job.

The scheduler hands a job to a *runner* and gets two callbacks back:

* ``emit(kind, data)`` — append one event to the job's log (snapshots
  stream through here while the engine runs);
* ``done(outcome)`` — the job finished, one way or another.

:class:`LocalRunner` is the production runner: one daemon thread per
job, running the full pipeline through the shared
:class:`~repro.runtime.cache.ProgramCache` (so the second submit of a
fingerprint-identical program skips slicing and compilation — the
single-flight locks inside the cache make even *simultaneous*
duplicate submits compile once) and fanning sampling out via
:class:`~repro.runtime.parallel.ParallelRunner` when the job asks for
more than one worker.  Callbacks are marshalled through ``post`` —
the asyncio app passes ``loop.call_soon_threadsafe`` so all job-state
mutation happens on the event-loop thread; the default (direct call)
suits synchronous tests.

The test suite swaps in ``repro.serve.testing.FakeRunner``, which
completes jobs only when told to — that, plus the scheduler's frozen
clock, is what makes every lifecycle test sleep-free.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from ..inference.base import InferenceCancelled, InferenceError
from ..obs.health import HealthTracker
from ..obs.recorder import TraceRecorder, use_recorder
from ..runtime.cache import ProgramCache
from ..runtime.parallel import ParallelRunner
from .jobs import CANCELLED, DONE, FAILED, Job
from .protocol import build_engine
from .sse import SnapshotBridge

__all__ = ["JobOutcome", "LocalRunner", "summarize_result"]


@dataclass
class JobOutcome:
    """What a runner reports back through ``done``."""

    status: str
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    #: "hit" when the ProgramCache served the slice (no ``pass.*``
    #: spans ran in this job's trace), else "miss".
    cache: Optional[str] = None
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)
    partial: bool = False


def summarize_result(inferred: Any) -> Dict[str, Any]:
    """The posterior summary embedded in a ``done`` job (mirrors the
    CLI's printed summary, as plain data)."""
    out: Dict[str, Any] = {
        "samples": len(inferred.samples),
        "statements_executed": inferred.statements_executed,
        "elapsed_seconds": inferred.elapsed_seconds,
    }
    if inferred.n_proposals:
        out["acceptance_rate"] = inferred.acceptance_rate
    try:
        out["mean"] = inferred.mean()
        out["variance"] = inferred.variance()
    except InferenceError as exc:
        out["moments_unavailable"] = str(exc)
    return out


class LocalRunner:
    """Run jobs on threads in this process, through a shared cache.

    ``post(fn, *args)`` marshals every callback; the serve app passes
    ``loop.call_soon_threadsafe`` so job state only ever mutates on
    the event-loop thread.  ``clock`` feeds each job's
    :class:`TraceRecorder` snapshot timeline (injectable for
    cadence-deterministic tests).  ``parallel_backend`` picks the
    :class:`ParallelRunner` start method for multi-worker jobs
    (``None`` = platform default; single-worker jobs never fork).
    """

    def __init__(
        self,
        cache: Optional[ProgramCache] = None,
        post: Optional[Callable[..., None]] = None,
        clock: Callable[[], float] = time.monotonic,
        parallel_backend: Optional[str] = None,
    ) -> None:
        self.cache = ProgramCache() if cache is None else cache
        self.post = post if post is not None else (lambda fn, *a: fn(*a))
        self.clock = clock
        self.parallel_backend = parallel_backend
        self._threads: Dict[str, threading.Thread] = {}

    # -- JobRunner protocol ----------------------------------------------------

    def start(
        self,
        job: Job,
        emit: Callable[[str, Dict[str, Any]], None],
        done: Callable[[JobOutcome], None],
    ) -> None:
        thread = threading.Thread(
            target=self._run,
            args=(job, emit, done),
            name=f"serve-job-{job.id}",
            daemon=True,
        )
        self._threads[job.id] = thread
        thread.start()

    def cancel(self, job: Job) -> None:
        """Cancellation is cooperative: the scheduler already set
        ``job.cancel_requested``; the job's snapshot bridge and the
        parallel runner's cancel hook observe it.  Nothing to force."""

    def join(self, timeout: Optional[float] = None) -> None:
        """Wait until no job threads remain (shutdown and tests).

        Loops rather than joining one snapshot: a finishing job's
        ``done`` callback can pump a queued job onto a *new* thread,
        which must also drain before join returns."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            threads = list(self._threads.values())
            if not threads:
                return
            for thread in threads:
                if deadline is None:
                    thread.join()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return
                    thread.join(remaining)

    @property
    def n_threads(self) -> int:
        return len(self._threads)

    # -- the job body ----------------------------------------------------------

    def _run(
        self,
        job: Job,
        emit: Callable[[str, Dict[str, Any]], None],
        done: Callable[[JobOutcome], None],
    ) -> None:
        spec = job.spec
        bridge = SnapshotBridge(
            emit=lambda kind, data: self.post(emit, kind, data),
            should_cancel=lambda: job.cancel_requested,
        )
        health = HealthTracker()
        recorder = TraceRecorder(
            cadence=spec.cadence, subscribers=[bridge, health], clock=self.clock
        )
        try:
            with use_recorder(recorder):
                result = self.cache.slice(
                    spec.program,
                    slicer=spec.slicer,
                    factorize=spec.factorize,
                )
                engine = build_engine(spec)
                runner = ParallelRunner(
                    n_workers=spec.jobs,
                    backend=self.parallel_backend,
                    cache=self.cache,
                )
                cancel = lambda: job.cancel_requested  # noqa: E731
                with recorder.span(
                    "infer", engine=engine.name, jobs=spec.jobs,
                    seed=spec.seed,
                ):
                    if spec.factorize and result.factors is not None:
                        inferred = runner.run_factored(
                            engine, result.factors, cancel=cancel
                        )
                    else:
                        inferred = runner.run(
                            engine, result.sliced, cancel=cancel
                        )
                # Terminal snapshot: short runs may never cross the
                # cadence; the SSE stream must still see final state.
                recorder.publish()
                summary = summarize_result(inferred)
                summary["health"] = health.finalize(inferred).to_dict()
            outcome = JobOutcome(
                status=DONE,
                result=summary,
                cache=self._cache_verdict(recorder),
                stage_seconds=recorder.stage_seconds(),
                counters=dict(recorder.counters),
            )
        except InferenceCancelled as exc:
            outcome = JobOutcome(
                status=CANCELLED,
                error=str(exc),
                cache=self._cache_verdict(recorder),
                stage_seconds=recorder.stage_seconds(),
                counters=dict(recorder.counters),
                partial=True,
            )
        except BaseException as exc:  # a job must never kill its slot
            outcome = JobOutcome(
                status=FAILED,
                error=f"{type(exc).__name__}: {exc}",
                cache=self._cache_verdict(recorder),
                stage_seconds=recorder.stage_seconds(),
                counters=dict(recorder.counters),
            )
        try:
            self.post(done, outcome)
        finally:
            # Deregister only after the outcome is delivered, so
            # join() returning implies every done callback has run.
            self._threads.pop(job.id, None)

    @staticmethod
    def _cache_verdict(trace: TraceRecorder) -> Optional[str]:
        """"hit" iff the ProgramCache served the slice — equivalently,
        no ``pass.*`` span ran in this job's own trace."""
        counters = trace.counters
        if counters.get("cache.slice.hit", 0) >= 1 and not any(
            span.name.startswith("pass.") for span in trace.iter_spans()
        ):
            return "hit"
        if counters.get("cache.slice.miss", 0) >= 1:
            return "miss"
        # The job died before it ever consulted the cache.
        return None
