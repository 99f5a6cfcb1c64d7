"""Multi-process fan-out of embarrassingly parallel sampling work.

Every sampling engine draws in one sequential Python loop; MCMC
chains, i.i.d. importance/rejection draws, and SMC particle islands
are independent, so :class:`ParallelRunner` shards them across
``multiprocessing`` workers along the shape the engine itself declares
(:attr:`repro.inference.base.Engine.parallel_unit` plus the
``shard``/``merge`` protocol) instead of re-implementing fan-out per
engine.

Determinism discipline:

* ``n_workers=1`` never shards: the engine's own ``infer`` runs in
  this process, so the output is bit-identical to calling the engine
  directly.
* ``n_workers=k`` derives one seed per worker from the engine's master
  seed with :func:`spawn_seeds` (SHA-256 of ``(master, index)`` — an
  explicit, splittable seed stream in the spirit of NumPy's
  ``SeedSequence``, built on :mod:`hashlib` since :mod:`random` has no
  native equivalent).  Shard order is preserved through ``Pool.map``
  and the merge, so a fixed master seed reproduces the merged result
  exactly, run after run.

Workers receive ``(engine_shard, program)`` by pickle.  The default
start method is ``fork`` where available (cheap on Linux; workers
inherit warm caches) falling back to ``spawn``; ``backend="inline"``
runs the shards sequentially in-process — same shard/merge code path,
no processes — which is what the determinism tests and 1-core
environments use.
"""

from __future__ import annotations

import copy
import hashlib
import multiprocessing
import os
import time
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.ast import Program
from ..inference.base import (
    Engine,
    InferenceCancelled,
    InferenceError,
    InferenceResult,
)
from ..obs.recorder import TraceRecorder, current_recorder, use_recorder

if TYPE_CHECKING:
    from ..transforms.factorize import FactorSet

__all__ = ["ParallelRunner", "numpy_generator", "spawn_seeds"]

_BACKENDS = ("fork", "spawn", "forkserver", "inline")


def spawn_seeds(master_seed: int, n: int) -> List[int]:
    """``n`` independent 63-bit seeds derived from ``master_seed``.

    Deterministic (pure function of ``(master_seed, index)``) and
    collision-resistant across both arguments, so worker streams never
    alias each other or the master stream.
    """
    seeds = []
    for i in range(n):
        digest = hashlib.sha256(
            f"repro-seed-stream\x00{master_seed}\x00{i}".encode()
        ).digest()
        seeds.append(int.from_bytes(digest[:8], "big") >> 1)
    return seeds


def numpy_generator(master_seed: Optional[int], *path: object) -> np.random.Generator:
    """A ``numpy.random.Generator`` derived from the same SHA-256 seed
    stream as :func:`spawn_seeds`.

    ``path`` components keep independent consumers (the array backend's
    engines, per-shard lanes) off each other's streams; the whole
    derivation is a pure function of ``(master_seed, *path)``, so the
    ``n_workers=1`` reproducibility discipline extends to batched
    draws.  A ``None`` master seed yields OS entropy, matching the
    scalar engines' unseeded behaviour.
    """
    if master_seed is None:
        return np.random.default_rng()
    digest = hashlib.sha256(
        ("repro-numpy-stream\x00" + "\x00".join(str(p) for p in (master_seed, *path))).encode()
    ).digest()
    return np.random.default_rng(int.from_bytes(digest[:16], "big"))


def _infer_shard(
    payload: Tuple[Engine, Program, int, bool, float, Optional[object]]
) -> Tuple[InferenceResult, Optional[dict]]:
    """Top-level worker entry point (must be picklable by reference).

    With ``capture`` set, the shard runs under its own
    ``TraceRecorder(worker=index)`` whose whole buffer (the ``worker``
    span tree, engine progress, counters, gauges and histograms) ships
    back as one plain-dict payload for the parent to merge — the same
    code path regardless of start method, so fork/spawn/forkserver/
    inline all produce identical span structure.  ``sink`` (a manager
    queue, or an in-process adapter on the inline backend) is set when
    the parent has subscribers: the worker then publishes every
    ``cadence`` seconds and streams each snapshot home as
    ``(index, snapshot_dict)`` while the shard is still running.
    """
    engine, program, index, capture, cadence, sink = payload
    if not capture:
        return engine.infer(program), None
    subscribers = []
    if sink is not None:

        def ship(snapshot: object) -> None:
            try:
                sink.put((index, snapshot.to_dict()))  # type: ignore[union-attr]
            except Exception:
                pass  # a dead parent queue must not kill the shard

        subscribers.append(ship)
    recorder = TraceRecorder(cadence=cadence, subscribers=subscribers, worker=index)
    with use_recorder(recorder):
        with recorder.span(
            "worker", worker=index, engine=engine.name, pid=os.getpid()
        ):
            result = engine.infer(program)
    recorder.publish()  # the final state, to a live parent
    return result, recorder.to_payload()


class _InlineSink:
    """Queue stand-in for the inline backend: snapshots go straight to
    the parent recorder, synchronously and deterministically."""

    def __init__(self, recorder: TraceRecorder) -> None:
        self.recorder = recorder

    def put(self, item: Tuple[int, dict]) -> None:
        _, snapshot = item
        self.recorder.ingest_worker_snapshot(snapshot)


def _recombine(
    factor_set: "FactorSet", parts: Sequence[InferenceResult]
) -> InferenceResult:
    """Exact product recombination of per-factor sampling results.

    Factor variable sets are disjoint, so the i-th joint sample is the
    original return expression evaluated over the union of the i-th
    per-factor assignments, and (when any factor is weighted) the i-th
    joint weight is the product of the per-factor weights.
    """
    if len(parts) != len(factor_set.factors):
        raise InferenceError(
            f"expected {len(factor_set.factors)} factor results, "
            f"got {len(parts)}"
        )
    for part in parts:
        if part.exact is not None or part.moments is not None:
            raise InferenceError(
                "factored recombination requires sampling results"
            )
    n = min(len(part.samples) for part in parts)
    merged = InferenceResult()
    has_weights = any(part.weights is not None for part in parts)
    if has_weights:
        merged.weights = []
    for i in range(n):
        values = [part.samples[i] for part in parts]
        merged.samples.append(factor_set.recombine(values))
        if has_weights:
            w = 1.0
            for part in parts:
                if part.weights is not None:
                    w *= part.weights[i]
            assert merged.weights is not None
            merged.weights.append(w)
    for part in parts:
        merged.statements_executed += part.statements_executed
        merged.n_proposals += part.n_proposals
        merged.n_accepted += part.n_accepted
        merged.elapsed_seconds += part.elapsed_seconds
    return merged


def _default_workers() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


class ParallelRunner:
    """Run an engine's inference with its work fanned out over
    ``n_workers`` processes.

    ``backend`` is one of ``"fork"``, ``"spawn"``, ``"forkserver"``,
    or ``"inline"``; ``None`` picks ``fork`` when the platform offers
    it, else ``spawn``.  Engines that cannot shard
    (``parallel_unit == "none"``) run sequentially.  Per-shard wall
    budgets (``time_budget``) apply to each worker independently.
    """

    def __init__(
        self,
        n_workers: Optional[int] = None,
        backend: Optional[str] = None,
        cache: Optional[object] = None,
    ) -> None:
        if backend is not None and backend not in _BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {_BACKENDS}"
            )
        self.n_workers = _default_workers() if n_workers is None else n_workers
        if self.n_workers <= 0:
            raise ValueError("n_workers must be positive")
        if backend is None:
            methods = multiprocessing.get_all_start_methods()
            backend = "fork" if "fork" in methods else "spawn"
        self.backend = backend
        #: Optional :class:`repro.runtime.cache.ProgramCache`; when set
        #: and the engine runs compiled, the executor is compiled (or
        #: loaded) through the cache before forking, so every worker
        #: inherits the warm in-memory compilation instead of redoing it.
        self.cache = cache

    def run(
        self,
        engine: Engine,
        program: Program,
        cancel: Optional[Callable[[], bool]] = None,
    ) -> InferenceResult:
        """``engine.infer(program)``, parallelized when possible.

        The merged result's ``elapsed_seconds`` is the fan-out's wall
        time (workers' own clocks overlap and would double-count).

        ``cancel`` — optional zero-arg hook polled between shards
        (inline) or while the pool drains; when it turns true the
        fan-out stops (pool terminated) and :class:`InferenceCancelled`
        is raised.  This is the cooperative cancellation surface
        ``repro.serve`` uses for request deadlines; sequential
        single-worker runs check it once up front (mid-run cancellation
        there comes from the caller's recorder subscriber instead).
        """
        if cancel is not None and cancel():
            raise InferenceCancelled("run cancelled before it started")
        if self.cache is not None and getattr(engine, "compiled", False):
            self.cache.compiled(program)
        if self.n_workers <= 1 or engine.parallel_unit == "none":
            return engine.infer(program)
        seeds = spawn_seeds(getattr(engine, "seed", 0), self.n_workers)
        shards = engine.shard(self.n_workers, seeds)
        if len(shards) <= 1:
            return engine.infer(program)
        recorder = current_recorder()
        with recorder.span(
            "parallel.run",
            engine=engine.name,
            n_workers=len(shards),
            backend=self.backend,
            unit=engine.parallel_unit,
        ):
            start = time.perf_counter()
            pairs = self._map(shards, program, cancel=cancel)
            for _, payload in pairs:
                if payload is not None:
                    recorder.merge_child(payload)
            merged = engine.merge([result for result, _ in pairs])
            merged.elapsed_seconds = time.perf_counter() - start
        return merged

    def run_factored(
        self,
        engine: Engine,
        factor_set: "FactorSet",
        cancel: Optional[Callable[[], bool]] = None,
    ) -> InferenceResult:
        """Shard-by-factor inference: run ``engine`` independently on
        every factor of ``factor_set`` and recombine the per-factor
        sub-posteriors into a joint result.

        Each factor gets a clone of the engine with its own seed from
        the master's :func:`spawn_seeds` stream, so the result is
        deterministic in the engine's seed.  Recombination is the exact
        product over disjoint variable sets: per-index factor outputs
        join into one assignment, the original return expression is
        evaluated on it, and importance weights multiply (both the
        proposal and the target factorize across factors, so the
        product weight is the joint weight).  Joint samples are capped
        at the smallest per-factor sample count; work counters sum;
        cross-factor chain diagnostics are unavailable (``chains`` is
        ``None``) because no worker ever sees the joint state.

        Evidence-only factors still run — they carry the conditioning
        (a blocked factor must surface the same ``InferenceError`` the
        monolithic run would) — but their samples join as the empty
        assignment.
        """
        if cancel is not None and cancel():
            raise InferenceCancelled("run cancelled before it started")
        factors = factor_set.factors
        if not factors:
            # Everything was dropped (constant return): a point mass.
            return InferenceResult(samples=[factor_set.recombine([])])
        if self.cache is not None and getattr(engine, "compiled", False):
            for factor in factors:
                self.cache.compiled(factor.program)
        seeds = spawn_seeds(getattr(engine, "seed", 0), len(factors))
        clones: List[Engine] = []
        for seed in seeds:
            clone = copy.copy(engine)
            if hasattr(clone, "seed"):
                clone.seed = seed  # type: ignore[attr-defined]
            clones.append(clone)
        tasks = [
            (clone, factor.program)
            for clone, factor in zip(clones, factors)
        ]
        recorder = current_recorder()
        with recorder.span(
            "parallel.run_factored",
            engine=engine.name,
            n_factors=len(factors),
            backend=self.backend,
        ):
            start = time.perf_counter()
            pairs = self._map_tasks(
                tasks, force_inline=self.n_workers <= 1, cancel=cancel
            )
            for _, payload in pairs:
                if payload is not None:
                    recorder.merge_child(payload)
            merged = _recombine(factor_set, [result for result, _ in pairs])
            merged.elapsed_seconds = time.perf_counter() - start
        return merged

    def _map(
        self,
        shards: Sequence[Engine],
        program: Program,
        cancel: Optional[Callable[[], bool]] = None,
    ) -> List[Tuple[InferenceResult, Optional[dict]]]:
        return self._map_tasks(
            [(shard, program) for shard in shards], cancel=cancel
        )

    def _map_tasks(
        self,
        tasks: Sequence[Tuple[Engine, Program]],
        force_inline: bool = False,
        cancel: Optional[Callable[[], bool]] = None,
    ) -> List[Tuple[InferenceResult, Optional[dict]]]:
        recorder = current_recorder()
        capture = recorder.enabled
        inline = self.backend == "inline" or force_inline
        # A parent with subscribers (watch, NDJSON stream, SSE, health)
        # gets the workers' in-flight snapshots through a sink.
        cadence = recorder.cadence if capture else 0.0
        manager = None
        sink: Optional[object] = None
        if capture and recorder.subscribers:
            if inline:
                sink = _InlineSink(recorder)
            else:
                ctx = multiprocessing.get_context(self.backend)
                manager = ctx.Manager()
                sink = manager.Queue()
        payloads = [
            (engine, program, i, capture, cadence, sink)
            for i, (engine, program) in enumerate(tasks)
        ]
        try:
            if inline:
                results = []
                for p in payloads:
                    if cancel is not None and cancel():
                        raise InferenceCancelled(
                            f"cancelled after {len(results)} of "
                            f"{len(payloads)} shards"
                        )
                    results.append(_infer_shard(p))
                return results
            ctx = multiprocessing.get_context(self.backend)
            processes = min(len(payloads), max(1, self.n_workers))
            with ctx.Pool(processes=processes) as pool:
                if sink is None and cancel is None:
                    return pool.map(_infer_shard, payloads, chunksize=1)
                handle = pool.map_async(_infer_shard, payloads, chunksize=1)
                while not handle.ready():
                    if cancel is not None and cancel():
                        pool.terminate()
                        raise InferenceCancelled(
                            "cancelled while the worker pool was busy"
                        )
                    if sink is not None:
                        self._drain(sink, recorder)
                    handle.wait(0.05)
                if sink is not None:
                    self._drain(sink, recorder)
                return handle.get()
        finally:
            if manager is not None:
                manager.shutdown()

    @staticmethod
    def _drain(sink: object, recorder: TraceRecorder) -> None:
        """Forward queued in-flight worker snapshots to the parent
        recorder's subscribers."""
        import queue as _queue

        while True:
            try:
                _, snapshot = sink.get_nowait()  # type: ignore[attr-defined]
            except (_queue.Empty, OSError, EOFError):
                return
            recorder.ingest_worker_snapshot(snapshot)

    def __repr__(self) -> str:
        return (
            f"ParallelRunner(n_workers={self.n_workers}, "
            f"backend={self.backend!r})"
        )
