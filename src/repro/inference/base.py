"""Common infrastructure for the inference engines."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import random
from typing import TYPE_CHECKING

from ..core.ast import Program
from ..metrics.online import effective_sample_size  # noqa: F401  (import path kept for callers)
from ..semantics.distribution import FiniteDist
from ..semantics.executor import ExecutorOptions, RunResult, run_program
from ..semantics.values import Value

if TYPE_CHECKING:
    from ..semantics.trace import Trace

__all__ = [
    "InferenceError",
    "UnsupportedProgramError",
    "InferenceTimeout",
    "InferenceCancelled",
    "InitializationError",
    "InferenceResult",
    "Engine",
    "split_evenly",
]


def split_evenly(total: int, n_shards: int) -> List[int]:
    """Split ``total`` units of work into ``n_shards`` near-equal parts
    (earlier shards take the remainder); parts may be zero."""
    if n_shards <= 0:
        raise ValueError("n_shards must be positive")
    base, rem = divmod(total, n_shards)
    return [base + (1 if i < rem else 0) for i in range(n_shards)]


class InferenceError(RuntimeError):
    """Generic inference failure."""


class UnsupportedProgramError(InferenceError):
    """The engine cannot handle a feature of this program (e.g. the
    Church-like engine and the Gamma distribution, or rejection
    sampling with soft conditioning)."""


class InferenceTimeout(InferenceError):
    """The engine exceeded its wall-clock budget — this is how the
    paper's 'Church does not terminate on the original program' rows
    manifest in our harness."""


class InferenceCancelled(InferenceError):
    """The run was cancelled cooperatively before it finished.

    Raised by the :class:`repro.runtime.parallel.ParallelRunner` when
    its ``cancel`` hook turns true mid-run, and by ``repro.serve``'s
    deadline enforcement (a snapshot subscriber raises it inside the
    engine's thread).  Engines themselves never raise it.
    """


class InitializationError(InferenceError):
    """No trace satisfying the hard observations was found."""


@dataclass
class InferenceResult:
    """Output of an inference engine.

    For samplers, ``samples`` holds the (post-burn-in) return values
    and ``weights`` optional importance weights.  The exact engine
    sets ``exact`` directly.  ``statements_executed`` is a
    deterministic work measure used by the benchmark harness alongside
    wall time.

    Results produced by the parallel runtime (:mod:`repro.runtime`)
    additionally carry ``chains``: the per-worker sample lists, in
    worker order, for cross-chain diagnostics (split-R̂ / ESS over the
    *independent* chains rather than the pooled stream).
    """

    samples: List[Value] = field(default_factory=list)
    weights: Optional[List[float]] = None
    exact: Optional[FiniteDist] = None
    #: Continuous engines (Gaussian EP) report posterior (mean, variance).
    moments: Optional[tuple] = None
    elapsed_seconds: float = 0.0
    statements_executed: int = 0
    n_proposals: int = 0
    n_accepted: int = 0
    #: Per-worker sample lists when this result was merged from a
    #: multi-chain parallel run (``None`` for sequential results).
    chains: Optional[List[List[Value]]] = None
    #: Number of distinct root ancestors among the final particles of
    #: an SMC run (``None`` for non-particle engines).  Resampling
    #: collapses genealogies, so this — not the particle count — bounds
    #: the number of independent draws the population represents.
    lineages: Optional[int] = None
    #: :class:`repro.obs.health.HealthReport` attached by run drivers
    #: (the CLI) when a :class:`~repro.obs.health.HealthTracker` was
    #: subscribed to the run's recorder; ``None`` otherwise.  Typed loosely to keep this module free of any
    #: obs-layer import.
    health: Optional[object] = field(default=None, repr=False, compare=False)
    #: Memoized ``(len(samples), mean, variance)`` reduction — the
    #: benchmark reporting calls ``mean()``/``variance()`` repeatedly
    #: and each was an O(n) Python loop per call.  Keyed by the sample
    #: count so appends during inference invalidate it naturally.
    _reductions: Optional[tuple] = field(
        default=None, repr=False, compare=False
    )

    @property
    def acceptance_rate(self) -> float:
        if self.n_proposals == 0:
            return 0.0
        return self.n_accepted / self.n_proposals

    @classmethod
    def merge(
        cls,
        parts: Sequence["InferenceResult"],
        keep_chains: bool = False,
    ) -> "InferenceResult":
        """Combine per-worker results into one.

        Samples and weights concatenate in worker order (deterministic:
        the runner preserves shard order), work counters sum, and the
        acceptance statistics pool.  ``keep_chains=True`` records each
        part's samples as an independent chain for cross-chain
        diagnostics.  ``elapsed_seconds`` sums the workers' own clocks;
        the parallel runner overwrites it with the wall-clock time of
        the whole fan-out.
        """
        if not parts:
            raise InferenceError("cannot merge zero inference results")
        merged = cls()
        has_weights = any(p.weights is not None for p in parts)
        if has_weights:
            merged.weights = []
        for p in parts:
            merged.samples.extend(p.samples)
            if has_weights:
                assert merged.weights is not None
                if p.weights is None:
                    raise InferenceError(
                        "cannot merge weighted and unweighted results"
                    )
                merged.weights.extend(p.weights)
            merged.statements_executed += p.statements_executed
            merged.n_proposals += p.n_proposals
            merged.n_accepted += p.n_accepted
            merged.elapsed_seconds += p.elapsed_seconds
        if all(p.lineages is not None for p in parts):
            # Independent islands: their surviving genealogies add.
            merged.lineages = sum(p.lineages for p in parts)  # type: ignore[misc]
        if keep_chains:
            merged.chains = [list(p.samples) for p in parts]
        return merged

    def distribution(self) -> FiniteDist:
        """The (estimated or exact) output distribution."""
        if self.exact is not None:
            return self.exact
        if self.moments is not None:
            raise InferenceError(
                "continuous moment-based result has no finite distribution"
            )
        if self.weights is not None:
            return FiniteDist.from_weighted_samples(zip(self.samples, self.weights))
        return FiniteDist.from_samples(self.samples)

    def mean(self) -> float:
        """Posterior mean of the return value (booleans as 0/1)."""
        if self.moments is not None:
            return self.moments[0]
        if self.exact is not None:
            return self.exact.expectation()
        return self._sample_reductions()[1]

    def variance(self) -> float:
        """Posterior variance of the return value."""
        if self.moments is not None:
            return self.moments[1]
        if self.exact is not None:
            return self.exact.variance()
        return self._sample_reductions()[2]

    def _sample_reductions(self) -> tuple:
        """``(n, mean, variance)`` over the samples, computed once per
        sample count.  The formulas are unchanged from the historical
        per-call loops (two passes, so the floating-point results are
        bit-identical to before the memoization)."""
        n = len(self.samples)
        cached = self._reductions
        if cached is not None and cached[0] == n:
            return cached
        if n == 0:
            raise InferenceError("no samples")
        if self.weights is not None:
            total = sum(self.weights)
            if total <= 0.0:
                raise InferenceError("all importance weights are zero")
            m = (
                sum(float(s) * w for s, w in zip(self.samples, self.weights)) / total
            )
            v = (
                sum(w * (float(s) - m) ** 2 for s, w in zip(self.samples, self.weights))
                / total
            )
        else:
            m = sum(float(s) for s in self.samples) / n
            v = sum((float(s) - m) ** 2 for s in self.samples) / n
        self._reductions = (n, m, v)
        return self._reductions


class Engine:
    """Abstract inference engine: ``infer(program) -> InferenceResult``.

    Engines that execute programs forward route every run through
    :meth:`_run_program`, which honors the opt-in ``compiled`` flag:
    when set, the program is translated once to Python closures
    (:mod:`repro.semantics.compiled` — built on the shared IR) and runs
    skip per-node interpretive dispatch.  Default off; the compiled
    executor replicates :func:`repro.semantics.executor.run_program`'s
    trace, replay, and blocked-run behavior exactly, so the flag only
    changes speed, never the sampled stream.

    ``compiled`` is tri-state (``bool | str``, backward compatible —
    any truthy value routes scalar runs through the closure backend):

    * ``False`` — interpret every run;
    * ``True`` — closure backend (:mod:`repro.semantics.compiled`);
    * ``"numpy"`` — the array backend
      (:mod:`repro.semantics.vectorized`): batch-capable engines
      (rejection, importance, MH, SMC) advance whole batches of lanes
      per numpy step.  Programs outside the vectorizable fragment fall
      back to the closure backend per engine run; :meth:`_vectorize`
      records the fallback and its ``NotVectorizable`` reason as obs
      counters (``vectorized.fallback.*``) so the fallback is never
      silent.
    """

    name: str = "engine"
    #: Opt-in executor selection: ``False`` (interpreter), ``True``
    #: (closure backend), or ``"numpy"`` (array backend with closure
    #: fallback).  Any truthy value keeps scalar helper runs compiled.
    compiled: "bool | str" = False
    #: How this engine's sampling work decomposes across workers:
    #: ``"chains"`` (independent MCMC chains: MH, trace MH, Gibbs),
    #: ``"draws"`` (i.i.d. draws: importance, rejection), ``"islands"``
    #: (SMC particle islands), or ``"none"`` (cannot be sharded — the
    #: parallel runner falls back to a single sequential ``infer``).
    parallel_unit: str = "none"

    def infer(self, program: Program) -> InferenceResult:
        raise NotImplementedError

    # -- parallel-decomposition protocol (repro.runtime) ----------------------

    def shard(self, n_shards: int, seeds: Sequence[int]) -> List["Engine"]:
        """Split this engine's sampling work into ``n_shards``
        independently-runnable engines.

        Each shard is a configured copy with its slice of the total
        sample budget and ``seeds[i]`` as its seed; the runner derives
        ``seeds`` deterministically from the engine's master seed, so a
        fixed master seed makes the whole fan-out reproducible.  A
        shard may be omitted when its share of the budget is zero, so
        the returned list can be shorter than ``n_shards``.  Engines
        with ``parallel_unit == "none"`` raise.
        """
        raise UnsupportedProgramError(
            f"engine {self.name!r} does not support parallel sharding"
        )

    def merge(self, parts: Sequence[InferenceResult]) -> InferenceResult:
        """Combine the shard results (in shard order) into one result.

        The default pools samples/weights/work counters; chain-shaped
        engines keep per-chain samples for cross-chain diagnostics.
        """
        return InferenceResult.merge(
            parts, keep_chains=self.parallel_unit == "chains"
        )

    def _run_program(
        self,
        program: Program,
        rng: random.Random,
        base_trace: "Optional[Trace]" = None,
        options: ExecutorOptions = ExecutorOptions(),
    ) -> RunResult:
        """One forward run of ``program``, interpreted or compiled."""
        if self.compiled:
            from ..semantics.compiled import compile_program

            return compile_program(program).run(
                rng, base_trace=base_trace, options=options
            )
        return run_program(program, rng, base_trace=base_trace, options=options)

    def _vectorize(self, program: Program):
        """The program's array-backend compilation when
        ``compiled == "numpy"`` and the program is inside the
        vectorizable fragment, else ``None``.

        A ``None`` from a ``"numpy"`` engine means *fallback*: the
        engine proceeds on the closure backend (``"numpy"`` is truthy,
        so :meth:`_run_program` already compiles), and the obs counters
        ``vectorized.fallback.<engine>`` and
        ``vectorized.fallback.reason.<reason>`` record why.
        """
        if self.compiled != "numpy":
            return None
        from ..obs.recorder import current_recorder
        from ..semantics.vectorized import NotVectorizable, compile_vectorized

        try:
            vectorized = compile_vectorized(program)
        except NotVectorizable as exc:
            recorder = current_recorder()
            recorder.counter(f"vectorized.fallback.{self.name}")
            recorder.counter(f"vectorized.fallback.reason.{exc.reason}")
            return None
        current_recorder().counter(f"vectorized.used.{self.name}")
        return vectorized

