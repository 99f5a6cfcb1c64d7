"""Forward execution of PROB programs with trace recording and replay.

The one interpreter of the Figure 8 semantics.  Its statement walker
is a generator with two shapes, as the closure backend's code
generator (:mod:`repro.semantics.compiled`) emits two functions:

* the **full run**, :func:`run_program`, executes a program once.  It
  samples fresh values from each ``x ~ Dist(...)`` site, or reuses the
  value recorded in a *base trace* at the same address (the replay
  mechanism MH proposals use); accumulates the run's **log
  likelihood** from ``observe`` (0 or ``-inf``), ``observe(Dist, v)``
  (log density) and ``factor``; and counts executed primitive
  statements, the deterministic work measure the benchmark harness
  reports alongside wall time;
* the **SMC particle**, :func:`interpreted_particle`, instead pauses at
  each conditioning statement and yields its log-weight increment.
  :class:`ParticleRun` drives it, or the closure backend's particle.

A full run whose hard ``observe`` fails is *blocked*: execution stops
early and the result carries ``log_likelihood == -inf``.  So is one
whose replayed value *lost* its support (it had mass when recorded and
has none under the site's current parameters); a recorded value that
never had mass replays as recorded.  A ``while`` loop exceeding the
iteration cap raises :class:`NonTerminatingRun`; callers treat such
runs as contributing zero mass, which matches the paper's
normalized-over-terminating-runs semantics.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from ..core.ast import (
    Assign,
    Block,
    Decl,
    Factor,
    If,
    Observe,
    ObserveSample,
    Program,
    Sample,
    Skip,
    Stmt,
    While,
)
from ..dists import make_distribution
from .trace import Address, Trace, TraceEntry, total_log_prior
from .values import State, Value, default_value, eval_dist_args, eval_expr

__all__ = [
    "RunResult",
    "NonTerminatingRun",
    "run_program",
    "ExecutorOptions",
    "ParticleRun",
    "interpreted_particle",
]

NEG_INF = float("-inf")


class NonTerminatingRun(RuntimeError):
    """A while loop exceeded the iteration cap."""


class _BlockedRun(Exception):
    """Internal: the full run is blocked; unwind it."""


@dataclass(frozen=True)
class ExecutorOptions:
    """``max_loop_iterations`` bounds each while loop's trip count.

    ``observe_penalty``: when set, a failed hard ``observe`` does not
    block the run; it subtracts the penalty from the log likelihood and
    increments the run's violation count.  This *relaxed* execution
    mode powers the annealed initialization of the MH engines (finding
    a trace satisfying thousands of hard observations — the TrueSkill
    benchmarks — by rejection alone is hopeless).
    """

    max_loop_iterations: int = 1_000_000
    observe_penalty: Optional[float] = None


@dataclass
class RunResult:
    """Outcome of one forward run.

    ``value`` is ``None`` for blocked runs.  ``log_joint`` is the score
    lightweight MH compares: total log prior of the trace plus the log
    likelihood.  ``violations`` counts failed hard observes under the
    relaxed (``observe_penalty``) mode; it is 0 in normal mode.
    """

    value: Optional[Value]
    log_likelihood: float
    trace: Trace
    statements_executed: int
    violations: int = 0

    @property
    def blocked(self) -> bool:
        return self.log_likelihood == NEG_INF

    @property
    def log_joint(self) -> float:
        if self.blocked:
            return NEG_INF
        return self.log_likelihood + total_log_prior(self.trace)


class _Executor:
    """The interpreter.  :meth:`exec_stmt` is a generator in both
    shapes.  In the full run a conditioning statement folds its term
    into ``log_likelihood`` (blocking, or paying ``observe_penalty``)
    and nothing is yielded.  In the ``particle`` shape it yields the
    term instead: 0.0 or ``-inf`` for ``observe(b)``, the log density
    for ``observe(D, v)``, the weight for ``factor``.  Only ``Block``,
    ``If`` and ``While`` recurse through generators; a primitive
    statement is a plain call to its step in :data:`_STEPS`."""

    def __init__(
        self,
        rng: random.Random,
        base_trace: Optional[Trace],
        options: ExecutorOptions,
        trace: Optional[Trace] = None,
        particle: bool = False,
    ) -> None:
        self._rng = rng
        self._base = base_trace or {}
        self._opts = options
        self._particle = particle
        self.state: State = {}
        self.trace: Trace = {} if trace is None else trace
        self.log_likelihood = 0.0
        self.statements = 0
        self.violations = 0

    def exec_stmt(self, stmt: Stmt, address: Address) -> Iterator[float]:
        # An ``if`` runs its taken branch in this same generator.
        while isinstance(stmt, If):
            self.statements += 1
            if eval_expr(stmt.cond, self.state) is True:
                stmt, address = stmt.then_branch, address + ("T",)
            else:
                stmt, address = stmt.else_branch, address + ("E",)
        if isinstance(stmt, Block):
            for i, s in enumerate(stmt.stmts):
                step = _STEPS.get(type(s))
                if step is None:
                    yield from self.exec_stmt(s, address + (i,))
                else:
                    delta = step(self, s, address + (i,))
                    if delta is not None:
                        yield delta
            return
        if isinstance(stmt, While):
            self.statements += 1
            iteration = 0
            while eval_expr(stmt.cond, self.state) is True:
                if iteration >= self._opts.max_loop_iterations:
                    raise NonTerminatingRun(
                        f"while loop exceeded {self._opts.max_loop_iterations} iterations"
                    )
                yield from self.exec_stmt(stmt.body, address + ("W", iteration))
                iteration += 1
                self.statements += 1
            return
        step = _STEPS.get(type(stmt))
        if step is None:
            raise TypeError(f"not a statement: {stmt!r}")
        delta = step(self, stmt, address)
        if delta is not None:
            yield delta

    # -- primitive statements: each returns a conditioning statement's
    # term in the particle shape, else None -------------------------------

    def _decl(self, stmt: Decl, address: Address) -> None:
        self.statements += 1
        self.state[stmt.name] = default_value(stmt.type)

    def _assign(self, stmt: Assign, address: Address) -> None:
        self.statements += 1
        self.state[stmt.name] = eval_expr(stmt.expr, self.state)

    def _sample(self, stmt: Sample, address: Address) -> None:
        self.statements += 1
        dist = make_distribution(stmt.dist.name, eval_dist_args(stmt.dist, self.state))
        entry = self._base.get(address)
        if entry is not None and entry.dist_name == stmt.dist.name:
            # Reuse the recorded value, re-scored under the current
            # parameters (which may have changed upstream).
            lp = dist.log_prob(entry.value)
            if lp == NEG_INF and entry.log_prior != NEG_INF:
                # The value lost its support: the state has zero
                # density.  Drawing afresh instead would leave the draw
                # out of MH's Hastings ratio.  A value that never had
                # mass (a prior draw that underflowed) replays as
                # recorded, so an SMC clone copies its source.
                self.log_likelihood = NEG_INF
                raise _BlockedRun()
            self.trace[address] = TraceEntry(entry.value, lp, stmt.dist.name)
            self.state[stmt.name] = entry.value
            return
        value = dist.sample(self._rng)
        self.trace[address] = TraceEntry(value, dist.log_prob(value), stmt.dist.name)
        self.state[stmt.name] = value

    def _observe(self, stmt: Observe, address: Address) -> Optional[float]:
        self.statements += 1
        held = eval_expr(stmt.cond, self.state) is True
        if self._particle:
            return 0.0 if held else NEG_INF
        if not held:
            if self._opts.observe_penalty is not None:
                self.log_likelihood -= self._opts.observe_penalty
                self.violations += 1
                return None
            self.log_likelihood = NEG_INF
            raise _BlockedRun()
        return None

    def _observe_sample(self, stmt: ObserveSample, address: Address) -> Optional[float]:
        self.statements += 1
        dist = make_distribution(stmt.dist.name, eval_dist_args(stmt.dist, self.state))
        lp = dist.log_prob(eval_expr(stmt.value, self.state))
        if self._particle:
            return lp
        if lp == NEG_INF:
            self.log_likelihood = NEG_INF
            raise _BlockedRun()
        self.log_likelihood += lp
        return None

    def _factor(self, stmt: Factor, address: Address) -> Optional[float]:
        self.statements += 1
        weight = float(eval_expr(stmt.log_weight, self.state))
        if self._particle:
            return weight
        self.log_likelihood += weight
        if self.log_likelihood == NEG_INF:
            raise _BlockedRun()
        return None


#: Each primitive statement class's step, looked up by exact type (the
#: AST classes are never subclassed): one dictionary probe instead of
#: a chain of ``isinstance`` tests.  Compound statements have none.
_STEPS = {
    Skip: lambda ex, stmt, address: None,
    Decl: _Executor._decl,
    Assign: _Executor._assign,
    Sample: _Executor._sample,
    Observe: _Executor._observe,
    ObserveSample: _Executor._observe_sample,
    Factor: _Executor._factor,
}


def run_program(
    program: Program,
    rng: random.Random,
    base_trace: Optional[Trace] = None,
    options: ExecutorOptions = ExecutorOptions(),
) -> RunResult:
    """Execute ``program`` once.

    When ``base_trace`` is given, sample sites whose address appears in
    it (with a compatible distribution) reuse the recorded value, and
    the run is blocked when that value lost its mass there; all other
    sites sample fresh from the prior.

    Raises :class:`NonTerminatingRun` when a loop exceeds the cap.
    """
    ex = _Executor(rng, base_trace, options)
    try:
        for _ in ex.exec_stmt(program.body, ()):
            pass  # the full-run shape yields nothing
        value: Optional[Value] = eval_expr(program.ret, ex.state)
    except _BlockedRun:
        value = None
    return RunResult(
        value, ex.log_likelihood, ex.trace, ex.statements, ex.violations
    )


def interpreted_particle(program: Program) -> Callable[..., Iterator[float]]:
    """``program``'s SMC particle on the interpreter: a generator
    function with the signature of the closure backend's
    ``_compiled_particle``, for :class:`ParticleRun` to drive."""

    def particle(ctx, rng, base, trace, max_loop_iterations):
        ex = _Executor(
            rng, base, ExecutorOptions(max_loop_iterations), trace, particle=True
        )
        for delta in ex.exec_stmt(program.body, ()):
            ctx.statements += ex.statements
            ex.statements = 0
            yield delta
        ctx.statements += ex.statements
        ctx.value = eval_expr(program.ret, ex.state)

    return particle


class ParticleRun:
    """One SMC particle on either scalar backend.  ``particle`` is a
    generator function ``(ctx, rng, base_trace, trace,
    max_loop_iterations)``, :func:`interpreted_particle`'s or a compiled
    program's ``particle``.  ``advance`` runs it to the next
    conditioning barrier and returns that barrier's log-weight
    increment (``None`` once finished).  The generator writes ``trace``,
    ``value`` and ``statements``, the work since SMC last collected and
    reset it.  A clone replays its source's trace under the parameters
    its source saw, so it is a copy of its source."""

    __slots__ = ("trace", "statements", "value", "_gen")

    def __init__(
        self,
        particle: Callable[..., Iterator[float]],
        rng: random.Random,
        base_trace: Optional[Trace],
        max_loop_iterations: int,
    ) -> None:
        self.trace: Trace = {}
        self.statements = 0
        self.value: Optional[Value] = None
        self._gen = particle(
            self, rng, base_trace or {}, self.trace, max_loop_iterations
        )

    def advance(self) -> Optional[float]:
        try:
            return next(self._gen)
        except StopIteration:
            return None
