"""Forward execution of PROB programs with trace recording and replay.

:func:`run_program` executes a program once:

* sampling fresh values from each ``x ~ Dist(...)`` site, or reusing
  the value recorded in a *base trace* at the same address (the replay
  mechanism MH proposals use);
* accumulating the run's **log likelihood** from ``observe`` (0 or
  ``-inf``), ``observe(Dist, v)`` (log density), and ``factor``;
* counting executed primitive statements, the deterministic work
  measure the benchmark harness reports alongside wall time.

A run whose hard ``observe`` fails, or whose replayed value has no mass
under its site's current parameters, is *blocked*: execution stops
early and the result carries ``log_likelihood == -inf``.  A ``while`` loop
exceeding the iteration cap raises :class:`NonTerminatingRun`; callers
treat such runs as contributing zero mass, which matches the paper's
normalized-over-terminating-runs semantics.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Tuple

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

__all__ = ["RunResult", "NonTerminatingRun", "run_program", "ExecutorOptions"]

NEG_INF = float("-inf")


class NonTerminatingRun(RuntimeError):
    """A while loop exceeded the iteration cap."""


class _BlockedRun(Exception):
    """Internal: a hard observe failed; unwind the run."""


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
    def __init__(
        self,
        rng: random.Random,
        base_trace: Optional[Trace],
        options: ExecutorOptions,
    ) -> None:
        self._rng = rng
        self._base = base_trace or {}
        self._opts = options
        self.state: State = {}
        self.trace: Trace = {}
        self.log_likelihood = 0.0
        self.statements = 0
        self.violations = 0

    def exec_stmt(self, stmt: Stmt, address: Address) -> None:
        if isinstance(stmt, Skip):
            return
        if isinstance(stmt, Block):
            for i, s in enumerate(stmt.stmts):
                self.exec_stmt(s, address + (i,))
            return
        self.statements += 1
        if isinstance(stmt, Decl):
            self.state[stmt.name] = default_value(stmt.type)
            return
        if isinstance(stmt, Assign):
            self.state[stmt.name] = eval_expr(stmt.expr, self.state)
            return
        if isinstance(stmt, Sample):
            self._exec_sample(stmt, address)
            return
        if isinstance(stmt, Observe):
            if eval_expr(stmt.cond, self.state) is not True:
                if self._opts.observe_penalty is not None:
                    self.log_likelihood -= self._opts.observe_penalty
                    self.violations += 1
                    return
                self.log_likelihood = NEG_INF
                raise _BlockedRun()
            return
        if isinstance(stmt, ObserveSample):
            dist = make_distribution(
                stmt.dist.name, eval_dist_args(stmt.dist, self.state)
            )
            lp = dist.log_prob(eval_expr(stmt.value, self.state))
            if lp == NEG_INF:
                self.log_likelihood = NEG_INF
                raise _BlockedRun()
            self.log_likelihood += lp
            return
        if isinstance(stmt, Factor):
            self.log_likelihood += float(eval_expr(stmt.log_weight, self.state))
            if self.log_likelihood == NEG_INF:
                raise _BlockedRun()
            return
        if isinstance(stmt, If):
            if eval_expr(stmt.cond, self.state) is True:
                self.exec_stmt(stmt.then_branch, address + ("T",))
            else:
                self.exec_stmt(stmt.else_branch, address + ("E",))
            return
        if isinstance(stmt, While):
            iteration = 0
            while eval_expr(stmt.cond, self.state) is True:
                if iteration >= self._opts.max_loop_iterations:
                    raise NonTerminatingRun(
                        f"while loop exceeded {self._opts.max_loop_iterations} iterations"
                    )
                self.exec_stmt(stmt.body, address + ("W", iteration))
                iteration += 1
                self.statements += 1
            return
        raise TypeError(f"not a statement: {stmt!r}")

    def _exec_sample(self, stmt: Sample, address: Address) -> None:
        dist = make_distribution(stmt.dist.name, eval_dist_args(stmt.dist, self.state))
        entry = self._base.get(address)
        if entry is not None and entry.dist_name == stmt.dist.name:
            # Reuse the recorded value, re-scored under the current
            # parameters (which may have changed upstream).
            lp = dist.log_prob(entry.value)
            if lp == NEG_INF:
                # The value lost its support: the state has zero
                # density.  Drawing afresh instead would leave the draw
                # out of MH's Hastings ratio.
                self.log_likelihood = NEG_INF
                raise _BlockedRun()
            self.trace[address] = TraceEntry(entry.value, lp, stmt.dist.name)
            self.state[stmt.name] = entry.value
            return
        value = dist.sample(self._rng)
        self.trace[address] = TraceEntry(
            value, dist.log_prob(value), stmt.dist.name
        )
        self.state[stmt.name] = value


def run_program(
    program: Program,
    rng: random.Random,
    base_trace: Optional[Trace] = None,
    options: ExecutorOptions = ExecutorOptions(),
) -> RunResult:
    """Execute ``program`` once.

    When ``base_trace`` is given, sample sites whose address appears in
    it (with a compatible distribution) reuse the recorded value, and
    the run is blocked when that value has no mass there; all other
    sites sample fresh from the prior.

    Raises :class:`NonTerminatingRun` when a loop exceeds the cap.
    """
    ex = _Executor(rng, base_trace, options)
    try:
        ex.exec_stmt(program.body, ())
        value: Optional[Value] = eval_expr(program.ret, ex.state)
    except _BlockedRun:
        value = None
    return RunResult(
        value, ex.log_likelihood, ex.trace, ex.statements, ex.violations
    )
