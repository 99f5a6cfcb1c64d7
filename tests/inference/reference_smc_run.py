"""Reference SMC particle: the interpreter's second copy, kept verbatim.

This is ``_Run`` (with ``_NonTerminating``) as it stood in
``repro.inference.smc`` before SMC's interpreter particles moved onto
the one interpreter, :mod:`repro.semantics.executor`.
``tests/inference/test_reference_smc.py`` holds interpreter SMC to it.
Only the imports differ from the original.

One behaviour is known to differ: on replay, ``_Run`` draws afresh a
recorded value whose re-score is ``-inf``, while the interpreter
replays it as recorded (it never had mass), so a clone copies its
source.  A program whose prior draws underflow to a point without
density (``Gamma(0.001, 1.0)`` returning 0.0) shows the difference.
"""

from __future__ import annotations

import random
from typing import Iterator, Optional

from repro.core.ast import (
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
from repro.dists import make_distribution
from repro.semantics.trace import Address, Trace, TraceEntry
from repro.semantics.values import State, Value, default_value, eval_dist_args, eval_expr

__all__ = ["_Run", "_NonTerminating"]

NEG_INF = float("-inf")


class _NonTerminating(Exception):
    pass


class _Run:
    """One particle's execution context."""

    def __init__(
        self,
        program: Program,
        rng: random.Random,
        base_trace: Optional[Trace],
        max_loop_iterations: int,
    ) -> None:
        self.state: State = {}
        self.trace: Trace = {}
        self.statements = 0
        self.value: Optional[Value] = None
        self._program = program
        self._rng = rng
        self._base = base_trace or {}
        self._max_loop = max_loop_iterations
        self._gen = self._run()

    def advance(self) -> Optional[float]:
        """Run to the next conditioning point; returns its log-weight
        increment, or None when the program finished."""
        try:
            return next(self._gen)
        except StopIteration:
            return None

    # -- interpreter -----------------------------------------------------------

    def _run(self) -> Iterator[float]:
        yield from self._exec(self._program.body, ())
        self.value = eval_expr(self._program.ret, self.state)

    def _exec(self, stmt: Stmt, address: Address) -> Iterator[float]:
        if isinstance(stmt, Skip):
            return
        if isinstance(stmt, Block):
            for i, s in enumerate(stmt.stmts):
                yield from self._exec(s, address + (i,))
            return
        self.statements += 1
        if isinstance(stmt, Decl):
            self.state[stmt.name] = default_value(stmt.type)
            return
        if isinstance(stmt, Assign):
            self.state[stmt.name] = eval_expr(stmt.expr, self.state)
            return
        if isinstance(stmt, Sample):
            dist = make_distribution(
                stmt.dist.name, eval_dist_args(stmt.dist, self.state)
            )
            entry = self._base.get(address)
            if entry is not None and entry.dist_name == stmt.dist.name:
                lp = dist.log_prob(entry.value)
                if lp != NEG_INF:
                    self.trace[address] = TraceEntry(
                        entry.value, lp, stmt.dist.name
                    )
                    self.state[stmt.name] = entry.value
                    return
            value = dist.sample(self._rng)
            self.trace[address] = TraceEntry(
                value, dist.log_prob(value), stmt.dist.name
            )
            self.state[stmt.name] = value
            return
        if isinstance(stmt, Observe):
            ok = eval_expr(stmt.cond, self.state) is True
            yield 0.0 if ok else NEG_INF
            return
        if isinstance(stmt, ObserveSample):
            dist = make_distribution(
                stmt.dist.name, eval_dist_args(stmt.dist, self.state)
            )
            yield dist.log_prob(eval_expr(stmt.value, self.state))
            return
        if isinstance(stmt, Factor):
            yield float(eval_expr(stmt.log_weight, self.state))
            return
        if isinstance(stmt, If):
            if eval_expr(stmt.cond, self.state) is True:
                yield from self._exec(stmt.then_branch, address + ("T",))
            else:
                yield from self._exec(stmt.else_branch, address + ("E",))
            return
        if isinstance(stmt, While):
            iteration = 0
            while eval_expr(stmt.cond, self.state) is True:
                if iteration >= self._max_loop:
                    raise _NonTerminating()
                yield from self._exec(stmt.body, address + ("W", iteration))
                iteration += 1
                self.statements += 1
            return
        raise TypeError(f"not a statement: {stmt!r}")
