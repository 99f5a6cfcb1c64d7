"""Incremental single-site MH on the closure backend: a proposal
re-runs only the moved site's dependence cone.

A single-site MH proposal changes one sample site.  The full re-run
(:meth:`CompiledProgram.run` over the rest of the trace) re-executes
every statement and re-scores every site.  A :class:`ConePlan` holds,
per sample site, one generated function that runs only the statements
the site reaches through data dependences and takes everything else
from the current state, plus the functions that re-fold the
log-likelihood.

**Fragment.** Programs whose lowered region tree is straight-line
(``Seq`` and ``Leaf`` only).  Every run of such a program visits every
sample statement once, in program order, so its site set is static
and a trace's key order is the program's.  Other programs raise
:class:`NotIncremental` with the reason ``control-flow``.  The engine
then re-runs the whole program, as it does on the interpreter
(``interpreter``: the paper's R2 cost model) and under church-mh
(``overhead``: its overhead factor models re-execution).

**State.** A recorded full run (:class:`~repro.semantics.compiled
.RecordedRun`) carries the end state, one slot per variable, and the
term of every conditioning statement.  Each cone step returns a new
one; the lists are copied only where the cone writes them.

**Cone.** The moved site's forward data dependences through
assignments and conditioning statements.  A sample statement inside
the cone is replayed: it keeps its value and is only re-scored, so the
dependence stops there.  Values the cone reads but does not define
come from the end state, or from the trace for a sample whose variable
is assigned again later; an assignment overwritten later in the
program is re-run (its *support*) when the cone needs its value.

**Bit-identical chains.** A step consumes the random stream as the
full re-run does (one draw at the moved site; none for a walked
value), re-folds the log-likelihood left to right with the same ``+=``
and ``-= pen`` the run function uses, and copies the current trace
with the cone's entries replaced in place, so the key order and the
:func:`~repro.semantics.trace.total_log_prior` sum are the full run's.
It blocks where the full run blocks: on a failed hard observe (strict
mode), a ``-inf`` observe score, a replayed value that lost its
support, or a ``factor`` that takes the running sum to ``-inf``.  The
fold finds that last case only after the cone's last statement, so
when a cone statement raises, the step hands the moved trace to the
full run, which either blocks first or raises alike.

**Lifetime.** :meth:`CompiledProgram.cone_plan` builds the plan on
first use and keeps it on the compilation, never in its pickle, so
:func:`~repro.semantics.compiled.clear_compile_cache` drops it.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Set, Tuple

from ..core.ast import Assign, Decl, Factor, Observe, ObserveSample, Program, Sample
from ..core.freevars import free_vars, read_vars
from ..ir.lower import lower
from .compiled import (
    _BLOCKED,
    RecordedRun,
    _Codegen,
    _const_src,
    _namespace,
    call_run,
    env_names,
    straight_line,
)
from .executor import ExecutorOptions, RunResult
from .trace import Trace
from .values import default_value

__all__ = [
    "ConePlan",
    "NotIncremental",
    "CONTROL_FLOW",
    "INTERPRETER",
    "OVERHEAD",
]

NEG_INF = float("-inf")

#: Typed reasons a single-site move re-runs the whole program; each is
#: the suffix of an ``mh.incremental.fallback.<reason>`` counter.
#: The program's region tree holds an ``if`` or a ``while``.
CONTROL_FLOW = "control-flow"
#: The engine interprets the AST: the paper's full re-execution.
INTERPRETER = "interpreter"
#: church-mh, whose overhead factor models re-execution.
OVERHEAD = "overhead"


class NotIncremental(Exception):
    """The program lies outside the incremental plan's fragment;
    ``reason`` is one of the tokens above."""

    def __init__(self, reason: str) -> None:
        self.reason = reason
        super().__init__(reason)


class ConePlan:
    """Per-site cone functions and likelihood folds for one
    straight-line program.

    ``addrs`` lists the sample sites in program order, which is every
    trace's key order; ``index`` maps an address back to its position.
    ``run`` is the program's generated run function, behind
    :meth:`run`.
    """

    def __init__(self, program: Program, run) -> None:
        lowered = lower(program)
        leaves = straight_line(lowered)
        if leaves is None:
            raise NotIncremental(CONTROL_FLOW)
        gen = _ConeCodegen(lowered, leaves)
        namespace = _namespace(gen.hoisted)
        exec(compile("\n".join(gen.lines), "<repro.cone>", "exec"), namespace)
        self.addrs: Tuple[tuple, ...] = tuple(gen.addrs)
        self.index: Dict[tuple, int] = {a: i for i, a in enumerate(self.addrs)}
        self._cones = [namespace[f"_cone{i}"] for i in range(len(self.addrs))]
        self._fold = namespace["_fold"]
        self._fold_pen = namespace["_fold_pen"]
        self._run = run

    def run(
        self,
        rng: random.Random,
        base_trace: Optional[Trace],
        options: ExecutorOptions,
    ) -> RunResult:
        """A full run of the program, recorded: the state that steps
        start from (when not blocked)."""
        return call_run(self._run, rng, base_trace, options, record=True)

    def step(
        self,
        site: int,
        rng: random.Random,
        current: RecordedRun,
        value: object,
        options: ExecutorOptions,
    ) -> RunResult:
        """Move site ``site`` of ``current``: draw it afresh when
        ``value`` is None, else replay ``value``.  Returns the new
        state or a blocked run; ``statements_executed`` counts the
        statements the step ran."""
        addr = self.addrs[site]
        trace = current.trace.copy()
        penalty = options.observe_penalty
        try:
            value, env, terms, n = self._cones[site](
                rng, value, current.env, current.terms, trace, penalty,
                current.value,
            )
        except Exception:
            if trace[addr] is current.trace[addr]:
                raise  # before the draw: the full run raises alike
            # The cone checks a factor's running sum only in the fold,
            # after its last statement, but the full run stops at a
            # factor that takes the sum to -inf, before any later
            # statement can raise.  Let the full run decide: it replays
            # every site from ``trace``, so it draws nothing.
            return self.run(rng, trace, options)
        if value is _BLOCKED:
            return RunResult(None, NEG_INF, {}, n)
        if penalty is None:
            ll, violations = self._fold(terms), 0
        else:
            ll, violations = self._fold_pen(terms, penalty)
        if ll == NEG_INF:
            return RunResult(None, NEG_INF, {}, n, violations)
        return RecordedRun(value, ll, trace, n, violations, env, terms)


class _ConeCodegen(_Codegen):
    """Emits ``_cone<i>`` per sample site and the two folds.

    Inside a cone function each definition at statement ``j`` is the
    local ``_s<j>``, so a read always names its reaching definition;
    a read with none stays ``_v_<name>``, unbound, as in the run
    function, which then fails on every run, the first one included.
    """

    def __init__(self, lowered, leaves) -> None:
        super().__init__(lowered)
        self.leaves = leaves
        self.slot = {name: i for i, name in enumerate(env_names(leaves))}
        #: Per statement: its reads' reaching definitions, and its term
        #: index if it conditions.
        self.reach: List[Dict[str, int]] = []
        self.term_of: Dict[int, int] = {}
        #: Definition -> the statements that read it.
        self.users: Dict[int, List[int]] = {}
        last: Dict[str, int] = {}
        for j, (stmt, _) in enumerate(leaves):
            reach = {v: last[v] for v in read_vars(stmt) if v in last}
            self.reach.append(reach)
            for d in set(reach.values()):
                self.users.setdefault(d, []).append(j)
            if isinstance(stmt, (Observe, ObserveSample, Factor)):
                self.term_of[j] = len(self.term_of)
            elif isinstance(stmt, (Decl, Assign, Sample)):
                last[stmt.name] = j
        self.last = last
        ret = lowered.ret
        self.ret_reach = {v: last[v] for v in free_vars(ret) if v in last}
        self.addrs: List[tuple] = []
        for j, (stmt, addr) in enumerate(leaves):
            if isinstance(stmt, Sample):
                self.cone(len(self.addrs), j)
                self.addrs.append(addr)
        self.folds()

    # -- one site's cone ------------------------------------------------------

    def cone(self, i: int, moved: int) -> None:
        changed = {moved}
        members = {moved}
        stack = [moved]
        while stack:
            for j in self.users.get(stack.pop(), ()):
                if j not in members:
                    members.add(j)
                    if isinstance(self.leaves[j][0], Assign):
                        changed.add(j)
                        stack.append(j)
        loads: Dict[int, str] = {}
        support: Set[int] = set()
        body: List[int] = sorted(members)
        for j in body:
            self.resolve(j, changed, loads, support)
        ret_changed = any(d in changed for d in self.ret_reach.values())
        if ret_changed:
            for v, d in self.ret_reach.items():
                if d not in changed:
                    loads[d] = f"_E[{self.slot[v]}]"
        self.emit(f"def _cone{i}(_rng, _x, _E, _T, _tr, _pen, _val):", 0)
        for d in sorted(loads):
            self.emit(f"_s{d} = {loads[d]}", 1)
        count = 0
        for j in sorted(members | support):
            count += 1
            self.names = {v: f"_s{d}" for v, d in self.reach[j].items()}
            self.statement(j, moved, count)
        terms = [j for j in body if j in self.term_of]
        if terms:
            self.emit("_T = _T.copy()", 1)
            for j in terms:
                self.emit(f"_T[{self.term_of[j]}] = _c{self.term_of[j]}", 1)
        env = [(v, d) for v, d in self.last.items() if d in changed]
        if env:
            self.emit("_E = _E.copy()", 1)
            for v, d in env:
                self.emit(f"_E[{self.slot[v]}] = _s{d}", 1)
        if ret_changed:
            self.names = {v: f"_s{d}" for v, d in self.ret_reach.items()}
            value = self.expr(self.lowered.ret)
        else:
            value = "_val"
        self.names = {}
        self.emit(f"return {value}, _E, _T, {count}", 1)
        self.emit("", 0)

    def resolve(
        self, j: int, changed: Set[int], loads: Dict[int, str], support: Set[int]
    ) -> None:
        """Make every value statement ``j`` reads available: computed in
        the cone, loaded from the current state, or re-run as support."""
        for v, d in self.reach[j].items():
            if d in changed or d in loads or d in support:
                continue
            stmt, addr = self.leaves[d]
            if self.last[v] == d:
                loads[d] = f"_E[{self.slot[v]}]"
            elif isinstance(stmt, Sample):
                loads[d] = f"_tr[{addr!r}].value"
            elif isinstance(stmt, Decl):
                loads[d] = _const_src(default_value(stmt.type))
            else:
                support.add(d)
                self.resolve(d, changed, loads, support)

    def statement(self, j: int, moved: int, count: int) -> None:
        stmt, addr = self.leaves[j]
        blocked = f"return _BLOCKED, None, None, {count}"
        if j == moved:
            self.emit(f"_d = {self.dist(stmt.dist)}", 1)
            self.emit("if _x is None:", 1)
            self.emit("_x = _d.sample(_rng)", 2)
            self.emit("_lp = _d.log_prob(_x)", 2)
            self.emit("else:", 1)
            self.emit("_lp = _d.log_prob(_x)", 2)
            self.emit("if _lp == NEG_INF:", 2)
            self.emit(blocked, 3)
            self.emit(f"_s{j} = _x", 1)
            self.emit(f"_tr[{addr!r}] = TraceEntry(_x, _lp, {stmt.dist.name!r})", 1)
        elif isinstance(stmt, Assign):
            self.emit(f"_s{j} = {self.expr(stmt.expr)}", 1)
        elif isinstance(stmt, Sample):
            # Replayed: same value, re-scored under the new parameters;
            # blocked only when the value lost its support.
            self.emit(f"_d = {self.dist(stmt.dist)}", 1)
            self.emit(f"_e = _tr[{addr!r}]", 1)
            self.emit("_lp = _d.log_prob(_e.value)", 1)
            self.emit("if _lp == NEG_INF and _e.log_prior != NEG_INF:", 1)
            self.emit(blocked, 2)
            self.emit(f"_tr[{addr!r}] = TraceEntry(_e.value, _lp, {stmt.dist.name!r})", 1)
        elif isinstance(stmt, Observe):
            term = f"_c{self.term_of[j]}"
            self.emit(f"{term} = {self.expr(stmt.cond)} is True", 1)
            self.emit(f"if not {term} and _pen is None:", 1)
            self.emit(blocked, 2)
        elif isinstance(stmt, ObserveSample):
            term = f"_c{self.term_of[j]}"
            score = f"{self.dist(stmt.dist)}.log_prob({self.expr(stmt.value)})"
            self.emit(f"{term} = {score}", 1)
            self.emit(f"if {term} == NEG_INF:", 1)
            self.emit(blocked, 2)
        else:  # Factor
            term = f"_c{self.term_of[j]}"
            self.emit(f"{term} = float({self.expr(stmt.log_weight)})", 1)

    # -- the log-likelihood folds ---------------------------------------------

    def folds(self) -> None:
        """``_fold(_T)`` (strict mode: every recorded observe held) and
        ``_fold_pen(_T, _pen)``, both straight-line in program order,
        with the run function's operations."""
        kinds = [
            (type(self.leaves[j][0]), k) for j, k in sorted(self.term_of.items())
        ]
        soft = any(kind is not Observe for kind, _ in kinds)
        hard = any(kind is Observe for kind, _ in kinds)
        for penalized in (False, True):
            if penalized:
                self.emit("def _fold_pen(_T, _pen):", 0)
                if not soft:
                    # Every term is the same ``-= _pen``: their order
                    # cannot matter, only their number.
                    self.emit("_viol = _T.count(False)", 1)
                    self.emit("_ll = 0.0", 1)
                    self.emit("for _ in range(_viol):", 1)
                    self.emit("_ll -= _pen", 2)
                    self.emit("return _ll, _viol", 1)
                    self.emit("", 0)
                    continue
                if not hard:
                    self.emit("return _fold(_T), 0", 1)
                    self.emit("", 0)
                    continue
                self.emit("_viol = 0", 1)
            else:
                self.emit("def _fold(_T):", 0)
            self.emit("_ll = 0.0", 1)
            for kind, k in kinds:
                if kind is Observe:
                    if penalized:
                        self.emit(f"if not _T[{k}]:", 1)
                        self.emit("_ll -= _pen", 2)
                        self.emit("_viol += 1", 2)
                    continue
                self.emit(f"_ll += _T[{k}]", 1)
                if kind is Factor:
                    self.emit("if _ll == NEG_INF:", 1)
                    self.emit("return (NEG_INF, _viol)" if penalized else "return NEG_INF", 2)
            self.emit("return (_ll, _viol)" if penalized else "return _ll", 1)
            self.emit("", 0)
