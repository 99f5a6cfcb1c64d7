"""Compiled execution of PROB programs: the shared IR's basic blocks
are translated to Python source once per program, and subsequent runs
call the generated function instead of walking the AST.

:func:`compile_program` lowers the program (the same identity-memoized
:func:`repro.ir.lower.lower` the analyses use), walks the region tree
emitting one straight-line run of Python statements per basic block
(the structured skeleton — ``if`` / ``while`` — comes from the region
tree, so every CFG node is compiled exactly once), and ``exec``'s the
result.  The generated code replicates :func:`repro.semantics.executor
.run_program` observable-for-observable:

* sample **addresses** are the same tuples, so traces replay across
  interpreted and compiled runs interchangeably;
* the RNG is consumed in the same order, so a fixed seed yields the
  same :class:`RunResult` stream;
* statement counting, hard-``observe`` blocking (and the
  ``observe_penalty`` relaxation), the loop-iteration cap, and
  division/modulo-by-zero :class:`EvalError`\\ s all match.

What the compilation buys: per-node interpretive dispatch (isinstance
chains, state-dict reads and writes, recursive calls) becomes native
Python locals and jumps, and distribution objects with constant
parameters are constructed once at compile time instead of once per
visit.  The benchmark's ``warm-sample`` workload (``perfbench/``)
measures the closure backend under MH and SMC on the Table 1 models.

A generator variant (``CompiledProgram.particle``) yields at
conditioning barriers, as the interpreter's
:func:`~repro.semantics.executor.interpreted_particle` does, so SMC
particles run compiled too: one
:class:`~repro.semantics.executor.ParticleRun` drives either.

For a straight-line program, the run function can also return the
end state and every likelihood term (:class:`RecordedRun`): the state
the incremental MH plan (:mod:`repro.semantics.incremental`, built
lazily by :meth:`CompiledProgram.cone_plan`) steps from.

The only deliberate divergence: reads of never-assigned variables and
``Decl`` with an unknown type raise :class:`EvalError` at compile time
or with a synthesized message, rather than mid-run — the validator
rejects such programs up front, so engines never see the difference.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple, Union

from ..core.ast import (
    Assign,
    Binary,
    Const,
    Decl,
    DistCall,
    Expr,
    Factor,
    Observe,
    ObserveSample,
    Program,
    Sample,
    TupleExpr,
    Unary,
    Var,
)
from ..core.freevars import free_vars
from ..dists import DistributionError, make_distribution
from ..ir.lower import IfRegion, Leaf, Lowered, Region, Seq, WhileRegion, lower
from .executor import ExecutorOptions, NonTerminatingRun, RunResult
from .trace import Address, Trace, TraceEntry
from .values import EvalError, _as_bool, default_value

__all__ = [
    "CompilationError",
    "CompiledProgram",
    "RecordedRun",
    "compile_program",
    "clear_compile_cache",
]

NEG_INF = float("-inf")

#: Sentinel return distinguishing a blocked run from any PROB value.
_BLOCKED = object()

#: The generated functions' contract, kept in every pickle.  Version 2:
#: the run function takes ``_rec`` and records straight-line programs'
#: end state.
CODEGEN_VERSION = 2


class CompilationError(ValueError):
    """The program cannot be compiled (e.g. a variable name that is not
    a valid Python identifier)."""


class _Blocked(Exception):
    """Internal: a hard observe failed in a compiled run."""


def _smp(dist, name, addr, base, trace, rng):
    """Sample-site runtime helper: replay from ``base`` when the address
    holds a compatible entry, else draw fresh.  Mirrors
    ``_Executor._sample`` exactly (including re-scoring replayed
    values under the current parameters, and blocking the run when a
    replayed value lost its support; a value that never had mass
    replays as recorded)."""
    entry = base.get(addr)
    if entry is not None and entry.dist_name == name:
        lp = dist.log_prob(entry.value)
        if lp == NEG_INF and entry.log_prior != NEG_INF:
            raise _Blocked
        trace[addr] = TraceEntry(entry.value, lp, name)
        return entry.value
    value = dist.sample(rng)
    trace[addr] = TraceEntry(value, dist.log_prob(value), name)
    return value


def _div(left, right, msg):
    if right == 0:
        raise EvalError(msg)
    return left / right


def _mod(left, right, msg):
    if right == 0:
        raise EvalError(msg)
    return left % right


def _const_src(value) -> str:
    if isinstance(value, bool):
        return "True" if value else "False"
    if isinstance(value, int):
        return repr(value)
    if isinstance(value, float):
        if value != value:
            return "float('nan')"
        if value == float("inf"):
            return "float('inf')"
        if value == float("-inf"):
            return "float('-inf')"
        return repr(value)
    raise CompilationError(f"unsupported constant {value!r}")


def _tuple_src(parts: List[str]) -> str:
    if len(parts) == 1:
        return f"({parts[0]},)"
    return "(" + ", ".join(parts) + ")"


def straight_line(lowered: Lowered) -> Optional[List[Tuple[object, Address]]]:
    """The primitive statements of a region tree made of ``Seq`` and
    ``Leaf`` only, each with its sample address, in program order; None
    when the tree holds an ``if`` or a ``while``."""
    out: List[Tuple[object, Address]] = []

    def walk(region: Region, parts: Tuple[int, ...]) -> bool:
        if isinstance(region, Leaf):
            if region.node is not None:
                out.append((region.stmt, parts))
            return True
        if isinstance(region, Seq):
            return all(
                walk(child, parts + (i,)) for i, child in enumerate(region.children)
            )
        return False

    return out if walk(lowered.root, ()) else None


def env_names(leaves: List[Tuple[object, Address]]) -> List[str]:
    """The variables a straight-line program defines, in order of first
    definition: the slots of a recorded end state."""
    names: Dict[str, None] = {}
    for stmt, _ in leaves:
        if isinstance(stmt, (Decl, Assign, Sample)):
            names.setdefault(stmt.name)
    return list(names)


class RecordedRun(RunResult):
    """A run that also carries what the incremental MH plan
    (:mod:`repro.semantics.incremental`) starts from: ``env``, the end
    state as one slot per variable (:func:`env_names`), and ``terms``,
    one entry per conditioning statement in program order (its
    log-likelihood term, or whether a hard observe held).  Its
    ``log_joint`` is summed once."""

    def __init__(self, value, log_likelihood, trace, statements_executed,
                 violations, env: list, terms: list) -> None:
        super().__init__(value, log_likelihood, trace, statements_executed, violations)
        self.env = env
        self.terms = terms
        self._log_joint = super().log_joint

    @property
    def log_joint(self) -> float:
        return self._log_joint


class _Codegen:
    """Emits the two entry points (``_compiled_run`` and the barrier
    generator ``_compiled_particle``) for one lowered program.  The run
    function keeps each conditioning statement's term in its own local
    and, for a straight-line program, hands the end state and the terms
    to a ``_rec`` list when given one."""

    def __init__(self, lowered: Lowered) -> None:
        self.lowered = lowered
        self.lines: List[str] = []
        #: Hoisted constant-parameter distributions, injected into the
        #: generated module's namespace as ``_d0, _d1, ...``.
        self.hoisted: Dict[str, object] = {}
        self._hoist_memo: Dict[Tuple[str, Tuple[object, ...]], str] = {}
        #: Python name per PROB variable read, where it is not
        #: ``_v_<name>`` (the incremental plan's cone functions give
        #: each definition its own local).
        self.names: Dict[str, str] = {}
        #: Index of the next conditioning statement (``_c<k>`` locals).
        self.conds = 0

    # -- expressions --------------------------------------------------------

    def expr(self, e: Expr) -> str:
        if isinstance(e, Var):
            return self.names.get(e.name) or "_v_" + e.name
        if isinstance(e, Const):
            return _const_src(e.value)
        if isinstance(e, Unary):
            operand = self.expr(e.operand)
            if e.op == "!":
                return f"(not _b({operand}))"
            return f"(-{operand})"
        if isinstance(e, Binary):
            left, right = self.expr(e.left), self.expr(e.right)
            op = e.op
            if op == "&&":
                return f"(_b({left}) and _b({right}))"
            if op == "||":
                return f"(_b({left}) or _b({right}))"
            if op in ("==", "!=", "<", "<=", ">", ">=", "+", "-", "*"):
                return f"({left} {op} {right})"
            if op == "/":
                return f"_div({left}, {right}, {f'division by zero in {e}'!r})"
            if op == "%":
                return f"_mod({left}, {right}, {f'modulo by zero in {e}'!r})"
            raise CompilationError(f"unknown operator {op!r}")
        if isinstance(e, TupleExpr):
            inner = ", ".join(self.expr(el) for el in e.elements)
            if len(e.elements) == 1:
                inner += ","
            return f"({inner})"
        raise CompilationError(f"not an expression: {e!r}")

    def dist(self, d: DistCall) -> str:
        """Source evaluating ``d`` to a Distribution instance.  When all
        parameters are constants the instance is built once here and
        referenced by name; otherwise ``make_distribution`` runs per
        visit, exactly like the interpreter."""
        if all(isinstance(arg, Const) for arg in d.args):
            args = tuple(arg.value for arg in d.args)  # type: ignore[union-attr]
            key = (d.name, args)
            hit = self._hoist_memo.get(key)
            if hit is not None:
                return hit
            try:
                instance = make_distribution(d.name, args)
            except DistributionError:
                pass  # fall through: let the error surface at run time
            else:
                name = f"_d{len(self.hoisted)}"
                self.hoisted[name] = instance
                self._hoist_memo[key] = name
                return name
        args_src = _tuple_src([self.expr(arg) for arg in d.args]) if d.args else "()"
        return f"_mkd({d.name!r}, {args_src})"

    # -- statements ---------------------------------------------------------

    def emit(self, line: str, depth: int) -> None:
        self.lines.append("    " * depth + line)

    def region(
        self, region: Region, parts: List[str], depth: int, particle: bool
    ) -> None:
        before = len(self.lines)
        self._region(region, parts, depth, particle)
        if len(self.lines) == before:
            self.emit("pass", depth)

    def _region(
        self, region: Region, parts: List[str], depth: int, particle: bool
    ) -> None:
        if isinstance(region, Leaf):
            if region.node is not None:  # source `skip` emits nothing
                self.stmt(region.stmt, parts, depth, particle)
            return
        if isinstance(region, Seq):
            for i, child in enumerate(region.children):
                self._region(child, parts + [str(i)], depth, particle)
            return
        if isinstance(region, IfRegion):
            self.emit("_n += 1", depth)
            self.emit(f"if {self.expr(region.cond)} is True:", depth)
            self.region(region.then_region, parts + ["'T'"], depth + 1, particle)
            self.emit("else:", depth)
            self.region(region.else_region, parts + ["'E'"], depth + 1, particle)
            return
        if isinstance(region, WhileRegion):
            counter = f"_i{depth}"
            self.emit("_n += 1", depth)
            self.emit(f"{counter} = 0", depth)
            self.emit(f"while {self.expr(region.cond)} is True:", depth)
            self.emit(f"if {counter} >= _maxit:", depth + 1)
            self.emit(
                "raise NonTerminatingRun("
                'f"while loop exceeded {_maxit} iterations")',
                depth + 2,
            )
            self.region(region.body, parts + ["'W'", counter], depth + 1, particle)
            self.emit(f"{counter} += 1", depth + 1)
            self.emit("_n += 1", depth + 1)
            return
        raise CompilationError(f"not a region: {region!r}")

    def stmt(self, stmt, parts: List[str], depth: int, particle: bool) -> None:
        self.emit("_n += 1", depth)
        if isinstance(stmt, Decl):
            self.emit(f"_v_{stmt.name} = {_const_src(default_value(stmt.type))}", depth)
        elif isinstance(stmt, Assign):
            self.emit(f"_v_{stmt.name} = {self.expr(stmt.expr)}", depth)
        elif isinstance(stmt, Sample):
            addr = _tuple_src(parts) if parts else "()"
            self.emit(
                f"_v_{stmt.name} = _smp({self.dist(stmt.dist)}, "
                f"{stmt.dist.name!r}, {addr}, _base, _trace, _rng)",
                depth,
            )
        elif isinstance(stmt, Observe):
            cond = self.expr(stmt.cond)
            if particle:
                self.emit("_ctx.statements += _n; _n = 0", depth)
                self.emit(f"yield (0.0 if {cond} is True else NEG_INF)", depth)
            else:
                term = self.term()
                self.emit(f"{term} = {cond} is True", depth)
                self.emit(f"if not {term}:", depth)
                self.emit("if _pen is None:", depth + 1)
                self.emit("raise _Blocked", depth + 2)
                self.emit("_ll -= _pen", depth + 1)
                self.emit("_viol += 1", depth + 1)
        elif isinstance(stmt, ObserveSample):
            score = f"{self.dist(stmt.dist)}.log_prob({self.expr(stmt.value)})"
            if particle:
                self.emit("_ctx.statements += _n; _n = 0", depth)
                self.emit(f"yield {score}", depth)
            else:
                term = self.term()
                self.emit(f"{term} = {score}", depth)
                self.emit(f"if {term} == NEG_INF:", depth)
                self.emit("raise _Blocked", depth + 1)
                self.emit(f"_ll += {term}", depth)
        elif isinstance(stmt, Factor):
            weight = f"float({self.expr(stmt.log_weight)})"
            if particle:
                self.emit("_ctx.statements += _n; _n = 0", depth)
                self.emit(f"yield {weight}", depth)
            else:
                term = self.term()
                self.emit(f"{term} = {weight}", depth)
                self.emit(f"_ll += {term}", depth)
                self.emit("if _ll == NEG_INF:", depth)
                self.emit("raise _Blocked", depth + 1)
        else:
            raise CompilationError(f"not a primitive statement: {stmt!r}")

    def term(self) -> str:
        """The local holding the next conditioning statement's term:
        its log-likelihood contribution, or whether a hard observe
        held."""
        name = f"_c{self.conds}"
        self.conds += 1
        return name

    # -- entry points -------------------------------------------------------

    def function(self, particle: bool) -> None:
        ret = self.lowered.ret
        assert ret is not None
        if particle:
            self.emit("def _compiled_particle(_ctx, _rng, _base, _trace, _maxit):", 0)
            # A program without conditioning barriers emits no `yield`;
            # this unreachable one keeps the function a generator.
            self.emit("if False:", 1)
            self.emit("yield None", 2)
            self.emit("_n = 0", 1)
            self.emit("try:", 1)
            self.region(self.lowered.root, [], 2, particle=True)
            self.emit("_ctx.statements += _n; _n = 0", 2)
            self.emit(f"_ctx.value = {self.expr(ret)}", 2)
            self.emit("except BaseException:", 1)
            self.emit("_ctx.statements += _n", 2)
            self.emit("raise", 2)
        else:
            self.emit(
                "def _compiled_run(_rng, _base, _trace, _pen, _maxit, _rec):", 0
            )
            self.emit("_n = 0", 1)
            self.emit("_ll = 0.0", 1)
            self.emit("_viol = 0", 1)
            self.emit("try:", 1)
            self.conds = 0
            self.region(self.lowered.root, [], 2, particle=False)
            leaves = straight_line(self.lowered)
            if leaves is not None:
                # The incremental MH plan's starting point: the end
                # state, one slot per variable, and every term.
                self.emit("if _rec is not None:", 2)
                env = ", ".join("_v_" + name for name in env_names(leaves))
                terms = ", ".join(f"_c{k}" for k in range(self.conds))
                self.emit(f"_rec.append([{env}])", 3)
                self.emit(f"_rec.append([{terms}])", 3)
            self.emit(f"return {self.expr(ret)}, _ll, _n, _viol", 2)
            self.emit("except _Blocked:", 1)
            self.emit("return _BLOCKED, NEG_INF, _n, _viol", 2)
        self.emit("", 0)


def _namespace(hoisted: Dict[str, object]) -> Dict[str, object]:
    """The globals generated code runs in: the runtime helpers and the
    hoisted distributions."""
    namespace: Dict[str, object] = {
        "NEG_INF": NEG_INF,
        "NonTerminatingRun": NonTerminatingRun,
        "TraceEntry": TraceEntry,
        "_Blocked": _Blocked,
        "_BLOCKED": _BLOCKED,
        "_smp": _smp,
        "_mkd": make_distribution,
        "_b": _as_bool,
        "_div": _div,
        "_mod": _mod,
    }
    namespace.update(hoisted)
    return namespace


class CompiledProgram:
    """A program translated to two Python functions: a forward runner
    with the :func:`run_program` contract and a barrier generator with
    the SMC particle contract."""

    def __init__(self, program: Program) -> None:
        if not isinstance(program, Program):
            raise CompilationError("compile_program requires a Program")
        for name in free_vars(program):
            if not ("_v_" + name).isidentifier():
                raise CompilationError(
                    f"variable name {name!r} cannot be compiled"
                )
        self.program = program
        lowered = lower(program)
        gen = _Codegen(lowered)
        gen.function(particle=False)
        gen.function(particle=True)
        self.source = "\n".join(gen.lines)
        self._hoisted = dict(gen.hoisted)
        #: The incremental MH plan, or the reason the program has none;
        #: built on first use by :meth:`cone_plan`, never pickled.
        self._plan: object = None
        self._exec()

    def _exec(self) -> None:
        """Bind the entry points by executing the generated source."""
        namespace = _namespace(self._hoisted)
        exec(compile(self.source, "<repro.compiled>", "exec"), namespace)
        self._run = namespace["_compiled_run"]
        #: The SMC particle generator function, for
        #: :class:`~repro.semantics.executor.ParticleRun`.
        self.particle = namespace["_compiled_particle"]

    # ``exec``-produced functions cannot pickle, but the generated
    # source and the hoisted constant-parameter distributions can —
    # that is the whole compilation, so unpickling (the runtime cache's
    # on-disk layer, or shipping to a spawn-started worker) re-binds
    # the entry points without re-running lowering or codegen.

    def __getstate__(self) -> Dict[str, object]:
        return {
            "program": self.program,
            "source": self.source,
            "_hoisted": self._hoisted,
            "codegen": CODEGEN_VERSION,
        }

    def __setstate__(self, state: Dict[str, object]) -> None:
        if state.get("codegen") != CODEGEN_VERSION:
            # Generated under another contract (an older on-disk cache
            # entry): regenerate from the program.
            self.__init__(state["program"])  # type: ignore[misc]
            return
        self.program = state["program"]  # type: ignore[assignment]
        self.source = state["source"]  # type: ignore[assignment]
        self._hoisted = state["_hoisted"]  # type: ignore[assignment]
        self._plan = None
        self._exec()

    def run(
        self,
        rng: random.Random,
        base_trace: Optional[Trace] = None,
        options: ExecutorOptions = ExecutorOptions(),
    ) -> RunResult:
        """Execute once; same contract as :func:`run_program`."""
        return call_run(self._run, rng, base_trace, options, record=False)

    def cone_plan(self):
        """The incremental MH plan
        (:class:`repro.semantics.incremental.ConePlan`), built on first
        use and kept as long as this compilation; raises
        :class:`~repro.semantics.incremental.NotIncremental` for a
        program outside its fragment."""
        from .incremental import ConePlan, NotIncremental

        if self._plan is None:
            try:
                self._plan = ConePlan(self.program, self._run)
            except NotIncremental as exc:
                self._plan = exc.reason
        if isinstance(self._plan, str):
            raise NotIncremental(self._plan)
        return self._plan


def call_run(
    run,
    rng: random.Random,
    base_trace: Optional[Trace],
    options: ExecutorOptions,
    record: bool,
) -> RunResult:
    """Call a generated ``_compiled_run`` and wrap its result; with
    ``record``, a straight-line program's unblocked run comes back as a
    :class:`RecordedRun`."""
    trace: Trace = {}
    rec: Optional[list] = [] if record else None
    try:
        value, ll, statements, violations = run(
            rng,
            base_trace or {},
            trace,
            options.observe_penalty,
            options.max_loop_iterations,
            rec,
        )
    except NameError as exc:  # read of a never-assigned variable
        name = getattr(exc, "name", "") or ""
        raise EvalError(
            f"variable {name.removeprefix('_v_')!r} is not defined"
        ) from None
    if value is _BLOCKED:
        value = None
    if rec:
        return RecordedRun(value, ll, trace, statements, violations, *rec)
    return RunResult(value, ll, trace, statements, violations)


#: ``id(program) -> (program, compiled)``; strong references keep the
#: identity keys from being reused while entries are alive.
_COMPILE_CACHE: Dict[int, Tuple[Program, CompiledProgram]] = {}
#: ``content fingerprint -> compiled``; catches structurally equal
#: programs that are distinct objects (a re-parsed source file, a
#: slice recomputed by a fresh pipeline invocation).
_FINGERPRINT_CACHE: Dict[str, CompiledProgram] = {}
_COMPILE_CACHE_MAX = 512


def clear_compile_cache() -> None:
    """Drop all memoized compilations (mainly for tests)."""
    _COMPILE_CACHE.clear()
    _FINGERPRINT_CACHE.clear()


def compile_program(program: Program) -> CompiledProgram:
    """Compile ``program``, memoized twice over.

    The identity layer (``id``-keyed, the per-proposal fast path: MH
    calls this on every re-execution of the same object) backs onto a
    content-fingerprint layer, so a structurally identical program —
    re-sliced, re-parsed, or arriving in another worker — reuses the
    compilation instead of re-running codegen.
    """
    key = id(program)
    hit = _COMPILE_CACHE.get(key)
    if hit is not None and hit[0] is program:
        return hit[1]
    from ..core.fingerprint import program_fingerprint

    fp = program_fingerprint(program, kind="compiled")
    compiled = _FINGERPRINT_CACHE.get(fp)
    if compiled is None:
        from ..obs.recorder import current_recorder

        with current_recorder().span("semantics.compile") as sp:
            compiled = CompiledProgram(program)
            sp.set(code_chars=len(compiled.source))
        if len(_FINGERPRINT_CACHE) >= _COMPILE_CACHE_MAX:
            _FINGERPRINT_CACHE.clear()
        _FINGERPRINT_CACHE[fp] = compiled
    if len(_COMPILE_CACHE) >= _COMPILE_CACHE_MAX:
        _COMPILE_CACHE.clear()
    _COMPILE_CACHE[key] = (program, compiled)
    return compiled
