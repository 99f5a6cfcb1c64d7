"""Vectorized (numpy) execution of PROB programs: the second codegen
target on the shared IR.

:func:`compile_vectorized` lowers a program with the same
identity-memoized :func:`repro.ir.lower.lower` the closure backend
uses, runs the vectorizability analysis + bounded loop unrolling of
:mod:`repro.ir.vectorize` (programs outside the fragment raise the
typed :exc:`~repro.ir.vectorize.NotVectorizable`), and emits one
straight-line Python function whose every operation is a numpy
primitive over ``(batch,)`` arrays — one array per program variable,
one boolean *mask* per control-dependence region:

* an ``if`` executes **both** arms, each under its own mask
  (``parent & cond`` / ``parent & ~cond``); writes merge back with
  ``np.where(mask, new, old)``, so a lane only observes the arm its
  condition selected;
* a failed hard ``observe`` (or a replayed value that lost its
  support) does not raise: the lane's mask (and the
  global ``_alive`` mask) drops to ``False``, its log-likelihood is
  pinned at ``-inf``, and every later statement, sample and statement
  counter is masked off — exactly the truncation the scalar backends
  get from raising ``_Blocked`` mid-run;
* sample sites keep the scalar **address scheme** (the same tuples the
  interpreter and closure backend produce, with unrolled iterations at
  ``('W', k)``), and record per-site ``(batch,)`` value / log-prior /
  present columns, so a vectorized lane converts to an ordinary
  :class:`~repro.semantics.executor.RunResult` whose trace replays
  bit-for-bit through the scalar backends — that replay is the
  cross-backend equivalence mechanism (fresh draws use a PCG64
  ``numpy.random.Generator`` and can never bit-match the scalar
  Mersenne stream).

A generator variant (:meth:`VectorizedProgram.particles`) yields a
``(batch,)`` log-weight delta at every conditioning barrier with an
SMC-shaped protocol: ``advance(ancestors)`` optionally permutes all
live state by an ancestor-index array first (vectorized systematic
resampling), then runs to the next barrier.

Deliberate divergences from the scalar backends, all documented in
``docs/architecture.md``: the random stream (PCG64 vs Mersenne),
crash granularity (a division by zero on *any* active lane aborts the
whole batch where scalar engines lose one run), and int64 arithmetic
in place of Python's arbitrary precision.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

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
from ..dists.batched import BATCHED, BatchedDist, batched_dist_names
from ..ir.lower import IfRegion, Leaf, Seq, lower
from ..ir.vectorize import (
    DEFAULT_UNROLL_BUDGET,
    NotVectorizable,
    UnrolledLoop,
    unroll_regions,
)
from .compiled import CompilationError, _const_src
from .executor import RunResult
from .trace import Address, Trace, TraceEntry
from .values import EvalError

__all__ = [
    "NotVectorizable",
    "Site",
    "BatchRunResult",
    "VectorizedParticles",
    "VectorizedProgram",
    "compile_vectorized",
    "clear_vectorized_cache",
]

NEG_INF = float("-inf")

_DTYPES = {"bool": np.bool_, "int": np.int64, "float": np.float64}


class Site:
    """A static sample site: its (scalar-compatible) address and the
    distribution recorded at it."""

    __slots__ = ("index", "addr", "dist_name")

    def __init__(self, index: int, addr: Address, dist_name: str) -> None:
        self.index = index
        self.addr = addr
        self.dist_name = dist_name

    def __repr__(self) -> str:
        return f"Site({self.index}, {self.addr!r}, {self.dist_name!r})"


# -- runtime helpers (the generated code's entire vocabulary) ----------------


def _istrue(c):
    """Scalar ``cond is True``, lifted: bool arrays pass through, any
    non-bool value selects the else branch on every lane."""
    if isinstance(c, np.ndarray) and c.ndim:
        if c.dtype.kind == "b":
            return c
        return np.zeros(c.shape, dtype=np.bool_)
    if isinstance(c, (bool, np.bool_)):
        return np.bool_(bool(c))
    return np.bool_(False)


def _bool_operand(x, mask, what):
    """``_as_bool`` lifted: non-bool operands raise EvalError, but only
    when an active lane would actually evaluate them."""
    if isinstance(x, np.ndarray) and x.ndim:
        if x.dtype.kind == "b":
            return x
        if np.any(mask):
            raise EvalError(f"expected a boolean, got {x.ravel()[0]!r}")
        return np.zeros(x.shape, dtype=np.bool_)
    if isinstance(x, (bool, np.bool_)):
        return np.bool_(bool(x))
    if np.any(mask):
        raise EvalError(f"expected a boolean, got {x!r}")
    return np.bool_(False)


def _lnot(x, mask):
    return np.logical_not(_bool_operand(x, mask, "!"))


def _land(left, right, mask):
    return np.logical_and(
        _bool_operand(left, mask, "&&"), _bool_operand(right, mask, "&&")
    )


def _lor(left, right, mask):
    return np.logical_or(
        _bool_operand(left, mask, "||"), _bool_operand(right, mask, "||")
    )


def _num(x):
    """Python's bool-as-0/1 arithmetic, lifted (numpy bool arrays do not
    add/subtract the way Python bools do)."""
    if isinstance(x, np.ndarray):
        if x.dtype.kind == "b":
            return x.astype(np.int64)
        return x
    if isinstance(x, (bool, np.bool_)):
        return int(x)
    return x


def _div(left, right, mask, msg):
    right = _num(right)
    zero = np.asarray(right) == 0
    if np.any(zero & mask if np.ndim(zero) else (zero and mask)):
        raise EvalError(msg)
    if np.any(zero):
        right = np.where(zero, 1, right)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.true_divide(_num(left), right)


def _mod(left, right, mask, msg):
    right = _num(right)
    zero = np.asarray(right) == 0
    if np.any(zero & mask if np.ndim(zero) else (zero and mask)):
        raise EvalError(msg)
    if np.any(zero):
        right = np.where(zero, 1, right)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.mod(_num(left), right)  # numpy % matches Python's floored %


def _bcast(v, n):
    a = np.asarray(v)
    if a.ndim == 0:
        return np.broadcast_to(a, (n,))
    return a


def _f64(v):
    """Scalar ``float(expr)``, lifted."""
    return np.asarray(v, dtype=np.float64)


def _gather(v, anc):
    """Resampling gather; lane-uniform python scalars pass through."""
    if isinstance(v, np.ndarray) and v.ndim:
        return v[anc]
    return v


def _site_sample(handler, args, gen, mask, bval, bpres, n):
    """Sample-site runtime: replay compatible base entries per lane,
    draw fresh for the rest.  Mirrors the closure backend's ``_smp``
    (including re-scoring replayed values under current parameters).
    The third result masks the lanes whose replayed value lost its
    support (the caller blocks them), or is ``None`` when none did."""
    params = handler.prepare(args, mask)
    with np.errstate(all="ignore"):
        lost = None
        if bval is not None:
            base_lp = handler.log_prob(params, bval)
            rep = mask & bpres
            dead = rep & (base_lp == NEG_INF)
            if dead.any():
                lost = dead
                rep = rep & ~dead
            elif rep.all():
                return bval, np.where(mask, base_lp, 0.0), None
        else:
            rep = None
        fresh = handler.sample(params, gen, n)
        fresh_lp = handler.log_prob(params, fresh)
        if rep is None:
            return fresh, np.where(mask, fresh_lp, 0.0), None
        values = np.where(rep, bval, fresh)
        lps = np.where(rep, base_lp, fresh_lp)
    return values, np.where(mask, lps, 0.0), lost


def _site_score(handler, args, value, mask, n):
    """ObserveSample runtime: score a program value under the batched
    distribution (full-width; the caller masks the result)."""
    params = handler.prepare(args, mask)
    v = np.asarray(value)
    if v.ndim == 0:
        v = np.broadcast_to(v, (n,))
    with np.errstate(all="ignore"):
        return handler.log_prob(params, v)


# -- codegen -----------------------------------------------------------------


class _VecCodegen:
    """Emits ``_vec_run`` and ``_vec_particle`` for one unrolled region
    tree.  One fresh mask name per ``if`` arm, statements predicated by
    the innermost mask; ``_alive`` is the innermost mask at nesting
    depth zero."""

    def __init__(self, lowered, root) -> None:
        self.lowered = lowered
        self.root = root
        self.lines: List[str] = []
        self.sites: List[Site] = []
        self.handlers: Dict[str, str] = {}  # dist name -> namespace name
        self._mask_n = 0
        self._tmp_n = 0
        self.defined: set = set()
        self.all_masks: List[str] = []

    # -- small emission helpers ---------------------------------------------

    def emit(self, line: str) -> None:
        self.lines.append("    " + line)

    def fresh_mask(self) -> str:
        name = f"_m{self._mask_n}"
        self._mask_n += 1
        self.all_masks.append(name)
        return name

    def fresh_tmp(self) -> str:
        name = f"_t{self._tmp_n}"
        self._tmp_n += 1
        return name

    def handler(self, dist_name: str) -> str:
        name = self.handlers.get(dist_name)
        if name is None:
            name = f"_h{len(self.handlers)}"
            self.handlers[dist_name] = name
        return name

    # -- expressions ---------------------------------------------------------

    def expr(self, e: Expr, mask: str) -> str:
        if isinstance(e, Var):
            return "_v_" + e.name
        if isinstance(e, Const):
            return _const_src(e.value)
        if isinstance(e, Unary):
            operand = self.expr(e.operand, mask)
            if e.op == "!":
                return f"_lnot({operand}, {mask})"
            return f"(-_num({operand}))"
        if isinstance(e, Binary):
            left, right = self.expr(e.left, mask), self.expr(e.right, mask)
            op = e.op
            if op == "&&":
                return f"_land({left}, {right}, {mask})"
            if op == "||":
                return f"_lor({left}, {right}, {mask})"
            if op in ("==", "!=", "<", "<=", ">", ">=", "+", "-", "*"):
                return f"(_num({left}) {op} _num({right}))"
            if op == "/":
                return f"_div({left}, {right}, {mask}, {f'division by zero in {e}'!r})"
            if op == "%":
                return f"_mod({left}, {right}, {mask}, {f'modulo by zero in {e}'!r})"
            raise CompilationError(f"unknown operator {op!r}")
        raise CompilationError(f"not a vectorizable expression: {e!r}")

    def dist_args(self, d: DistCall, mask: str) -> str:
        if not d.args:
            return "()"
        parts = [self.expr(arg, mask) for arg in d.args]
        if len(parts) == 1:
            return f"({parts[0]},)"
        return "(" + ", ".join(parts) + ")"

    # -- assignment with branch predication ----------------------------------

    def assign(self, name: str, value_src: str, mask: str) -> None:
        var = "_v_" + name
        if name not in self.defined:
            # First definition: lanes outside the mask receive the same
            # value, which def-before-use-valid programs never observe
            # (the closure backend makes the same call for undeclared
            # reads).
            self.defined.add(name)
            self.emit(f"{var} = {value_src}")
        elif mask == "_alive":
            # Depth zero: dead lanes' values are unobservable (their
            # ll, trace presence and counters are already pinned), so
            # skip the merge.
            self.emit(f"{var} = {value_src}")
        else:
            self.emit(f"{var} = np.where({mask}, {value_src}, {var})")

    # -- statements -----------------------------------------------------------

    def region(self, region, parts: List[object], mask: str, particle: bool) -> bool:
        """Emit a region under ``mask``; returns whether it can block."""
        if isinstance(region, Leaf):
            if region.node is None:  # source `skip`
                return False
            return self.stmt(region.stmt, parts, mask, particle)
        if isinstance(region, Seq):
            blocked = False
            for i, child in enumerate(region.children):
                blocked |= self.region(child, parts + [i], mask, particle)
            return blocked
        if isinstance(region, IfRegion):
            self.emit(f"_n = _n + {mask}")
            cond = self.fresh_tmp()
            self.emit(f"{cond} = _istrue({self.expr(region.cond, mask)})")
            then_mask = self.fresh_mask()
            else_mask = self.fresh_mask()
            self.emit(f"{then_mask} = {mask} & {cond}")
            self.emit(f"{else_mask} = {mask} & ~{cond}")
            blocked = self.region(region.then_region, parts + ["T"], then_mask, particle)
            blocked |= self.region(region.else_region, parts + ["E"], else_mask, particle)
            if blocked and mask != "_alive":
                # A nested block shrank _alive; the enclosing mask must
                # drop those lanes too before the next statement.
                self.emit(f"{mask} = {mask} & _alive")
            return blocked
        if isinstance(region, UnrolledLoop):
            self.emit(f"_n = _n + {mask}  # while entry")
            blocked = False
            for k, body in enumerate(region.iterations):
                blocked |= self.region(body, parts + ["W", k], mask, particle)
                self.emit(f"_n = _n + {mask}  # iteration {k}")
            return blocked
        raise CompilationError(f"not a vectorizable region: {region!r}")

    def _shrink(self, fail_src: str, mask: str) -> None:
        """Kill the lanes where ``fail_src`` holds."""
        fail = self.fresh_tmp()
        self.emit(f"{fail} = {fail_src}")
        self.emit(f"_alive = _alive & ~{fail}")
        if mask != "_alive":
            self.emit(f"{mask} = {mask} & _alive")

    def _barrier(self, delta_src: str, particle: bool) -> None:
        """Particle mode: yield the log-weight delta and honour an
        ancestor permutation sent back by the engine."""
        assert particle
        anc = self.fresh_tmp()
        self.emit(f"{anc} = yield {delta_src}")
        self.emit(f"if {anc} is not None:")
        names = ["_alive", "_n"]
        names += self.all_masks
        names += sorted("_v_" + v for v in self.defined)
        for name in names:
            self.emit(f"    {name} = _gather({name}, {anc})")
        if self.sites:
            self.emit(f"    for _si in range({len(self.sites)}):")
            self.emit(f"        _tv[_si] = _gather(_tv[_si], {anc})")
            self.emit(f"        _tl[_si] = _gather(_tl[_si], {anc})")
            self.emit(f"        _tp[_si] = _gather(_tp[_si], {anc})")

    def stmt(self, stmt, parts: List[object], mask: str, particle: bool) -> bool:
        self.emit(f"_n = _n + {mask}")
        if isinstance(stmt, Decl):
            dtype = _DTYPES.get(stmt.type)
            if dtype is None:
                raise CompilationError(f"unknown type {stmt.type!r}")
            self.assign(stmt.name, f"np.zeros(_B, dtype=np.{dtype.__name__})", mask)
            return False
        if isinstance(stmt, Assign):
            self.assign(stmt.name, self.expr(stmt.expr, mask), mask)
            return False
        if isinstance(stmt, Sample):
            index = len(self.sites)
            self.sites.append(Site(index, tuple(parts), stmt.dist.name))
            handler = self.handler(stmt.dist.name)
            args = self.dist_args(stmt.dist, mask)
            val, lp, lost = self.fresh_tmp(), self.fresh_tmp(), self.fresh_tmp()
            base = f"_bv[{index}], _bp[{index}]" if not particle else "None, None"
            self.emit(
                f"{val}, {lp}, {lost} = _site_sample({handler}, {args}, _gen, "
                f"{mask}, {base}, _B)"
            )
            self.emit(f"_tv[{index}] = {val}")
            self.emit(f"_tl[{index}] = {lp}")
            self.emit(f"_tp[{index}] = {mask}")
            self.assign(stmt.name, val, mask)
            if particle:
                return False
            # A replayed value that lost its support blocks its lane.
            self.emit(f"if {lost} is not None:")
            self.emit(f"    _ll = np.where({lost}, NEG_INF, _ll)")
            self.emit(f"    _alive = _alive & ~{lost}")
            if mask != "_alive":
                self.emit(f"    {mask} = {mask} & _alive")
            return True
        if isinstance(stmt, Observe):
            cond = self.fresh_tmp()
            self.emit(f"{cond} = _istrue({self.expr(stmt.cond, mask)})")
            if particle:
                delta = self.fresh_tmp()
                self.emit(
                    f"{delta} = np.where({mask} & ~{cond}, NEG_INF, _zeros)"
                )
                self._shrink(f"{mask} & ~{cond}", mask)
                self._barrier(delta, particle)
            else:
                self.emit(f"_ll = np.where({mask} & ~{cond}, NEG_INF, _ll)")
                self._shrink(f"{mask} & ~{cond}", mask)
            return True
        if isinstance(stmt, ObserveSample):
            handler = self.handler(stmt.dist.name)
            args = self.dist_args(stmt.dist, mask)
            value = self.expr(stmt.value, mask)
            lp = self.fresh_tmp()
            self.emit(
                f"{lp} = _site_score({handler}, {args}, {value}, {mask}, _B)"
            )
            if particle:
                delta = self.fresh_tmp()
                self.emit(f"{delta} = np.where({mask}, {lp}, 0.0)")
                self._shrink(f"{mask} & ({lp} == NEG_INF)", mask)
                self._barrier(delta, particle)
            else:
                self.emit(f"_ll = _ll + np.where({mask}, {lp}, 0.0)")
                self._shrink(f"{mask} & ({lp} == NEG_INF)", mask)
            return True
        if isinstance(stmt, Factor):
            weight = f"_f64({self.expr(stmt.log_weight, mask)})"
            w = self.fresh_tmp()
            self.emit(f"{w} = np.where({mask}, {weight}, 0.0)")
            if particle:
                # The engine's (reset-at-resample) log-weights are the
                # authority on cumulative death; a -inf *delta* is the
                # only per-lane death the generator must mirror.
                self._shrink(f"{mask} & ({w} == NEG_INF)", mask)
                self._barrier(w, particle)
            else:
                self.emit(f"_ll = _ll + {w}")
                self._shrink(f"{mask} & (_ll == NEG_INF)", mask)
            return True
        raise CompilationError(f"not a primitive statement: {stmt!r}")

    # -- entry points ---------------------------------------------------------

    def ret_src(self) -> str:
        ret = self.lowered.ret
        assert ret is not None
        if isinstance(ret, TupleExpr):
            inner = ", ".join(
                f"_bcast({self.expr(el, '_alive')}, _B)" for el in ret.elements
            )
            if len(ret.elements) == 1:
                inner += ","
            return f"({inner})"
        return f"_bcast({self.expr(ret, '_alive')}, _B)"

    def function(self, particle: bool) -> None:
        n_sites = len(self.sites)
        self.sites = []
        self.handlers = dict(self.handlers)
        self._mask_n = 0
        self._tmp_n = 0
        self.defined = set()
        self.all_masks = []
        if particle:
            self.lines.append("def _vec_particle(_ctx, _gen, _B):")
            # A program without conditioning barriers emits no `yield`;
            # this unreachable one keeps the function a generator.
            self.emit("if False:")
            self.emit("    yield None")
        else:
            self.lines.append("def _vec_run(_gen, _B, _bv, _bp):")
            self.emit("_ll = np.zeros(_B, dtype=np.float64)")
        self.emit("_alive = np.ones(_B, dtype=np.bool_)")
        self.emit("_zeros = np.zeros(_B, dtype=np.float64)")
        self.emit("_n = np.zeros(_B, dtype=np.int64)")
        self.emit("_tv = [None] * _NSITES")
        self.emit("_tl = [None] * _NSITES")
        self.emit("_tp = [None] * _NSITES")
        self.region(self.root, [], "_alive", particle)
        if particle:
            self.emit("_ctx.value = " + self.ret_src())
            self.emit("_ctx.statements = _n")
            self.emit("_ctx.site_values = _tv")
            self.emit("_ctx.site_log_priors = _tl")
            self.emit("_ctx.site_present = _tp")
        else:
            self.emit(f"return {self.ret_src()}, _ll, _n, _tv, _tl, _tp")
        self.lines.append("")
        if n_sites and n_sites != len(self.sites):  # pragma: no cover
            raise CompilationError("site count diverged between entry points")


# -- results -----------------------------------------------------------------


class BatchRunResult:
    """The result of one vectorized batch: per-lane observables plus
    per-site trace columns.  ``lane_result(i)`` converts lane ``i`` to
    the scalar :class:`RunResult` the rest of the system speaks."""

    __slots__ = (
        "value",
        "log_likelihood",
        "statements",
        "site_values",
        "site_log_priors",
        "site_present",
        "sites",
        "batch",
    )

    def __init__(
        self,
        value,
        log_likelihood: np.ndarray,
        statements: np.ndarray,
        site_values: List[Optional[np.ndarray]],
        site_log_priors: List[Optional[np.ndarray]],
        site_present: List[Optional[np.ndarray]],
        sites: Tuple[Site, ...],
        batch: int,
    ) -> None:
        self.value = value
        self.log_likelihood = log_likelihood
        self.statements = statements
        self.site_values = site_values
        self.site_log_priors = site_log_priors
        self.site_present = site_present
        self.sites = sites
        self.batch = batch

    @property
    def blocked(self) -> np.ndarray:
        return self.log_likelihood == NEG_INF

    def log_priors(self) -> np.ndarray:
        """Per-lane total log-prior over present trace entries."""
        total = np.zeros(self.batch, dtype=np.float64)
        for lp, present in zip(self.site_log_priors, self.site_present):
            if lp is not None:
                total = total + np.where(present, lp, 0.0)
        return total

    def log_joints(self) -> np.ndarray:
        return self.log_likelihood + self.log_priors()

    def lane_value(self, i: int):
        if self.log_likelihood[i] == NEG_INF:
            return None
        if isinstance(self.value, tuple):
            return tuple(v[i].item() for v in self.value)
        return self.value[i].item()

    def lane_trace(self, i: int) -> Trace:
        trace: Trace = {}
        for site, values, lps, present in zip(
            self.sites, self.site_values, self.site_log_priors, self.site_present
        ):
            if values is not None and bool(present[i]):
                trace[site.addr] = TraceEntry(
                    values[i].item(), float(lps[i]), site.dist_name
                )
        return trace

    def lane_result(self, i: int) -> RunResult:
        return RunResult(
            self.lane_value(i),
            float(self.log_likelihood[i]),
            self.lane_trace(i),
            int(self.statements[i]),
            0,
        )


class VectorizedParticles:
    """Batched SMC particle advancement: ``advance(ancestors)`` permutes
    state by the ancestor-index array (``None`` for no resampling),
    runs every lane to its next conditioning barrier, and returns the
    ``(batch,)`` log-weight delta — ``None`` once the program ends."""

    def __init__(self, vectorized: "VectorizedProgram", gen, batch: int) -> None:
        self.batch = batch
        self.sites = vectorized.sites
        self.value = None
        self.statements: Optional[np.ndarray] = None
        self.site_values: Optional[List] = None
        self.site_log_priors: Optional[List] = None
        self.site_present: Optional[List] = None
        self._it = vectorized._particle(self, gen, batch)
        self._started = False

    def advance(self, ancestors: Optional[np.ndarray] = None) -> Optional[np.ndarray]:
        try:
            if not self._started:
                self._started = True
                assert ancestors is None
                return next(self._it)
            return self._it.send(ancestors)
        except StopIteration:
            return None

    def finished_result(self) -> BatchRunResult:
        """The batch result once :meth:`advance` returned ``None`` —
        log-likelihood is all-zero here (weights live in the engine)."""
        assert self.statements is not None
        return BatchRunResult(
            self.value,
            np.zeros(self.batch, dtype=np.float64),
            self.statements,
            self.site_values,
            self.site_log_priors,
            self.site_present,
            self.sites,
            self.batch,
        )


# -- the compiled object -----------------------------------------------------


class VectorizedProgram:
    """A program translated to straight-line numpy batch code (plus the
    barrier-generator variant for SMC)."""

    def __init__(self, program: Program, unroll_budget: int = DEFAULT_UNROLL_BUDGET):
        if not isinstance(program, Program):
            raise CompilationError("compile_vectorized requires a Program")
        for name in free_vars(program):
            if not ("_v_" + name).isidentifier():
                raise CompilationError(f"variable name {name!r} cannot be compiled")
        self.program = program
        self.unroll_budget = unroll_budget
        lowered = lower(program)
        root = unroll_regions(lowered, unroll_budget, batched_dist_names())
        gen = _VecCodegen(lowered, root)
        gen.function(particle=False)
        gen.function(particle=True)
        self.source = "\n".join(gen.lines)
        self.sites: Tuple[Site, ...] = tuple(gen.sites)
        self._handler_names = dict(gen.handlers)
        self._exec()

    def _exec(self) -> None:
        namespace: Dict[str, object] = {
            "np": np,
            "NEG_INF": NEG_INF,
            "_NSITES": len(self.sites),
            "_istrue": _istrue,
            "_lnot": _lnot,
            "_land": _land,
            "_lor": _lor,
            "_num": _num,
            "_div": _div,
            "_mod": _mod,
            "_bcast": _bcast,
            "_f64": _f64,
            "_gather": _gather,
            "_site_sample": _site_sample,
            "_site_score": _site_score,
        }
        for dist_name, ns_name in self._handler_names.items():
            namespace[ns_name] = BATCHED[dist_name]
        exec(compile(self.source, "<repro.vectorized>", "exec"), namespace)
        self._run = namespace["_vec_run"]
        self._particle = namespace["_vec_particle"]

    # Like CompiledProgram: the source and the program pickle, the
    # exec-produced functions re-bind on unpickle.

    def __getstate__(self) -> Dict[str, object]:
        return {
            "program": self.program,
            "unroll_budget": self.unroll_budget,
            "source": self.source,
            "sites": self.sites,
            "_handler_names": self._handler_names,
        }

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.program = state["program"]  # type: ignore[assignment]
        self.unroll_budget = state["unroll_budget"]  # type: ignore[assignment]
        self.source = state["source"]  # type: ignore[assignment]
        self.sites = state["sites"]  # type: ignore[assignment]
        self._handler_names = state["_handler_names"]  # type: ignore[assignment]
        self._exec()

    def base_from_trace(
        self, trace: Optional[Trace], batch: int
    ) -> Tuple[List[Optional[np.ndarray]], List[Optional[np.ndarray]]]:
        """Per-site base columns replicating ``trace`` across ``batch``
        lanes (the vectorized analogue of passing ``base_trace``)."""
        values: List[Optional[np.ndarray]] = [None] * len(self.sites)
        present: List[Optional[np.ndarray]] = [None] * len(self.sites)
        if trace:
            for site in self.sites:
                entry = trace.get(site.addr)
                if entry is not None and entry.dist_name == site.dist_name:
                    dtype = BATCHED[site.dist_name].dtype
                    values[site.index] = np.full(batch, entry.value, dtype=dtype)
                    present[site.index] = np.ones(batch, dtype=np.bool_)
        return values, present

    def run_batch(
        self,
        gen: np.random.Generator,
        batch: int,
        base: Optional[
            Tuple[Sequence[Optional[np.ndarray]], Sequence[Optional[np.ndarray]]]
        ] = None,
    ) -> BatchRunResult:
        """Execute ``batch`` lanes; ``base`` optionally supplies
        per-site (values, present) columns to replay."""
        if base is None:
            bv: Sequence[Optional[np.ndarray]] = [None] * len(self.sites)
            bp: Sequence[Optional[np.ndarray]] = [None] * len(self.sites)
        else:
            bv, bp = base
        try:
            value, ll, statements, tv, tl, tp = self._run(gen, batch, bv, bp)
        except NameError as exc:  # read of a never-assigned variable
            name = getattr(exc, "name", "") or ""
            raise EvalError(
                f"variable {name.removeprefix('_v_')!r} is not defined"
            ) from None
        return BatchRunResult(
            value, ll, statements, tv, tl, tp, self.sites, batch
        )

    def particles(self, gen: np.random.Generator, batch: int) -> VectorizedParticles:
        return VectorizedParticles(self, gen, batch)


# -- memoization -------------------------------------------------------------

#: ``id(program) -> (program, outcome)`` where outcome is either the
#: VectorizedProgram or the NotVectorizable verdict (analysis is as
#: cacheable as codegen).
_VEC_CACHE: Dict[Tuple[int, int], Tuple[Program, object]] = {}
_VEC_FPRINT_CACHE: Dict[Tuple[str, int], object] = {}
_VEC_CACHE_MAX = 512


def clear_vectorized_cache() -> None:
    """Drop all memoized vectorized compilations (mainly for tests)."""
    _VEC_CACHE.clear()
    _VEC_FPRINT_CACHE.clear()


def compile_vectorized(
    program: Program, unroll_budget: int = DEFAULT_UNROLL_BUDGET
) -> VectorizedProgram:
    """Compile ``program`` for the array backend, memoized like
    :func:`repro.semantics.compiled.compile_program` (identity layer
    over a content-fingerprint layer).  ``NotVectorizable`` verdicts
    are memoized too and re-raised."""
    key = (id(program), unroll_budget)
    hit = _VEC_CACHE.get(key)
    if hit is not None and hit[0] is program:
        if isinstance(hit[1], NotVectorizable):
            raise hit[1]
        return hit[1]  # type: ignore[return-value]
    from ..core.fingerprint import program_fingerprint

    fp = (program_fingerprint(program, kind="vectorized"), unroll_budget)
    outcome = _VEC_FPRINT_CACHE.get(fp)
    if outcome is None:
        from ..obs.recorder import current_recorder

        with current_recorder().span("semantics.vectorize") as sp:
            try:
                outcome = VectorizedProgram(program, unroll_budget)
                sp.set(code_chars=len(outcome.source), sites=len(outcome.sites))
            except NotVectorizable as exc:
                outcome = exc
                sp.set(not_vectorizable=exc.reason)
        if len(_VEC_FPRINT_CACHE) >= _VEC_CACHE_MAX:
            _VEC_FPRINT_CACHE.clear()
        _VEC_FPRINT_CACHE[fp] = outcome
    if len(_VEC_CACHE) >= _VEC_CACHE_MAX:
        _VEC_CACHE.clear()
    _VEC_CACHE[key] = (program, outcome)
    if isinstance(outcome, NotVectorizable):
        raise outcome
    return outcome  # type: ignore[return-value]
