"""The pass-pipeline context: current program + cached analyses.

A :class:`PassContext` is the single mutable object a pipeline of
passes threads through.  It carries:

* the **current program** (``ctx.program``), updated only through
  :meth:`PassContext.update_program` so analysis invalidation can
  never be forgotten;
* a shared :class:`repro.core.names.FreshNames` source seeded from the
  original program's variables, so composed passes (SVF helpers, SSA
  versions) can never collide on fresh names;
* lazily-computed, cached **analyses** — the CFG lowering, free
  variables, the Figure-9 dependence info, the INF influencer closure,
  and the AB theory's node-level data dependence + weak-slice decision
  — each computed at most once per program version and shared by every
  consumer (the depgraph, both slicers, the DOT exporter);
* free-form **artifacts** set by passes (the pre-slice program, its
  lowering, the influencer/observed sets) that outlive program
  updates — :func:`repro.transforms.pipeline.sli` assembles its
  ``SliceResult`` from them.

Caching is observable: every analysis request bumps
``passes.analysis.computed.<name>`` (a real computation ran) or
``passes.analysis.reused.<name>`` (the cache served it) on the ambient
recorder, and the same counts live on :attr:`PassContext.computed` /
:attr:`PassContext.reused` for recorder-less assertions.  The golden
tests (and a verified CLI run in CI) pin
``passes.analysis.computed.lowered == 1`` for a default ``sli`` run —
the "lower once, share everywhere" guarantee the shared IR exists for.

Analyses are registered in a module-level table
(:func:`register_analysis`), so a new pass that needs, say, a liveness
analysis adds one entry and every pipeline gains the caching and the
counters for free.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, FrozenSet, Iterable, Optional

from ..analysis.depgraph import analyze_lowered
from ..analysis.influencers import inf_fast
from ..core.ast import Program
from ..core.freevars import free_vars
from ..core.names import FreshNames
from ..ir.lower import lower
from ..obs.recorder import current_recorder

__all__ = ["PassContext", "register_analysis", "registered_analyses"]


#: ``name -> compute(ctx)``.  An analysis may request other analyses
#: through ``ctx.analysis(...)`` — dependencies share the cache.
_ANALYSES: Dict[str, Callable[["PassContext"], Any]] = {}


def register_analysis(
    name: str,
) -> Callable[[Callable[["PassContext"], Any]], Callable[["PassContext"], Any]]:
    """Register a named analysis computable from a :class:`PassContext`.

    ::

        @register_analysis("liveness")
        def _liveness(ctx):
            return live_sets(ctx.analysis("lowered"))
    """

    def deco(fn: Callable[["PassContext"], Any]) -> Callable[["PassContext"], Any]:
        if name in _ANALYSES:
            raise ValueError(f"analysis {name!r} already registered")
        _ANALYSES[name] = fn
        return fn

    return deco


def registered_analyses() -> FrozenSet[str]:
    """Names of every registered analysis."""
    return frozenset(_ANALYSES)


class PassContext:
    """Mutable state threaded through a pass pipeline."""

    def __init__(
        self,
        program: Program,
        fresh: Optional[FreshNames] = None,
    ) -> None:
        self._program = program
        #: The program the pipeline started from (never updated).
        self.original = program
        #: Shared fresh-name source; seeded from the original program's
        #: variables so SVF helpers and SSA versions never collide.
        self.fresh = fresh if fresh is not None else FreshNames(free_vars(program))
        #: Free-form pass outputs that survive program updates.
        self.artifacts: Dict[str, Any] = {}
        #: Wall seconds per pass span name (``pass.<name>``), filled in
        #: by the :class:`repro.passes.manager.PassManager`.
        self.pass_seconds: Dict[str, float] = {}
        #: Per-analysis computation / cache-hit counts (mirrors the
        #: ``passes.analysis.*`` obs counters).
        self.computed: Dict[str, int] = {}
        self.reused: Dict[str, int] = {}
        self._cache: Dict[str, Any] = {}

    # -- the current program ---------------------------------------------------

    @property
    def program(self) -> Program:
        return self._program

    def update_program(
        self, program: Program, preserves: Iterable[str] = ()
    ) -> None:
        """Install a rewritten program, dropping every cached analysis
        not named in ``preserves`` (the pass's declared contract).

        A no-op when ``program`` is the current object — a pass that
        leaves the program alone invalidates nothing.
        """
        if program is self._program:
            return
        self._program = program
        keep = frozenset(preserves)
        if keep:
            self._cache = {k: v for k, v in self._cache.items() if k in keep}
        else:
            self._cache.clear()

    # -- cached analyses -------------------------------------------------------

    def analysis(self, name: str) -> Any:
        """The named analysis of the *current* program, computed on
        first request and cached until a program update invalidates it."""
        if name in self._cache:
            self.reused[name] = self.reused.get(name, 0) + 1
            current_recorder().counter(f"passes.analysis.reused.{name}")
            return self._cache[name]
        try:
            compute = _ANALYSES[name]
        except KeyError:
            raise KeyError(
                f"unknown analysis {name!r}; registered: "
                f"{sorted(_ANALYSES)}"
            ) from None
        value = compute(self)
        self._cache[name] = value
        self.computed[name] = self.computed.get(name, 0) + 1
        current_recorder().counter(f"passes.analysis.computed.{name}")
        return value

    def cached(self, name: str) -> Optional[Any]:
        """The cached analysis value, or ``None`` — never computes."""
        return self._cache.get(name)

    def invalidate(self, *names: str) -> None:
        """Drop specific cached analyses (all of them when called with
        no arguments)."""
        if not names:
            self._cache.clear()
            return
        for name in names:
            self._cache.pop(name, None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PassContext(cached={sorted(self._cache)}, "
            f"artifacts={sorted(self.artifacts)})"
        )


# ---------------------------------------------------------------------------
# The built-in analyses
# ---------------------------------------------------------------------------


@register_analysis("lowered")
def _lowered(ctx: PassContext):
    """The shared CFG lowering (:func:`repro.ir.lower.lower`)."""
    return lower(ctx.program)


@register_analysis("free_vars")
def _free_vars(ctx: PassContext):
    """Every variable mentioned in the current program."""
    return free_vars(ctx.program)


@register_analysis("deps")
def _deps(ctx: PassContext):
    """Figure-9 dependence info, read off the cached lowering."""
    return analyze_lowered(ctx.analysis("lowered"))


@register_analysis("influencers")
def _influencers(ctx: PassContext):
    """``INF(O, G)(R)`` for the current program's return variables."""
    deps = ctx.analysis("deps")
    return frozenset(
        inf_fast(deps.observed, deps.graph, free_vars(ctx.program.ret))
    )


@register_analysis("cfg_data_deps")
def _cfg_data_deps(ctx: PassContext):
    """Node-level data dependence (reaching definitions) on the cached
    lowering — the AB slicing theory's data-closure input."""
    from ..ir.analyses import data_dependence

    return data_dependence(ctx.analysis("lowered"))


@register_analysis("ab_slice")
def _ab_slice(ctx: PassContext):
    """The Amtoft–Banerjee weak-slice decision
    (:class:`repro.transforms.cfgslice.CfgSliceInfo`) for the current
    program, computed from the shared lowering and ``cfg_data_deps``."""
    from ..transforms.cfgslice import ab_slice_info

    return ab_slice_info(
        ctx.analysis("lowered"), ctx.analysis("cfg_data_deps")
    )
