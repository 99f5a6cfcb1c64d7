"""AST→CFG lowering and the verified CFG→AST raising.

Lowering walks the AST once, emitting one CFG node per primitive
statement (``skip`` vanishes) and a branch node per ``if`` / ``while``
condition, while recording a *region tree* that mirrors the source
structure.  The region tree is what makes raising trivially correct:
raising a region with every node selected rebuilds the source program
(modulo ``seq`` normalization — flattened blocks, dropped skips), and
raising with a node subset reproduces exactly the paper's ``SLI``
statement rules (Figure 11):

* an unselected primitive node becomes ``skip``;
* an ``if`` whose raised branches are both skips collapses to ``skip``;
* a ``while`` survives iff its *header node* is selected.

Soft observations (``observe(Dist, E)`` / ``factor(E)``) receive their
synthetic observed tokens (``$obs0``, ``$obs1``, ...) here, in node
creation order — which is AST pre-order, the same order
:mod:`repro.analysis.depgraph` and the slicer historically used, so
token numbering is consistent across every consumer of the IR.

``lower`` is memoized by object identity: the pipeline lowers a
program once and the dependence analysis, the slicer, liveness, and
the compiled executor all share the result.  The memo keeps the
:data:`_LOWER_CACHE_MAX` most recently used lowerings, so a
long-running process does not keep every program it ever lowered
alive.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..core.ast import (
    Assign,
    Block,
    Decl,
    Expr,
    Factor,
    If,
    Observe,
    ObserveSample,
    Program,
    Sample,
    SKIP,
    Skip,
    Stmt,
    While,
    is_skip,
    seq,
)
from .cfg import CFG

__all__ = [
    "SOFT_OBS_PREFIX",
    "Leaf",
    "Seq",
    "IfRegion",
    "WhileRegion",
    "Region",
    "Lowered",
    "lower",
    "raise_region",
    "raise_program",
    "clear_lower_cache",
]

#: Prefix of the synthetic observed tokens for soft observations.
#: (Re-exported by :mod:`repro.analysis.depgraph` for compatibility.)
SOFT_OBS_PREFIX = "$obs"


# ---------------------------------------------------------------------------
# Region tree
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Leaf:
    """A primitive statement; ``node`` is None for source ``skip``."""

    stmt: Stmt
    node: Optional[int]


@dataclass(frozen=True)
class Seq:
    """Sequential composition (mirrors a :class:`Block`)."""

    children: Tuple["Region", ...]


@dataclass(frozen=True)
class IfRegion:
    """A conditional; ``node`` is the branch node carrying the condition."""

    cond: Expr
    node: int
    then_region: "Region"
    else_region: "Region"


@dataclass(frozen=True)
class WhileRegion:
    """A loop; ``node`` is the header node carrying the condition."""

    cond: Expr
    node: int
    body: "Region"


Region = Union[Leaf, Seq, IfRegion, WhileRegion]


# ---------------------------------------------------------------------------
# Lowered program
# ---------------------------------------------------------------------------


@dataclass
class Lowered:
    """The result of lowering a program (or bare statement).

    ``tokens`` maps soft-observation node ids to their ``$obsN`` token;
    ``source`` keeps the lowered object alive so the identity-keyed
    cache stays sound.
    """

    cfg: CFG
    root: Region
    source: Union[Program, Stmt]
    ret: Optional[Expr]
    tokens: Dict[int, str] = field(default_factory=dict)

    @property
    def body(self) -> Stmt:
        return (
            self.source.body if isinstance(self.source, Program) else self.source
        )


class _Lowerer:
    def __init__(self) -> None:
        self.cfg = CFG()
        self.tokens: Dict[int, str] = {}
        self._soft_counter = 0

    def lower(self, stmt: Stmt, block: int) -> Tuple[Region, int]:
        """Lower ``stmt`` starting in ``block``; returns the region and
        the block where control continues."""
        if isinstance(stmt, Skip):
            return Leaf(stmt, None), block
        if isinstance(stmt, Block):
            children: List[Region] = []
            for s in stmt.stmts:
                region, block = self.lower(s, block)
                children.append(region)
            return Seq(tuple(children)), block
        if isinstance(stmt, If):
            branch = self.cfg.new_node("branch", block, cond=stmt.cond)
            then_entry = self.cfg.new_block()
            self.cfg.add_edge(block, then_entry)  # first successor: true edge
            then_region, then_exit = self.lower(stmt.then_branch, then_entry)
            else_entry = self.cfg.new_block()
            self.cfg.add_edge(block, else_entry)
            else_region, else_exit = self.lower(stmt.else_branch, else_entry)
            join = self.cfg.new_block()
            self.cfg.add_edge(then_exit, join)
            self.cfg.add_edge(else_exit, join)
            return IfRegion(stmt.cond, branch, then_region, else_region), join
        if isinstance(stmt, While):
            header = self.cfg.new_block()
            self.cfg.add_edge(block, header)
            head = self.cfg.new_node("loop", header, cond=stmt.cond)
            body_entry = self.cfg.new_block()
            self.cfg.add_edge(header, body_entry)  # first successor: true edge
            body_region, body_exit = self.lower(stmt.body, body_entry)
            self.cfg.add_edge(body_exit, header)  # back edge
            after = self.cfg.new_block()
            self.cfg.add_edge(header, after)
            return WhileRegion(stmt.cond, head, body_region), after
        # Primitive statement.
        node = self.cfg.new_node("stmt", block, stmt=stmt)
        if isinstance(stmt, (ObserveSample, Factor)):
            self.tokens[node] = f"{SOFT_OBS_PREFIX}{self._soft_counter}"
            self._soft_counter += 1
        elif not isinstance(stmt, (Decl, Assign, Sample, Observe)):
            raise TypeError(f"not a statement: {stmt!r}")
        return Leaf(stmt, node), block


#: Identity-keyed lowering cache, least recently used first.  Strong
#: references to the source keep ``id`` values from being reused while
#: an entry is alive.
_LOWER_CACHE: "OrderedDict[int, Tuple[object, Lowered]]" = OrderedDict()
#: Enough for the exact engine's working set on the enumerable Table-1
#: models (it lowers each statement it asks liveness about: 42 on the
#: unsliced BurglarAlarm), while a process that slices a stream of
#: programs keeps at most this many lowerings alive (a cold slice and
#: compile adds two).
_LOWER_CACHE_MAX = 64


def clear_lower_cache() -> None:
    """Drop all memoized lowerings (mainly for tests)."""
    _LOWER_CACHE.clear()


def lower(source: Union[Program, Stmt]) -> Lowered:
    """Lower a program or statement to a :class:`Lowered` CFG.

    Memoized by object identity — repeated calls on the same AST (the
    pipeline analyzing then slicing the same preprocessed program, the
    exact engine re-querying liveness per loop iteration) share one IR.
    """
    key = id(source)
    hit = _LOWER_CACHE.get(key)
    if hit is not None and hit[0] is source:
        # Each OrderedDict call is atomic, but serve jobs lower on
        # worker threads: another one may evict the entry in between.
        try:
            _LOWER_CACHE.move_to_end(key)
        except KeyError:
            pass
        return hit[1]
    from ..obs.recorder import current_recorder

    with current_recorder().span("ir.lower") as sp:
        body = source.body if isinstance(source, Program) else source
        ret = source.ret if isinstance(source, Program) else None
        lo = _Lowerer()
        root, last = lo.lower(body, lo.cfg.entry)
        exit_block = lo.cfg.new_block()
        lo.cfg.add_edge(last, exit_block)
        lo.cfg.seal(exit_block)
        result = Lowered(lo.cfg, root, source, ret, lo.tokens)
        sp.set(n_nodes=len(lo.cfg.nodes), n_blocks=len(lo.cfg.blocks))
    _LOWER_CACHE[key] = (source, result)
    try:
        while len(_LOWER_CACHE) > _LOWER_CACHE_MAX:
            _LOWER_CACHE.popitem(last=False)
    except KeyError:  # another thread emptied it first
        pass
    return result


# ---------------------------------------------------------------------------
# Raising
# ---------------------------------------------------------------------------


def raise_region(region: Region, selected: Callable[[int], bool]) -> Stmt:
    """Raise a region back to an AST, keeping exactly the nodes for
    which ``selected`` holds (Figure 11's SLI statement rules).

    ``selected`` is consulted for every primitive node and every loop
    header; ``if`` nodes are structural — the conditional survives iff
    either raised branch does.  With ``selected = lambda n: True`` this
    reconstructs the source program up to ``seq`` normalization.
    """
    if isinstance(region, Leaf):
        if region.node is None:
            return SKIP
        return region.stmt if selected(region.node) else SKIP
    if isinstance(region, Seq):
        return seq(*(raise_region(child, selected) for child in region.children))
    if isinstance(region, IfRegion):
        then_branch = raise_region(region.then_region, selected)
        else_branch = raise_region(region.else_region, selected)
        if is_skip(then_branch) and is_skip(else_branch):
            return SKIP
        return If(region.cond, then_branch, else_branch)
    if isinstance(region, WhileRegion):
        if selected(region.node):
            return While(region.cond, raise_region(region.body, selected))
        return SKIP
    raise TypeError(f"not a region: {region!r}")


def raise_program(
    lowered: Lowered, selected: Callable[[int], bool] = lambda n: True
) -> Program:
    """Raise a lowered *program* back to a :class:`Program`."""
    if lowered.ret is None:
        raise TypeError("raise_program requires a lowered Program, not a Stmt")
    return Program(raise_region(lowered.root, selected), lowered.ret)
