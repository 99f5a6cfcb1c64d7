"""A generic worklist dataflow fixpoint engine over the CFG, plus the
node-level analyses the Amtoft–Banerjee slicing theory consumes.

Analyses describe themselves as a :class:`DataflowProblem` — direction,
lattice join, boundary value, and a per-node transfer function — and
:func:`solve` iterates block-level transfer to a fixpoint.  A block's
transfer is the :meth:`DataflowProblem.transfer_block` hook, which by
default applies the node transfers in order (forward) or reverse
(backward); a problem whose per-node fold is costly overrides it with
an equivalent whole-block step (:class:`ReachingDefinitions` does).
Block-granular iteration is what keeps the engine near-linear on the
long straight-line Table-1 programs: a 3000-statement chain is a
single block and converges in one sweep.

:mod:`repro.semantics.liveness` is the canonical instance; the
Figure-9 dependence analysis uses the CFG's control-dependence
machinery directly (a reachability problem, not a lattice one).

The second half of the module serves the Amtoft–Banerjee theory
(arXiv 1711.02246): slicing as *weak slice sets* of CFG nodes, with no
SVF/SSA detour.  A node set ``Q`` is a weak slice set iff it is

* **closed under data dependence** — every definition one of its
  nodes may read is in ``Q`` (:func:`data_dependence`, built on
  :class:`ReachingDefinitions`), and
* **provides next observables** — from any branch node outside ``Q``,
  all paths agree on the first element of ``Q ∪ {End}`` they meet
  (the weak-postdomination condition; :func:`first_relevant` computes
  the per-block "first relevant node" sets whose disagreements
  :func:`weak_slice_closure` resolves by promoting branch nodes into
  ``Q``).

:func:`conditioning_nodes` lists the nodes the observe-closure
arbitration in :mod:`repro.transforms.cfgslice` must account for:
``observe`` / ``observe(D, E)`` / ``factor`` statements and loop
headers (this repo's semantics normalizes over *terminating*
permitted runs, so a loop condition conditions the output exactly like
an observation — dropping a kept-correlated loop would change the
distribution, see Example 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Generic,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

from ..core.ast import Assign, Decl, Factor, Observe, ObserveSample, Sample
from ..core.freevars import free_vars
from .cfg import CFG, Node

__all__ = [
    "DataflowProblem",
    "DataflowSolution",
    "solve",
    "END",
    "node_def",
    "node_uses",
    "ReachingDefinitions",
    "CfgDataDeps",
    "data_dependence",
    "first_relevant",
    "weak_slice_closure",
    "conditioning_nodes",
]

L = TypeVar("L")


class DataflowProblem(Generic[L]):
    """A monotone dataflow problem on lattice values of type ``L``.

    Subclasses set ``direction`` (``"forward"`` or ``"backward"``) and
    implement the four hooks.  ``join`` must be monotone and ``transfer``
    distributive for the fixpoint to equal the merge-over-paths solution
    (all our instances are gen/kill problems, which are)."""

    direction: str = "forward"

    def boundary(self) -> L:
        """Value at the entry (forward) or exit (backward) of the CFG."""
        raise NotImplementedError

    def initial(self) -> L:
        """Optimistic initial value for every other block."""
        raise NotImplementedError

    def join(self, a: L, b: L) -> L:
        raise NotImplementedError

    def transfer(self, node: Node, value: L) -> L:
        """Push ``value`` across ``node`` (against the edge direction
        for backward problems)."""
        raise NotImplementedError

    def transfer_block(self, nodes: Sequence[Node], value: L) -> L:
        """Push ``value`` across a whole basic block whose ``nodes`` are
        given in control-flow order.

        The default folds :meth:`transfer` over the nodes (in reverse
        for backward problems).  An override must return a value equal
        to that fold; it exists so a problem can do in one step what
        the fold does node by node."""
        if self.direction == "backward":
            nodes = nodes[::-1]
        for node in nodes:
            value = self.transfer(node, value)
        return value


@dataclass
class DataflowSolution(Generic[L]):
    """Fixpoint values per block.

    ``block_in[b]`` is the value at the block's *entry* and
    ``block_out[b]`` at its *exit*, in control-flow orientation
    regardless of the analysis direction.  :meth:`node_values` replays
    the transfers of one block to recover per-node values on demand.
    """

    problem: DataflowProblem[L]
    cfg: CFG
    block_in: Dict[int, L]
    block_out: Dict[int, L]

    def entry_value(self) -> L:
        """The value observed at program entry (live-in of the whole
        program for backward liveness)."""
        return self.block_in[self.cfg.entry]

    def node_values(self, block_id: int) -> Dict[int, L]:
        """Per-node values within a block: for a backward problem the
        value *before* each node; for a forward problem the value
        *after* each node."""
        block = self.cfg.blocks[block_id]
        values: Dict[int, L] = {}
        if self.problem.direction == "backward":
            value = self.block_out[block_id]
            for node_id in reversed(block.nodes):
                value = self.problem.transfer(self.cfg.nodes[node_id], value)
                values[node_id] = value
        else:
            value = self.block_in[block_id]
            for node_id in block.nodes:
                value = self.problem.transfer(self.cfg.nodes[node_id], value)
                values[node_id] = value
        return values


def _apply_block(problem: DataflowProblem[L], cfg: CFG, block_id: int, value: L) -> L:
    nodes = cfg.nodes
    return problem.transfer_block(
        [nodes[node_id] for node_id in cfg.blocks[block_id].nodes], value
    )


def solve(cfg: CFG, problem: DataflowProblem[L]) -> DataflowSolution[L]:
    """Iterate ``problem`` to its least fixpoint over ``cfg``.

    Standard worklist: seed the boundary block, propagate along flow
    edges (reversed for backward problems), re-queue dependents whose
    input changed.  Termination follows from join-monotonicity and the
    finite lattices our instances use (sets of program variables)."""
    backward = problem.direction == "backward"
    boundary_block = cfg.exit if backward else cfg.entry
    block_in: Dict[int, L] = {}
    block_out: Dict[int, L] = {}
    for block in cfg.blocks:
        block_in[block.id] = problem.initial()
        block_out[block.id] = problem.initial()
    if backward:
        block_out[boundary_block] = problem.boundary()
    else:
        block_in[boundary_block] = problem.boundary()

    worklist: List[int] = [b.id for b in cfg.blocks]
    in_list = set(worklist)
    while worklist:
        block_id = worklist.pop()
        in_list.discard(block_id)
        if backward:
            # out = join over successors' in; in = transfer(out).
            value = block_out[block_id]
            if block_id != boundary_block:
                succs = cfg.blocks[block_id].succ
                if succs:
                    value = block_in[succs[0]]
                    for s in succs[1:]:
                        value = problem.join(value, block_in[s])
                else:
                    value = problem.initial()
                block_out[block_id] = value
            new_in = _apply_block(problem, cfg, block_id, value)
            if new_in != block_in[block_id]:
                block_in[block_id] = new_in
                for p in cfg.blocks[block_id].pred:
                    if p not in in_list:
                        in_list.add(p)
                        worklist.append(p)
        else:
            value = block_in[block_id]
            if block_id != boundary_block:
                preds = cfg.blocks[block_id].pred
                if preds:
                    value = block_out[preds[0]]
                    for p in preds[1:]:
                        value = problem.join(value, block_out[p])
                else:
                    value = problem.initial()
                block_in[block_id] = value
            new_out = _apply_block(problem, cfg, block_id, value)
            if new_out != block_out[block_id]:
                block_out[block_id] = new_out
                for s in cfg.blocks[block_id].succ:
                    if s not in in_list:
                        in_list.add(s)
                        worklist.append(s)
    return DataflowSolution(problem, cfg, block_in, block_out)


# ---------------------------------------------------------------------------
# Amtoft–Banerjee node-level analyses
# ---------------------------------------------------------------------------

#: Sentinel pseudo-node standing for the program's ``End``: the unique
#: exit every weak-slice "first relevant element" computation bottoms
#: out at, and the point where the return expression's pseudo-use
#: lives.
END = -1


def node_def(node: Node) -> Optional[str]:
    """The variable ``node`` defines, if any (``Decl`` counts: it
    assigns the type's default value)."""
    stmt = node.stmt
    if isinstance(stmt, (Decl, Assign, Sample)):
        return stmt.name
    return None


def node_uses(node: Node) -> FrozenSet[str]:
    """The variables ``node`` reads: condition variables for branch /
    loop / observe nodes, right-hand sides otherwise."""
    if node.kind in ("branch", "loop"):
        return free_vars(node.cond)
    stmt = node.stmt
    if isinstance(stmt, Observe):
        return free_vars(stmt.cond)
    if isinstance(stmt, ObserveSample):
        return free_vars(stmt.dist) | free_vars(stmt.value)
    if isinstance(stmt, Factor):
        return free_vars(stmt.log_weight)
    if isinstance(stmt, Assign):
        return free_vars(stmt.expr)
    if isinstance(stmt, Sample):
        return free_vars(stmt.dist)
    return frozenset()  # Decl


class ReachingDefinitions(DataflowProblem[FrozenSet[Tuple[str, int]]]):
    """Classic forward gen/kill reaching definitions over ``(var,
    def-node)`` pairs.  No SSA required: a definition kills every other
    definition of the same variable within its path.

    :meth:`transfer` is the specification, one node at a time; it
    rebuilds the whole set at each definition, so folding it over a
    straight-line block of ``n`` definitions costs O(n²).
    :meth:`transfer_block` gives the same value in one pass: a block
    lets out exactly its last definition of each variable it defines,
    plus every incoming pair whose variable it does not define."""

    direction = "forward"

    def boundary(self) -> FrozenSet[Tuple[str, int]]:
        return frozenset()

    def initial(self) -> FrozenSet[Tuple[str, int]]:
        return frozenset()

    def join(
        self, a: FrozenSet[Tuple[str, int]], b: FrozenSet[Tuple[str, int]]
    ) -> FrozenSet[Tuple[str, int]]:
        return a | b

    def transfer(
        self, node: Node, value: FrozenSet[Tuple[str, int]]
    ) -> FrozenSet[Tuple[str, int]]:
        target = node_def(node)
        if target is None:
            return value
        return frozenset(
            (v, d) for v, d in value if v != target
        ) | {(target, node.id)}

    def transfer_block(
        self, nodes: Sequence[Node], value: FrozenSet[Tuple[str, int]]
    ) -> FrozenSet[Tuple[str, int]]:
        last: Dict[str, int] = {}
        for node in nodes:
            target = node_def(node)
            if target is not None:
                last[target] = node.id
        if not last:
            return value
        return frozenset(
            [(v, d) for v, d in value if v not in last]
        ).union(last.items())


@dataclass(frozen=True)
class CfgDataDeps:
    """Node-level data dependence for a lowered program.

    ``deps[n]`` is the set of definition nodes whose value node ``n``
    may read; ``ret_deps`` is the same for the return expression's
    pseudo-use at ``End``.  ``defs`` / ``uses`` are per-node def/use
    summaries shared with the slicer's extraction step.
    """

    deps: Mapping[int, FrozenSet[int]]
    ret_deps: FrozenSet[int]
    defs: Mapping[int, Optional[str]] = field(default_factory=dict)
    uses: Mapping[int, FrozenSet[str]] = field(default_factory=dict)


def data_dependence(lowered) -> CfgDataDeps:
    """Reaching-definitions-based data dependence for every node of
    ``lowered.cfg``, plus the return expression's dependences at exit.

    ``lowered`` is a :class:`repro.ir.lower.Lowered`; for a bare
    statement (``ret is None``) ``ret_deps`` is empty.

    Each block is replayed from its fixpoint entry value through a
    variable → reaching-definitions map, built once per block: a node
    reads the entries of its used variables, and a definition replaces
    its variable's entry.  A node thus costs O(|uses|) rather than the
    size of the reaching set, and ``deps`` equals what replaying
    :meth:`ReachingDefinitions.transfer` node by node gives.
    """
    cfg: CFG = lowered.cfg
    solution = solve(cfg, ReachingDefinitions())
    defs: Dict[int, Optional[str]] = {}
    uses: Dict[int, FrozenSet[str]] = {}
    deps: Dict[int, FrozenSet[int]] = {}
    for block in cfg.blocks:
        if not block.nodes:
            continue
        reaching: Dict[str, Set[int]] = {}
        for v, d in solution.block_in[block.id]:
            reaching.setdefault(v, set()).add(d)
        for node_id in block.nodes:
            node = cfg.nodes[node_id]
            used = node_uses(node)
            target = node_def(node)
            defs[node_id] = target
            uses[node_id] = used
            read: Set[int] = set()
            for v in used:
                read.update(reaching.get(v, ()))
            deps[node_id] = frozenset(read)
            if target is not None:
                reaching[target] = {node_id}
    ret_deps: FrozenSet[int] = frozenset()
    if lowered.ret is not None:
        ret_vars = free_vars(lowered.ret)
        ret_deps = frozenset(
            d for v, d in solution.block_in[cfg.exit] if v in ret_vars
        )
    return CfgDataDeps(deps=deps, ret_deps=ret_deps, defs=defs, uses=uses)


def first_relevant(
    cfg: CFG, relevant: AbstractSet[int]
) -> Dict[int, FrozenSet[int]]:
    """For every block, the set of possible *first* elements of
    ``relevant ∪ {END}`` met on paths starting at the block's entry.

    This is the weak-postdomination query of the AB theory: a node set
    "provides next observables" iff from every branch node the
    successor blocks' first-sets coincide.  The backward union
    fixpoint starts from ``{END}`` at the exit block; structured
    lowering keeps the exit reachable from every block, so every
    fixpoint set is non-empty.
    """
    local: Dict[int, Optional[int]] = {}
    for block in cfg.blocks:
        found: Optional[int] = None
        for node_id in block.nodes:
            if node_id in relevant:
                found = node_id
                break
        local[block.id] = found
    first: Dict[int, FrozenSet[int]] = {b.id: frozenset() for b in cfg.blocks}
    exit_local = local[cfg.exit]
    first[cfg.exit] = frozenset(
        [END if exit_local is None else exit_local]
    )
    changed = True
    while changed:
        changed = False
        # Reverse creation order approximates reverse topological order
        # on the structured graphs lowering emits, so the backward
        # fixpoint converges in very few sweeps.
        for block in reversed(cfg.blocks):
            if block.id == cfg.exit:
                continue
            if local[block.id] is not None:
                value = frozenset([local[block.id]])
            else:
                acc: set = set()
                for succ in block.succ:
                    acc |= first[succ]
                value = frozenset(acc)
            if value != first[block.id]:
                first[block.id] = value
                changed = True
    return first


def weak_slice_closure(
    cfg: CFG, dd: CfgDataDeps, seeds: AbstractSet[int]
) -> FrozenSet[int]:
    """The least weak slice set containing ``seeds``.

    Alternates two closures to a joint fixpoint:

    * **data dependence** — pull in every definition node a member may
      read (``dd.deps``);
    * **next observables** — recompute :func:`first_relevant` and
      promote any branch/loop node whose successor first-sets
      *differ*.  Comparing successor sets (rather than the size of
      their union) is what keeps the result least: a branch whose two
      arms reach the same ambiguous deeper structure is innocent — the
      deeper branch is promoted, after which the shallower first-sets
      collapse to the same singleton.
    """
    q: set = set(seeds)

    def data_close() -> None:
        stack = list(q)
        while stack:
            n = stack.pop()
            for d in dd.deps.get(n, ()):
                if d not in q:
                    q.add(d)
                    stack.append(d)

    data_close()
    while True:
        first = first_relevant(cfg, q)
        promoted = set()
        for block in cfg.blocks:
            branch = cfg.branch_node_of_block(block.id)
            if branch is None or branch in q:
                continue
            succ_sets = [first[s] for s in block.succ]
            if any(s != succ_sets[0] for s in succ_sets[1:]):
                promoted.add(branch)
        if not promoted:
            return frozenset(q)
        q |= promoted
        data_close()


def conditioning_nodes(lowered) -> Tuple[int, ...]:
    """Nodes that condition the program's output distribution, in
    creation order: hard observes, soft observations, factors, and
    loop headers (the semantics normalizes over terminating runs, so a
    loop condition conditions like an observation)."""
    out: List[int] = []
    for node in lowered.cfg.iter_nodes():
        if node.kind == "loop" or isinstance(
            node.stmt, (Observe, ObserveSample, Factor)
        ):
            out.append(node.id)
    return tuple(out)
