"""Block-level reaching definitions against the per-node specification.

``ReachingDefinitions.transfer_block`` (one kill pass per block) and the
per-variable replay in ``data_dependence`` are the fast path.  The
specification is ``ReachingDefinitions.transfer`` folded node by node:
the solver's block values and the data dependences it gives must be
equal, on generated programs with branches and loops, the qa corpus,
the bench-scale Table-1 models and an 800-game Chess tournament.
"""

from __future__ import annotations

import random
from itertools import islice
from pathlib import Path
from typing import Dict, FrozenSet, Optional

import pytest

from repro.core.freevars import free_vars
from repro.ir import (
    CfgDataDeps,
    DataflowProblem,
    ReachingDefinitions,
    data_dependence,
    lower,
    node_def,
    node_uses,
    solve,
)
from repro.models import chess_model, tournament_data
from repro.models.registry import TABLE1
from repro.qa.generate import iter_corpus, program_stream
from repro.semantics.liveness import LivenessProblem

CORPUS = Path(__file__).resolve().parent.parent / "qa_corpus"


class PerNodeReachingDefinitions(ReachingDefinitions):
    """Reaching definitions through the default per-node fold."""

    transfer_block = DataflowProblem.transfer_block


def reference_data_dependence(lowered) -> CfgDataDeps:
    """Data dependence by replaying ``transfer`` node by node from the
    per-node fixpoint: the specification ``data_dependence`` meets."""
    cfg = lowered.cfg
    solution = solve(cfg, PerNodeReachingDefinitions())
    defs: Dict[int, Optional[str]] = {}
    uses: Dict[int, FrozenSet[str]] = {}
    deps: Dict[int, FrozenSet[int]] = {}
    for block in cfg.blocks:
        incoming = solution.block_in[block.id]
        for node_id in block.nodes:
            node = cfg.nodes[node_id]
            used = node_uses(node)
            defs[node_id] = node_def(node)
            uses[node_id] = used
            deps[node_id] = frozenset(d for v, d in incoming if v in used)
            incoming = solution.problem.transfer(node, incoming)
    ret_deps: FrozenSet[int] = frozenset()
    if lowered.ret is not None:
        ret_vars = free_vars(lowered.ret)
        ret_deps = frozenset(
            d for v, d in solution.block_in[cfg.exit] if v in ret_vars
        )
    return CfgDataDeps(deps=deps, ret_deps=ret_deps, defs=defs, uses=uses)


def assert_matches_per_node_fold(program):
    lowered = lower(program)
    fast = solve(lowered.cfg, ReachingDefinitions())
    slow = solve(lowered.cfg, PerNodeReachingDefinitions())
    assert fast.block_in == slow.block_in
    assert fast.block_out == slow.block_out
    got = data_dependence(lowered)
    want = reference_data_dependence(lowered)
    assert got.deps == want.deps
    assert got.ret_deps == want.ret_deps
    assert got == want


def _has(program, kind):
    return any(n.kind == kind for n in lower(program).cfg.iter_nodes())


def test_generated_programs_with_branches_and_loops():
    programs = [p for _, p in islice(program_stream(20260417), 300)]
    # The stream must exercise the multi-block cases, not just chains.
    assert sum(_has(p, "branch") for p in programs) >= 50
    assert sum(_has(p, "loop") for p in programs) >= 50
    for program in programs:
        assert_matches_per_node_fold(program)


def test_qa_corpus():
    entries = list(iter_corpus(CORPUS))
    assert entries
    for _path, program in entries:
        assert_matches_per_node_fold(program)


@pytest.mark.parametrize("spec", TABLE1, ids=lambda spec: spec.name)
def test_bench_scale_table1(spec):
    assert_matches_per_node_fold(spec.bench())


def test_chess_800_games():
    # The per-node reference is quadratic in a straight-line block, so
    # paper-scale Chess (2926 games) would take tens of seconds here;
    # its AB slice is pinned by hash in tests/passes/test_golden.py.
    n_divisions = 800 // 12
    data = tournament_data(3 * n_divisions, 800, n_divisions, seed=7)
    assert_matches_per_node_fold(chess_model(n_returned=2, data=data))


def test_block_transfer_equals_fold_on_every_block():
    problem = ReachingDefinitions()
    rng = random.Random(5)
    for _, program in islice(program_stream(99), 60):
        cfg = lower(program).cfg
        for block in cfg.blocks:
            nodes = [cfg.nodes[i] for i in block.nodes]
            incoming = frozenset(
                (v, rng.randrange(len(cfg.nodes)))
                for v in ("b0", "b1", "i0", "x")
                if rng.random() < 0.6
            )
            folded = incoming
            for node in nodes:
                folded = problem.transfer(node, folded)
            assert problem.transfer_block(nodes, incoming) == folded


def test_default_block_transfer_folds_backward_problems_in_reverse():
    # Liveness keeps the default hook: the fold, last node first.
    assert LivenessProblem.transfer_block is DataflowProblem.transfer_block
    problem = LivenessProblem(frozenset({"x"}))
    for _, program in islice(program_stream(7), 40):
        cfg = lower(program).cfg
        for block in cfg.blocks:
            nodes = [cfg.nodes[i] for i in block.nodes]
            live = frozenset({"b0", "i1"})
            folded = live
            for node in reversed(nodes):
                folded = problem.transfer(node, folded)
            assert problem.transfer_block(nodes, live) == folded
