"""Synthetic K-independent-components family (factorisation stressor).

``k_components_model(k)`` emits ``k`` statically independent blocks:
each block is a small Bernoulli chain conditioned by one hard observe
whose acceptance probability is ``accept`` (default 0.5), and the
program returns the conjunction of one query variable per block.  No
statement of one block mentions a variable of another, so the
factorisation pass splits the program into exactly ``k`` factors.

The family is the worst case for monolithic rejection sampling and the
best case for shard-by-factor inference: a monolithic rejection run
accepts with probability ``accept**k`` (exponentially small in ``k``),
while the factored run pays ``accept`` per factor independently, so
factored throughput is expected to beat monolithic for every ``k >= 2``
— which ``benchmarks/bench_factored.py`` asserts.

Not part of :data:`repro.models.registry.TABLE1` (it is not a paper
benchmark); that bench and the qa campaign use it directly.
"""

from __future__ import annotations

from typing import Optional

from ..core.ast import Expr, Program
from ..core.builder import ProgramBuilder, v

__all__ = ["k_components_model"]


def k_components_model(
    k: int,
    chain: int = 3,
    accept: float = 0.5,
    seed: Optional[int] = None,
) -> Program:
    """Build the ``k``-independent-components program.

    Each component ``i`` contributes a length-``chain`` chain of
    Bernoulli samples/assignments, one observe accepting with
    probability ``accept``, and one query variable; the return value is
    the AND-fold of the query variables.  ``seed`` is accepted for
    signature uniformity with the other model generators but unused —
    the program is deterministic in its shape parameters.
    """
    del seed
    if k < 1:
        raise ValueError("k must be >= 1")
    if chain < 1:
        raise ValueError("chain must be >= 1")
    if not 0.0 < accept <= 1.0:
        raise ValueError("accept must be in (0, 1]")
    b = ProgramBuilder()
    queries = []
    for i in range(k):
        gate = b.sample(f"bc{i}_gate", "Bernoulli", accept)
        prev = gate
        for j in range(chain):
            node = b.sample(f"bc{i}_n{j}", "Bernoulli", 0.7)
            mixed = b.assign(f"bc{i}_m{j}", prev & node)
            prev = mixed
        b.observe(gate)
        queries.append(prev)
    ret: Expr = queries[0]
    for q in queries[1:]:
        ret = ret & q
    return b.build(ret)
