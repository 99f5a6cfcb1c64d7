"""Trace MH with global resimulation moves — the "Church-like" engine.

Church [Goodman et al., 2008] runs MCMC over a *interpreted* Scheme
program.  We model it as the same lightweight trace MH as the R2-like
engine, with two documented differences (DESIGN.md §3):

* an **interpretation overhead factor**: every proposal re-executes
  the program ``overhead`` times, modelling the constant-factor cost
  of interpreting a dynamically-typed host language.  Together with a
  wall-clock ``time_budget`` this reproduces Figure 18's "Church does
  not terminate on the original HIV/Halo programs" rows as timeouts;
* occasional **global resimulation moves** (probability
  ``global_move_prob``): an independence proposal that regenerates
  the entire trace from the prior, accepted with
  ``min(1, exp(loglik' - loglik))``.

Like the real system, it does not support the Gamma distribution —
the Bayesian-linear-regression column of Figure 18 is therefore
absent for this engine.
"""

from __future__ import annotations

import random
from typing import Optional

from ..core.ast import Program
from ..obs.recorder import current_recorder
from ..semantics.executor import RunResult
from ..semantics.incremental import OVERHEAD
from .base import InferenceResult, UnsupportedProgramError
from .features import distributions_used
from .mh import MetropolisHastings

__all__ = ["ChurchTraceMH"]

NEG_INF = float("-inf")

#: Distributions the emulated engine refuses (Figure 18: "Church does
#: not support the Gamma distribution").
_UNSUPPORTED = frozenset({"Gamma"})


class ChurchTraceMH(MetropolisHastings):
    """Church-emulating trace MH; see module docstring."""

    name = "church-mh"

    def __init__(
        self,
        n_samples: int = 5_000,
        burn_in: int = 500,
        thin: int = 1,
        seed: int = 0,
        global_move_prob: float = 0.1,
        overhead: int = 3,
        **kwargs,
    ) -> None:
        super().__init__(
            n_samples=n_samples,
            burn_in=burn_in,
            thin=thin,
            seed=seed,
            global_move_prob=global_move_prob,
            **kwargs,
        )
        if overhead < 1:
            raise ValueError("overhead must be >= 1")
        self.overhead = overhead

    def _vectorize(self, program):
        # This engine models an *interpreted* host; the array backend
        # would erase the overhead factor the emulation exists to
        # charge, so church-mh always takes the scalar path (a truthy
        # ``compiled`` still routes those runs through the closure
        # backend).
        return None

    def _incremental(self, program):
        # Every proposal re-executes the whole program: the overhead
        # factor models an interpreted host's re-execution cost.
        current_recorder().counter(f"mh.incremental.fallback.{OVERHEAD}")
        return None

    def _execute(self, program, rng, base_trace, result: InferenceResult) -> RunResult:
        # Interpretation overhead: re-run the executor redundantly so
        # per-proposal cost scales like an interpreted host's would.
        # The extra runs replay the *produced* trace, so the sampled
        # values are identical and only work is added.
        run = self._run_program(
            program, rng, base_trace=base_trace, options=self.executor_options
        )
        result.statements_executed += run.statements_executed
        for _ in range(self.overhead - 1):
            replay = self._run_program(
                program, rng, base_trace=run.trace, options=self.executor_options
            )
            result.statements_executed += replay.statements_executed
        return run

    def infer(self, program: Program) -> InferenceResult:
        unsupported = distributions_used(program) & _UNSUPPORTED
        if unsupported:
            raise UnsupportedProgramError(
                f"{self.name} does not support: {', '.join(sorted(unsupported))}"
            )
        return super().infer(program)
