"""Single-site lightweight Metropolis–Hastings over traces — the
"R2-like" engine.

R2 performs MCMC sampling over an imperative probabilistic language
[Nori et al.]; the single-site trace MH of Wingate et al. (2011) is
the same algorithmic family and reacts to slicing the same way: mixing
degrades with every nuisance sample site the slicer failed to remove,
and on the interpreter each proposal re-executes the whole program
(cost ∝ program size), the cost model of the paper's Figure 18.

Proposal: pick a site uniformly, resample it from its prior (under the
current upstream parameters), re-execute reusing the rest of the
trace.  A replayed value that lost its mass under its new parameters
blocks the run, so the proposal is rejected.  Acceptance
(fresh/stale prior terms included)::

    log a = logjoint' - logjoint + log|m| - log|m'| + R - F

where ``F`` is the forward proposal mass (fresh draws of the chosen
site plus sites only present in the new trace) and ``R`` the reverse
one.  With probability ``global_move_prob`` a proposal instead
regenerates the whole trace from the prior.

On the closure backend, a program whose lowered region tree is
straight-line takes the incremental path
(:mod:`repro.semantics.incremental`): a single-site move re-runs only
the moved site's dependence cone and re-folds the likelihood, with the
same random draws, the same ``log a`` and so the same chain as the full
re-run; ``statements_executed`` counts the cone's statements.  Global
moves, initialization and the annealer's re-scoring stay full runs.
Every other case re-runs the whole program and counts, once per
``infer`` call, ``mh.incremental.fallback.<reason>``: ``interpreter``,
``overhead`` (church-mh) or ``control-flow``; the incremental path
counts ``mh.incremental.used``.
"""

from __future__ import annotations

import copy
import math
import random
import time
from typing import List, Optional, Sequence

from ..core.ast import Program
from ..obs.recorder import current_recorder
from ..semantics.executor import (
    ExecutorOptions,
    NonTerminatingRun,
    RunResult,
)
from ..semantics.incremental import INTERPRETER, ConePlan, NotIncremental
from ..semantics.trace import TraceEntry
from .base import (
    Engine,
    InferenceResult,
    InferenceTimeout,
    InitializationError,
)

__all__ = ["MetropolisHastings"]

NEG_INF = float("-inf")


class MetropolisHastings(Engine):
    """Single-site trace MH.

    ``n_samples`` return-value samples are recorded after ``burn_in``
    accepted-or-rejected steps, thinned by ``thin``.  ``time_budget``
    (seconds) raises :class:`InferenceTimeout` when exceeded, which the
    harness reports as a non-terminating configuration.
    """

    name = "r2-mh"
    parallel_unit = "chains"

    def __init__(
        self,
        n_samples: int = 5_000,
        burn_in: int = 500,
        thin: int = 1,
        seed: int = 0,
        max_init_attempts: int = 1_000,
        anneal_rounds: int = 30,
        anneal_steps_per_site: int = 25,
        global_move_prob: float = 0.05,
        time_budget: Optional[float] = None,
        executor_options: ExecutorOptions = ExecutorOptions(),
        compiled: "bool | str" = False,
        batch_chains: int = 64,
    ) -> None:
        if n_samples <= 0:
            raise ValueError("n_samples must be positive")
        if thin <= 0:
            raise ValueError("thin must be positive")
        if not 0.0 <= global_move_prob <= 1.0:
            raise ValueError("global_move_prob must be in [0, 1]")
        if batch_chains <= 0:
            raise ValueError("batch_chains must be positive")
        self.n_samples = n_samples
        self.burn_in = burn_in
        self.thin = thin
        self.seed = seed
        self.max_init_attempts = max_init_attempts
        self.anneal_rounds = anneal_rounds
        self.anneal_steps_per_site = anneal_steps_per_site
        self.global_move_prob = global_move_prob
        self.time_budget = time_budget
        self.executor_options = executor_options
        self.compiled = compiled
        #: Lockstep chains per vectorized step under ``compiled="numpy"``
        #: (capped at ``n_samples``); each records its
        #: :func:`~repro.inference.base.split_evenly` share of the total.
        self.batch_chains = batch_chains
        self._deadline: Optional[float] = None
        #: The cone plan while an ``infer`` call takes the incremental
        #: path, else None (also between calls, so an engine keeps no
        #: plan alive).
        self._plan: Optional[ConePlan] = None

    def shard(self, n_shards: int, seeds: Sequence[int]) -> List["Engine"]:
        """Independent chains: each shard runs a full burn-in plus its
        share of ``n_samples``, seeded from its own stream.  The
        Church-like subclass inherits this unchanged (``copy.copy``
        carries ``overhead`` and every other setting along)."""
        from .base import split_evenly

        shards: List[Engine] = []
        for size, seed in zip(split_evenly(self.n_samples, n_shards), seeds):
            if size == 0:
                continue
            shard = copy.copy(self)
            shard.n_samples = size
            shard.seed = seed
            shard._deadline = None
            shard._plan = None
            shards.append(shard)
        return shards

    # -- hooks the Church-like engine overrides -------------------------------

    def _execute(self, program, rng, base_trace, result: InferenceResult) -> RunResult:
        if self._plan is not None:
            # A recorded full run: the state cone steps start from.
            run = self._plan.run(rng, base_trace, self.executor_options)
        else:
            run = self._run_program(
                program, rng, base_trace=base_trace, options=self.executor_options
            )
        result.statements_executed += run.statements_executed
        return run

    def _incremental(self, program: Program) -> Optional[ConePlan]:
        """The cone plan single-site moves take in this ``infer`` call,
        or None; counts which, once per call."""
        recorder = current_recorder()
        if not self.compiled:
            reason = INTERPRETER
        else:
            from ..semantics.compiled import compile_program

            try:
                plan = compile_program(program).cone_plan()
            except NotIncremental as exc:
                reason = exc.reason
            else:
                recorder.counter("mh.incremental.used")
                return plan
        recorder.counter(f"mh.incremental.fallback.{reason}")
        return None

    def _step(
        self, rng: random.Random, current: RunResult, site: int, value,
        result: InferenceResult,
    ) -> RunResult:
        """Move one site along the cone plan."""
        assert self._plan is not None
        proposal = self._plan.step(site, rng, current, value, self.executor_options)
        result.statements_executed += proposal.statements_executed
        return proposal

    def _propose(
        self,
        program: Program,
        rng: random.Random,
        current: RunResult,
        result: InferenceResult,
    ) -> Optional[RunResult]:
        """One proposal; returns the new state if accepted, else None.

        With probability ``global_move_prob`` the proposal regenerates
        the whole trace from the prior (an independence move; prior
        terms cancel, leaving the likelihood ratio).  Global moves keep
        the chain ergodic on programs where a hard constraint couples
        sites that single-site updates can only change together — e.g.
        the paper's loopy Example 6, where the return flag and the loop
        parity must flip jointly.
        """
        if rng.random() < self.global_move_prob:
            return self._propose_global(program, rng, current, result)
        if self._plan is not None:
            # Static site set: the sites are the plan's, in trace order,
            # and the new/dropped-site loops below would add nothing.
            sites = self._plan.addrs
            if not sites:
                return None
            site = rng.randrange(len(sites))
            addr = sites[site]
            proposal = self._step(rng, current, site, None, result)
            if proposal.log_joint == NEG_INF:
                return None
            forward = proposal.trace[addr].log_prior
            reverse = current.trace[addr].log_prior
            m_new = len(sites)
        else:
            sites = list(current.trace)
            if not sites:
                return None
            addr = sites[rng.randrange(len(sites))]
            base = dict(current.trace)
            del base[addr]
            try:
                proposal = self._execute(program, rng, base, result)
            except NonTerminatingRun:
                return None
            if proposal.blocked or proposal.log_joint == NEG_INF:
                return None
            forward = 0.0
            reverse = current.trace[addr].log_prior
            if addr in proposal.trace:
                forward += proposal.trace[addr].log_prior
            for a, entry in proposal.trace.items():
                if a not in current.trace and a != addr:
                    forward += entry.log_prior
            for a, entry in current.trace.items():
                if a not in proposal.trace and a != addr:
                    reverse += entry.log_prior
            m_new = len(proposal.trace) if proposal.trace else 1
        log_alpha = (
            proposal.log_joint
            - current.log_joint
            + math.log(len(sites))
            - math.log(m_new)
            + reverse
            - forward
        )
        if log_alpha >= 0.0 or math.log(rng.random()) < log_alpha:
            return proposal
        return None

    def _propose_global(
        self,
        program: Program,
        rng: random.Random,
        current: RunResult,
        result: InferenceResult,
    ) -> Optional[RunResult]:
        """Independence proposal: resimulate everything from the prior."""
        try:
            proposal = self._execute(program, rng, None, result)
        except NonTerminatingRun:
            return None
        if proposal.blocked:
            return None
        log_alpha = proposal.log_likelihood - current.log_likelihood
        if log_alpha >= 0.0 or math.log(rng.random()) < log_alpha:
            return proposal
        return None

    # -- main loop -------------------------------------------------------------

    def _initialize(
        self, program: Program, rng: random.Random, result: InferenceResult
    ) -> RunResult:
        for attempt in range(self.max_init_attempts):
            if attempt % 64 == 0:
                self._check_deadline("initialization")
            try:
                run = self._execute(program, rng, None, result)
            except NonTerminatingRun:
                continue
            if not run.blocked and run.log_joint > NEG_INF:
                return run
        return self._annealed_initialize(program, rng, result)

    def _annealed_initialize(
        self, program: Program, rng: random.Random, result: InferenceResult
    ) -> RunResult:
        """Find a constraint-satisfying trace by annealing.

        Hard observes are relaxed to a per-violation penalty
        (``ExecutorOptions.observe_penalty``); single-site MH on the
        relaxed target with a doubling penalty schedule walks the chain
        into the feasible region.  This plays the role of R2's
        analysis-guided initialization for constraint-heavy models
        (TrueSkill: thousands of ``observe(perfA > perfB)``).
        """
        saved_options = self.executor_options
        try:
            penalty = 1.0
            current: Optional[RunResult] = None
            best_violations = float("inf")
            stall = 0
            for _ in range(self.anneal_rounds):
                self.executor_options = ExecutorOptions(
                    max_loop_iterations=saved_options.max_loop_iterations,
                    observe_penalty=penalty,
                )
                if current is None:
                    current = self._execute(program, rng, None, result)
                else:
                    # Re-score the trace under the new penalty.
                    current = self._execute(program, rng, current.trace, result)
                if current.blocked:
                    current = None
                    continue
                steps = max(
                    1, self.anneal_steps_per_site * max(1, len(current.trace))
                )
                for step in range(steps):
                    if current.violations == 0:
                        break
                    if step % 64 == 0:
                        self._check_deadline("annealed initialization")
                    if rng.random() < 0.5:
                        accepted = self._propose(program, rng, current, result)
                    else:
                        accepted = self._propose_walk(program, rng, current, result)
                    if accepted is not None:
                        current = accepted
                if current.violations == 0:
                    # Re-execute strictly to confirm and re-score.
                    self.executor_options = saved_options
                    strict = self._execute(program, rng, current.trace, result)
                    if not strict.blocked and strict.log_joint > NEG_INF:
                        return strict
                # Cyclic schedule: a monotone penalty freezes the chain
                # in local minima; when no progress is made for a few
                # rounds, re-melt (drop the penalty back to 1) and
                # sometimes restart from a fresh prior draw.
                if current.violations < best_violations:
                    best_violations = current.violations
                    stall = 0
                    penalty *= 2.0
                else:
                    stall += 1
                    if stall >= 3:
                        penalty = 1.0
                        stall = 0
                        best_violations = current.violations
                        if rng.random() < 0.5:
                            current = None
                    else:
                        penalty *= 2.0
            raise InitializationError(
                "annealed initialization failed to satisfy all observations"
            )
        finally:
            self.executor_options = saved_options

    def _propose_walk(
        self,
        program: Program,
        rng: random.Random,
        current: RunResult,
        result: InferenceResult,
    ) -> Optional[RunResult]:
        """A random-walk perturbation of one continuous site.

        Only used during annealed initialization, where the kernel just
        needs to explore the penalized landscape — detailed balance is
        not required of an initializer.
        """
        sites = [
            a for a, e in current.trace.items() if isinstance(e.value, float)
        ]
        if not sites:
            return self._propose(program, rng, current, result)
        addr = sites[rng.randrange(len(sites))]
        entry = current.trace[addr]
        scale = 0.25 * (abs(entry.value) + 1.0)
        value = entry.value + rng.gauss(0.0, scale)
        if self._plan is not None:
            proposal = self._step(rng, current, self._plan.index[addr], value, result)
        else:
            base = dict(current.trace)
            base[addr] = TraceEntry(value, 0.0, entry.dist_name)
            try:
                proposal = self._execute(program, rng, base, result)
            except NonTerminatingRun:
                return None
        if proposal.blocked or proposal.log_joint == NEG_INF:
            return None
        log_alpha = proposal.log_joint - current.log_joint
        if log_alpha >= 0.0 or math.log(rng.random()) < log_alpha:
            return proposal
        return None

    def _check_deadline(self, context: str) -> None:
        if self._deadline is not None and time.perf_counter() > self._deadline:
            raise InferenceTimeout(
                f"{self.name} exceeded its {self.time_budget:.1f}s budget "
                f"during {context}"
            )

    def infer(self, program: Program) -> InferenceResult:
        vectorized = self._vectorize(program)
        self._plan = self._incremental(program)
        try:
            if vectorized is not None:
                return self._infer_numpy(program, vectorized)
            return self._infer_scalar(program)
        finally:
            self._plan = None

    def _infer_scalar(self, program: Program) -> InferenceResult:
        rng = random.Random(self.seed)
        result = InferenceResult()
        rec = current_recorder()
        start = time.perf_counter()
        self._deadline = (
            None if self.time_budget is None else start + self.time_budget
        )
        current = self._initialize(program, rng, result)
        total_steps = self.burn_in + self.n_samples * self.thin
        for step in range(total_steps):
            if step % 64 == 0:
                self._check_deadline(f"step {step} of {total_steps}")
                if rec.enabled:
                    rec.progress(
                        self.name,
                        step,
                        total_steps,
                        accept_rate=result.n_accepted / max(1, result.n_proposals),
                    )
            result.n_proposals += 1
            accepted = self._propose(program, rng, current, result)
            if accepted is not None:
                current = accepted
                result.n_accepted += 1
            if step >= self.burn_in and (step - self.burn_in) % self.thin == 0:
                result.samples.append(current.value)
        result.elapsed_seconds = time.perf_counter() - start
        if rec.enabled:
            rec.progress(
                self.name,
                total_steps,
                total_steps,
                accept_rate=result.n_accepted / max(1, result.n_proposals),
            )
            rec.counter("engine.proposals", result.n_proposals)
            rec.counter("engine.samples", len(result.samples))
        return result

    def _infer_numpy(self, program: Program, vectorized) -> InferenceResult:
        """Array-backend MH: a batch of independent chains advances in
        lockstep, one vectorized program run per step, with a per-chain
        accept mask.

        Initialization is the scalar path (one chain's worth of
        annealing machinery), replicated across all lanes; from there
        every lane applies the scalar single-site/global kernel
        element-wise — same site-choice distribution, same acceptance
        ratio term for term — so each lane is marginally the scalar
        chain (on a PCG64 stream instead of the Mersenne one).  Each
        chain records its :func:`split_evenly` share of ``n_samples``
        and the per-chain streams land in ``result.chains``.
        """
        import numpy as np

        from ..dists.batched import BATCHED
        from ..runtime.parallel import numpy_generator
        from .base import split_evenly

        rec = current_recorder()
        result = InferenceResult()
        start = time.perf_counter()
        self._deadline = (
            None if self.time_budget is None else start + self.time_budget
        )
        rng = random.Random(self.seed)
        current = self._initialize(program, rng, result)

        B = min(self.batch_chains, self.n_samples)
        gen = numpy_generator(self.seed, "mh")
        sites = vectorized.sites
        S = len(sites)
        # Chain state: one (B,) column per static site (value, prior
        # log-density, presence), all lanes starting from the scalar
        # initializer's trace.
        vals: List[np.ndarray] = []
        lps: List[np.ndarray] = []
        pres: List[np.ndarray] = []
        for site in sites:
            entry = current.trace.get(site.addr)
            dtype = BATCHED[site.dist_name].dtype
            if entry is not None and entry.dist_name == site.dist_name:
                vals.append(np.full(B, entry.value, dtype=dtype))
                lps.append(np.full(B, entry.log_prior, dtype=np.float64))
                pres.append(np.ones(B, dtype=np.bool_))
            else:
                vals.append(np.zeros(B, dtype=dtype))
                lps.append(np.zeros(B, dtype=np.float64))
                pres.append(np.zeros(B, dtype=np.bool_))
        cur_ll = np.full(B, current.log_likelihood)
        cur_joint = np.full(B, current.log_joint)
        if isinstance(current.value, tuple):
            cur_value = tuple(np.full(B, v) for v in current.value)
        else:
            cur_value = np.full(B, current.value)

        quotas = split_evenly(self.n_samples, B)
        chains: List[List[object]] = [[] for _ in range(B)]
        total_steps = self.burn_in + max(quotas) * self.thin
        for step in range(total_steps):
            if step % 64 == 0:
                self._check_deadline(f"step {step} of {total_steps}")
                if rec.enabled:
                    rec.progress(
                        self.name,
                        step,
                        total_steps,
                        accept_rate=result.n_accepted
                        / max(1, result.n_proposals),
                    )
            gmask = gen.random(B) < self.global_move_prob
            if S:
                pres_mat = np.stack(pres)
                counts = pres_mat.sum(axis=0)
                # Uniform site choice via the presence-cumsum trick:
                # `order[s]` is the site's rank among the lane's
                # present sites, `pick` the target rank.
                pick = np.floor(
                    gen.random(B) * np.maximum(counts, 1)
                ).astype(np.int64)
                order = np.cumsum(pres_mat, axis=0) - pres_mat
                chosen = pres_mat & (order == pick) & ~gmask & (counts > 0)
                base_present = [
                    pres[s] & ~chosen[s] & ~gmask for s in range(S)
                ]
            else:
                counts = np.zeros(B, dtype=np.int64)
                chosen = np.zeros((0, B), dtype=np.bool_)
                base_present = []
            batch = vectorized.run_batch(gen, B, base=(vals, base_present))
            result.statements_executed += int(batch.statements.sum())
            prop_joint = batch.log_joints()
            with np.errstate(invalid="ignore", divide="ignore"):
                if S:
                    forward = np.zeros(B)
                    reverse = np.zeros(B)
                    m_new = np.zeros(B, dtype=np.int64)
                    for s in range(S):
                        new_p = batch.site_present[s]
                        forward += np.where(
                            new_p & (chosen[s] | ~pres[s]),
                            batch.site_log_priors[s],
                            0.0,
                        )
                        reverse += np.where(
                            pres[s] & (chosen[s] | ~new_p), lps[s], 0.0
                        )
                        m_new += new_p
                    log_alpha_site = (
                        prop_joint
                        - cur_joint
                        + np.log(np.maximum(counts, 1))
                        - np.log(np.maximum(m_new, 1))
                        + reverse
                        - forward
                    )
                else:
                    log_alpha_site = np.full(B, NEG_INF)
                log_alpha = np.where(
                    gmask, batch.log_likelihood - cur_ll, log_alpha_site
                )
                # NaN compares False on both sides: natural rejection,
                # as in the scalar kernel.
                accept = (log_alpha >= 0.0) | (np.log(gen.random(B)) < log_alpha)
            accept &= ~batch.blocked
            # Site moves need a site to move (scalar: empty trace
            # proposes nothing) and a finite proposal joint.
            accept &= gmask | ((counts > 0) & (prop_joint > NEG_INF))
            result.n_proposals += B
            n_acc = int(accept.sum())
            result.n_accepted += n_acc
            if n_acc:
                cur_ll = np.where(accept, batch.log_likelihood, cur_ll)
                cur_joint = np.where(accept, prop_joint, cur_joint)
                for s in range(S):
                    vals[s] = np.where(accept, batch.site_values[s], vals[s])
                    lps[s] = np.where(
                        accept, batch.site_log_priors[s], lps[s]
                    )
                    pres[s] = np.where(accept, batch.site_present[s], pres[s])
                if isinstance(cur_value, tuple):
                    cur_value = tuple(
                        np.where(accept, new, old)
                        for new, old in zip(batch.value, cur_value)
                    )
                else:
                    cur_value = np.where(accept, batch.value, cur_value)
            if step >= self.burn_in and (step - self.burn_in) % self.thin == 0:
                i = (step - self.burn_in) // self.thin
                if isinstance(cur_value, tuple):
                    columns = [np.asarray(v).tolist() for v in cur_value]
                    for c in range(B):
                        if i < quotas[c]:
                            chains[c].append(
                                tuple(column[c] for column in columns)
                            )
                else:
                    column = np.asarray(cur_value).tolist()
                    for c in range(B):
                        if i < quotas[c]:
                            chains[c].append(column[c])
        for chain in chains:
            result.samples.extend(chain)
        result.chains = chains
        result.elapsed_seconds = time.perf_counter() - start
        if rec.enabled:
            rec.progress(
                self.name,
                total_steps,
                total_steps,
                accept_rate=result.n_accepted / max(1, result.n_proposals),
            )
            rec.counter("engine.proposals", result.n_proposals)
            rec.counter("engine.samples", len(result.samples))
        return result
