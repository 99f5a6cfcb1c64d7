"""Sequential Monte Carlo (a particle filter over program runs).

Particles run the program in lockstep, pausing at every conditioning
point (hard ``observe``, soft ``observe(Dist, v)``, ``factor``).  At
each pause the particle weights absorb the conditioning and, when the
effective sample size collapses, the population is resampled
systematically.  This is the standard PPL SMC construction (Wood et
al., 2014) and handles constraint-heavy programs (TrueSkill chains)
that plain rejection cannot initialize.

A particle is a :class:`~repro.semantics.executor.ParticleRun` over
the interpreter's particle shape
(:func:`~repro.semantics.executor.interpreted_particle`) or the
closure backend's generated one; both consume the RNG identically.

Cloning a live Python generator is impossible, so resampled particles
are *replayed*: each particle records its random choices (a trace),
and a clone re-executes the program reusing that trace — a copy of
its source up to the pause point — before continuing fresh.
"""

from __future__ import annotations

import copy
import math
import random
import time
from typing import List, Optional, Sequence

from ..core.ast import Program
from ..semantics.executor import NonTerminatingRun, ParticleRun, interpreted_particle
from ..semantics.trace import Trace
from .base import Engine, InferenceError, InferenceResult

__all__ = ["SMCSampler"]

NEG_INF = float("-inf")


class _Particle:
    __slots__ = ("run", "log_weight", "barriers", "alive", "finished", "lineage")

    def __init__(self, run: ParticleRun, lineage: int = 0) -> None:
        self.run = run
        self.log_weight = 0.0
        self.barriers = 0
        self.alive = True
        self.finished = False
        #: Index of the root ancestor (clones inherit it): the count of
        #: distinct lineages at the end measures genealogy collapse.
        self.lineage = lineage


class SMCSampler(Engine):
    """Sequential Monte Carlo over PROB programs.

    ``n_particles`` particles advance between conditioning points;
    systematic resampling triggers when the effective sample size
    drops below ``ess_threshold * n_particles``.  The result carries
    the final weighted population as weighted samples.
    """

    name = "smc"
    parallel_unit = "islands"

    def __init__(
        self,
        n_particles: int = 1_000,
        seed: int = 0,
        ess_threshold: float = 0.5,
        max_loop_iterations: int = 1_000_000,
        compiled: "bool | str" = False,
    ) -> None:
        if n_particles <= 0:
            raise ValueError("n_particles must be positive")
        if not 0.0 <= ess_threshold <= 1.0:
            raise ValueError("ess_threshold must be in [0, 1]")
        self.n_particles = n_particles
        self.seed = seed
        self.ess_threshold = ess_threshold
        self.max_loop_iterations = max_loop_iterations
        self.compiled = compiled

    def shard(self, n_shards: int, seeds: Sequence[int]) -> List[Engine]:
        """Particle islands: each shard runs an independent SMC pass
        over its share of the particle population (its own resampling
        schedule included)."""
        from .base import split_evenly

        shards: List[Engine] = []
        for size, seed in zip(split_evenly(self.n_particles, n_shards), seeds):
            if size == 0:
                continue
            shard = copy.copy(self)
            shard.n_particles = size
            shard.seed = seed
            shards.append(shard)
        return shards

    def merge(self, parts: Sequence[InferenceResult]) -> InferenceResult:
        """Combine island populations.

        Each island reports weights relative to its own best particle
        (``exp(lw - max_lw)``), so raw concatenation would let an
        island's internal scale distort the pooled estimate.  Islands
        of equal particle share are equally-weighted estimators of the
        same posterior, so each island's weights are renormalized to
        sum to its particle count before pooling (the standard
        island-particle-filter merge when per-island evidence estimates
        are not tracked)."""
        merged = InferenceResult.merge(parts)
        merged.weights = []
        for p in parts:
            assert p.weights is not None
            total = sum(p.weights)
            share = p.n_proposals if p.n_proposals > 0 else len(p.weights)
            merged.weights.extend(w / total * share for w in p.weights)
        return merged

    def _new_run(
        self,
        program: Program,
        rng: random.Random,
        base_trace: Optional[Trace],
    ) -> ParticleRun:
        """A fresh particle over the interpreter's or the closure
        backend's particle generator."""
        if self.compiled:
            from ..semantics.compiled import compile_program

            particle = compile_program(program).particle
        else:
            particle = interpreted_particle(program)
        return ParticleRun(particle, rng, base_trace, self.max_loop_iterations)

    def infer(self, program: Program) -> InferenceResult:
        from ..obs.recorder import current_recorder

        vectorized = self._vectorize(program)
        if vectorized is not None:
            return self._infer_numpy(vectorized)

        rng = random.Random(self.seed)
        result = InferenceResult(weights=[])
        rec = current_recorder()
        start = time.perf_counter()
        self._resamples = 0
        barriers = 0
        population = [
            _Particle(self._new_run(program, rng, None), lineage=i)
            for i in range(self.n_particles)
        ]
        if rec.enabled:
            # Baseline report for the live snapshot layer before the
            # first barrier completes.
            rec.progress(
                self.name,
                0,
                self.n_particles,
                live=self.n_particles,
                barriers=0,
                resamples=0,
            )

        while True:
            # Advance every live, unfinished particle to its next
            # barrier (or the end of the program).
            running = [p for p in population if not p.finished]
            if not running:
                break
            for p in running:
                try:
                    delta = p.run.advance()
                except NonTerminatingRun:
                    p.alive = False
                    continue
                result.statements_executed += p.run.statements
                p.run.statements = 0
                if delta is None:
                    p.finished = True
                    continue
                p.barriers += 1
                p.log_weight += delta
                if p.log_weight == NEG_INF:
                    p.alive = False
            population = [p for p in population if p.alive]
            if not population:
                break
            # Resample over the *whole* population — finished particles
            # included.  Excluding them would let the still-running
            # subset (e.g. one branch of an ``if`` holding the only
            # remaining observes) be replenished to full size, inflating
            # its posterior mass relative to runs that already ended.
            if any(not p.finished for p in population):
                population = self._maybe_resample(program, rng, population)
            barriers += 1
            if rec.enabled:
                rec.progress(
                    self.name,
                    sum(1 for p in population if p.finished),
                    self.n_particles,
                    live=sum(1 for p in population if not p.finished),
                    barriers=barriers,
                    resamples=self._resamples,
                )

        finished = [p for p in population if p.finished]
        if not finished:
            raise InferenceError("every SMC particle died (zero-mass program?)")
        max_lw = max(p.log_weight for p in finished)
        assert result.weights is not None
        for p in finished:
            result.samples.append(p.run.value)
            result.weights.append(math.exp(p.log_weight - max_lw))
            # Clones of finished particles replay to completion without
            # a later advance to collect their statement count.
            result.statements_executed += p.run.statements
            p.run.statements = 0
        result.n_proposals = self.n_particles
        result.n_accepted = len(finished)
        result.lineages = len({p.lineage for p in finished})
        result.elapsed_seconds = time.perf_counter() - start
        if sum(result.weights) <= 0.0:
            raise InferenceError("all SMC particle weights are zero")
        if rec.enabled:
            rec.progress(
                self.name,
                self.n_particles,
                self.n_particles,
                resamples=self._resamples,
            )
            rec.counter("engine.proposals", result.n_proposals)
            rec.counter("engine.samples", len(result.samples))
            rec.counter("smc.resamples", self._resamples)
        return result

    def _infer_numpy(self, vectorized) -> InferenceResult:
        """Array-backend SMC: the whole population advances barrier by
        barrier through one batched generator, weights update as
        ``(batch,)`` arrays, and systematic resampling is a single
        ``searchsorted`` gather sent back into the generator (no trace
        replay — clones copy ancestor state by indexing).

        One documented divergence from the scalar engine: lanes share
        the program's *static* barrier schedule (an ``if`` holding an
        observe pauses every lane, contributing a zero delta on lanes
        that took the other arm), so the resampling points are the
        static conditioning statements rather than each particle's own
        dynamic barrier sequence.
        """
        import numpy as np

        from ..obs.recorder import current_recorder
        from ..runtime.parallel import numpy_generator

        gen = numpy_generator(self.seed, "smc")
        rec = current_recorder()
        result = InferenceResult(weights=[])
        assert result.weights is not None
        start = time.perf_counter()
        self._resamples = 0
        barriers = 0
        target = self.n_particles
        particles = vectorized.particles(gen, target)
        log_weights = np.zeros(target, dtype=np.float64)
        lineage = np.arange(target)
        ancestors: Optional[np.ndarray] = None
        if rec.enabled:
            rec.progress(
                self.name, 0, target, live=target, barriers=0, resamples=0
            )
        while True:
            delta = particles.advance(ancestors)
            ancestors = None
            if delta is None:
                break
            barriers += 1
            log_weights = log_weights + delta
            dead = np.isneginf(log_weights)
            if dead.all():
                raise InferenceError(
                    "every SMC particle died (zero-mass program?)"
                )
            with np.errstate(over="ignore"):
                weights = np.exp(log_weights - log_weights.max())
            total = float(weights.sum())
            ess = total * total / float((weights * weights).sum())
            # Same trigger as the scalar engine: weight degeneracy or
            # any hard-observe death (replenish back to full size).
            if ess < self.ess_threshold * target or dead.any():
                self._resamples += 1
                positions = (gen.random(target) + np.arange(target)) / target
                cumulative = np.cumsum(weights / total)
                ancestors = np.minimum(
                    np.searchsorted(cumulative, positions, side="left"),
                    target - 1,
                )
                log_weights = np.zeros(target, dtype=np.float64)
                lineage = lineage[ancestors]
            if rec.enabled:
                rec.progress(
                    self.name,
                    0,
                    target,
                    live=int(target - dead.sum()),
                    barriers=barriers,
                    resamples=self._resamples,
                )
        final = particles.finished_result()
        result.statements_executed += int(final.statements.sum())
        keep = np.flatnonzero(~np.isneginf(log_weights))
        if keep.size == 0:
            raise InferenceError("every SMC particle died (zero-mass program?)")
        with np.errstate(over="ignore"):
            weights = np.exp(log_weights[keep] - log_weights[keep].max())
        value = final.value
        if isinstance(value, tuple):
            columns = [np.asarray(v)[keep] for v in value]
            for j in range(keep.size):
                result.samples.append(tuple(c[j].item() for c in columns))
        else:
            result.samples.extend(v.item() for v in np.asarray(value)[keep])
        result.weights.extend(weights.tolist())
        result.n_proposals = target
        result.n_accepted = keep.size
        result.lineages = int(np.unique(lineage[keep]).size)
        result.elapsed_seconds = time.perf_counter() - start
        if sum(result.weights) <= 0.0:
            raise InferenceError("all SMC particle weights are zero")
        if rec.enabled:
            rec.progress(self.name, target, target, resamples=self._resamples)
            rec.counter("engine.proposals", result.n_proposals)
            rec.counter("engine.samples", len(result.samples))
            rec.counter("smc.resamples", self._resamples)
        return result

    # -- resampling ---------------------------------------------------------------

    def _maybe_resample(
        self,
        program: Program,
        rng: random.Random,
        particles: List[_Particle],
    ) -> List[_Particle]:
        target = self.n_particles
        max_lw = max(p.log_weight for p in particles)
        weights = [math.exp(p.log_weight - max_lw) for p in particles]
        total = sum(weights)
        ess = total * total / sum(w * w for w in weights)
        # Resample when weights degenerate *or* hard observes killed
        # part of the population (replenish back to full size —
        # finished particles stay in the pool, so mere completion
        # never shrinks it).
        if ess >= self.ess_threshold * target and len(particles) == target:
            return particles
        self._resamples = getattr(self, "_resamples", 0) + 1
        # Systematic resampling back to the full population size.
        positions = [(rng.random() + i) / target for i in range(target)]
        cumulative = 0.0
        chosen: List[int] = []
        idx = 0
        for i, w in enumerate(weights):
            cumulative += w / total
            while idx < target and positions[idx] <= cumulative:
                chosen.append(i)
                idx += 1
        while len(chosen) < target:
            chosen.append(len(particles) - 1)
        out: List[_Particle] = []
        used_original = set()
        for i in chosen:
            source = particles[i]
            if i not in used_original:
                used_original.add(i)
                source.log_weight = 0.0
                out.append(source)
            else:
                out.append(self._clone(program, rng, source))
        return out

    def _clone(
        self, program: Program, rng: random.Random, source: _Particle
    ) -> _Particle:
        """Replay the source's trace up to its barrier count (to
        completion for finished sources), then let the clone diverge
        with fresh randomness."""
        run = self._new_run(program, rng, dict(source.run.trace))
        clone = _Particle(run, lineage=source.lineage)
        for _ in range(source.barriers):
            delta = run.advance()
            if delta is None:
                raise AssertionError("replay finished before source barrier")
        if source.finished:
            if run.advance() is not None:
                raise AssertionError("replay outlived its finished source")
            clone.finished = True
        # Replay work is real work; it stays in run.statements and is
        # picked up by the next accounting pass.
        clone.barriers = source.barriers
        clone.log_weight = 0.0
        return clone
