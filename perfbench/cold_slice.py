"""``cold-slice``: every job is a program the process has never seen.

A closed loop with one caller.  Each job is a freshly generated
NoisyOR, linear-regression, HIV, Halo or Chess program (bench scale up
to ~800 Chess games), submitted as printed source text, under both
slicers (``svf`` and ``ab``).  The job is parse → ``sli`` through a
fresh ``ProgramCache`` (always a miss) → compile (closures for MH,
numpy for likelihood weighting) → a small fixed inference budget → the
posterior summary.  Parsing, the passes, IR lowering and codegen do
most of the work; AB's super-linear slicing cost sits in the tail.
Only whole blocks of jobs (:func:`_block`) are measured, and every
measured time is normalised to the machine's speed around it
(:mod:`perfbench.speed`).
"""

from __future__ import annotations

import gc
import random
import time
from typing import Dict, List, Tuple

from repro.core.freevars import clear_free_vars_cache
from repro.core.parser import parse
from repro.obs.recorder import NULL_RECORDER, TraceRecorder, use_recorder
from repro.runtime.cache import ProgramCache
from repro.semantics.compiled import clear_compile_cache
from repro.semantics.vectorized import (
    NotVectorizable,
    clear_vectorized_cache,
    compile_vectorized,
)

from .checks import check_posterior
from .common import (
    SETUP_REPEATS,
    cold_start,
    describe,
    end_to_end,
    layer_metrics,
    make_engine,
    normalise,
    peak_rss_mb,
    span_seconds,
    timed_setups,
    trace_overhead,
)
from .programs import GENERATORS, generate
from .speed import Speedometer

BUDGETS: Dict[Tuple[str, str], Dict[str, int]] = {
    ("mh", "closure"): {"samples": 200, "burn_in": 300},
    ("importance", "numpy"): {"samples": 3000},
}
#: The families that take likelihood weighting; the rest take MH.  On
#: TrueSkill (almost) no prior draw satisfies the hard observes; on HIV
#: and regression the soft observes leave a handful of effective draws
#: whose Kish ESS swings by orders of magnitude from one dataset to the
#: next.  NoisyOR takes no MH: on its few boolean variables a 200-draw
#: chain's ESS estimate swings from a handful to all the draws.
LW_FAMILIES = ("NoisyOR",)
#: Size strata per (generator, slicer) in one block of jobs.
STRATA = 3


def _block(index: int, rng: random.Random) -> List[tuple]:
    """Block ``index`` of the job mix, shuffled: every generator under
    both slicers, each at one size stratum, the strata rotating from
    block to block, so every :data:`STRATA` consecutive blocks run every
    (generator, slicer, stratum) once."""
    deck = []
    for f, model in enumerate(GENERATORS):
        for s, slicer in enumerate(("svf", "ab")):
            stratum = (index + f + s) % STRATA
            config = ("importance", "numpy") if model in LW_FAMILIES else ("mh", "closure")
            deck.append((model, slicer, stratum, config))
    rng.shuffle(deck)
    return deck


def _job(gen, slicer: str, stratum: int, engine: str, backend: str, seed: int,
         traced: bool) -> Tuple[dict, object]:
    cache = ProgramCache()
    rec = TraceRecorder() if traced else NULL_RECORDER
    vectorized = None
    t0 = time.perf_counter()
    with use_recorder(rec):
        with rec.span("bench.parse"):
            program = parse(gen.source)
        with rec.span("bench.slice"):
            result = cache.slice(program, slicer=slicer)
        with rec.span("bench.compile"):
            if backend == "numpy":
                try:
                    compile_vectorized(result.sliced)
                    vectorized = True
                except NotVectorizable:
                    vectorized = False
            else:
                cache.compiled(result.sliced)
        eng = make_engine(engine, backend, seed, BUDGETS[engine, backend])
        t_infer = time.perf_counter()
        with rec.span("bench.infer"):
            inferred = eng.infer(result.sliced)
        infer_s = time.perf_counter() - t_infer
        with rec.span("bench.summary"):
            inferred.mean()
            inferred.variance()
    t1 = time.perf_counter()
    record = {
        "span": (t0, t1),
        # The size stratum is part of the cell: within a stratum, job
        # costs are alike, so each cell's rate is a steady average.
        "cell": (gen.model, slicer, engine, backend, stratum),
        "engine": engine,
        "backend": backend,
        "job_s": t1 - t0,
        "infer_s": infer_s,
        "cache_hit": False,
    }
    if traced:
        record.update(span_seconds(rec))
        record["kept_frac"] = result.sliced_size / max(1, result.transformed_size)
        if vectorized is not None:
            record["vectorized"] = vectorized
    return record, inferred


def run(seed: int, seconds: float, trace: bool) -> dict:
    speed = Speedometer()
    setup_times = [s for _, s in timed_setups(cold_start, speed, SETUP_REPEATS)]
    rng = random.Random(seed)
    jobs: List[dict] = []
    passed: List[dict] = []
    failures: List[str] = []
    attempted = 0
    deck: List[tuple] = []
    blocks = 0
    # Objects alive now outlive the run: keep them out of the per-job
    # collections below, so each scans only what the jobs allocated.
    gc.collect()
    gc.freeze()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        if not deck:
            # Only whole blocks are measured, so the mix of a run differs
            # from another's by at most one block of the rotation.
            jobs.extend(passed)
            passed = []
            deck = _block(blocks, rng)
            blocks += 1
        model, slicer, stratum, (engine, backend) = deck.pop()
        gen = generate(model, rng, stratum=(stratum, STRATA))
        # Traced and untraced jobs alternate in pairs, so every cell (which
        # includes the slicer) has both kinds for the overhead estimate.
        traced = trace and (attempted // 2) % 2 == 0
        attempted += 1
        # Every job gets a fresh cache (in _job) and empty module-level
        # memo tables (it could not hit them anyway) and starts with no
        # garbage left by an earlier one, so no job pays for its
        # predecessors' memory.
        clear_compile_cache()
        clear_vectorized_cache()
        clear_free_vars_cache()
        gc.collect()
        speed.tick()
        try:
            record, inferred = _job(
                gen, slicer, stratum, engine, backend, rng.randrange(1 << 30), traced
            )
            record.update(describe(inferred, traced))
            problem = check_posterior(
                record["estimate"], record["sd"], record["check_ess"], gen.reference()
            )
        except Exception as exc:  # a failed job is counted, not fatal
            failures.append(f"{model}/{slicer}/{engine}: {type(exc).__name__}: {exc}")
            continue
        if problem is not None:
            failures.append(f"{model}/{slicer}/{engine}: {problem}")
            continue
        passed.append(record)
    speed.tick(force=True)
    if not deck:
        jobs.extend(passed)
    normalise(jobs, speed)
    metrics = end_to_end(
        jobs, setup_times, sum(job["job_s"] for job in jobs), peak_rss_mb()
    )
    layers = layer_metrics(jobs)
    layers["obs.trace_overhead_frac"] = trace_overhead(jobs) if trace else 0.0
    return {
        "attempted": attempted,
        "failures": failures,
        "jobs": jobs,
        "end_to_end": metrics,
        "per_layer": layers,
    }
