"""``warm-sample``: long inference runs on programs already sliced and
compiled.

A closed loop with one caller over the grid: the eight Table-1
programs at bench scale × {svf, ab} slices × {MH on closures, MH on the
numpy lockstep ``batch_chains`` path, likelihood weighting on numpy,
SMC on closures}, minus :data:`EXCLUDED` cells.  Set-up slices and
compiles everything through one ``ProgramCache``, so every job is a
cache hit and inference, the runtimes and ``dists`` do nearly all the
work.

Set-up is repeated :data:`~perfbench.common.SETUP_REPEATS` times with
the module-level memo tables (compile, vectorize, free variables)
cleared before each, because a fresh ``ProgramCache`` alone is not a
cold cache.
"""

from __future__ import annotations

import gc
import random
import time
import zlib
from typing import Dict, List, Tuple

from repro.core.freevars import clear_free_vars_cache
from repro.models import TABLE1
from repro.obs.recorder import NULL_RECORDER, TraceRecorder, use_recorder
from repro.runtime.cache import ProgramCache
from repro.semantics.compiled import clear_compile_cache
from repro.semantics.vectorized import clear_vectorized_cache, compile_vectorized

from .checks import check_posterior, table1_references
from .common import (
    SETUP_REPEATS,
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
from .speed import Speedometer

SLICERS = ("svf", "ab")
CONFIGS = (("mh", "closure"), ("mh", "numpy"), ("importance", "numpy"), ("smc", "closure"))
BUDGETS: Dict[Tuple[str, str], Dict[str, int]] = {
    ("mh", "closure"): {"samples": 1000, "burn_in": 500},
    # 64 lockstep chains (the engine default) x 30 draws each.
    ("mh", "numpy"): {"samples": 1920, "burn_in": 150},
    ("importance", "numpy"): {"samples": 30_000},
    ("smc", "closure"): {"samples": 600},
}
#: Larger budgets for single cells: SMC on BurglarAlarm needs more
#: particles, or now and then every particle violates the evidence.
OVERRIDES: Dict[Tuple[str, str, str], Dict[str, int]] = {
    ("BurglarAlarm", "smc", "closure"): {"samples": 3000},
}
#: Grid cells left out, with the reason (they are not failures).
EXCLUDED = {
    ("Chess", "importance", "numpy"): "every prior draw violates a hard observe: "
    "all weights zero",
    ("Chess", "mh", "numpy"): "the lockstep chains share one annealed start and do "
    "not leave it within the budget: the pooled mean misses the reference",
}


def grid() -> List[Tuple[str, str, str, str]]:
    return [
        (spec.name, slicer, engine, backend)
        for spec in TABLE1
        for slicer in SLICERS
        for engine, backend in CONFIGS
        if (spec.name, engine, backend) not in EXCLUDED
    ]


def _setup(programs) -> ProgramCache:
    """Slice and compile every program under both slicers into a fresh
    cache, with the module-level memo tables cleared first."""
    clear_compile_cache()
    clear_vectorized_cache()
    clear_free_vars_cache()
    cache = ProgramCache()
    for program in programs.values():
        for slicer in SLICERS:
            sliced = cache.slice(program, slicer=slicer).sliced
            cache.compiled(sliced)
            compile_vectorized(sliced)
    return cache


def _job(cell, program, cache: ProgramCache, seed: int, traced: bool) -> Tuple[dict, object]:
    _, slicer, engine, backend = cell
    rec = TraceRecorder() if traced else NULL_RECORDER
    hits_before = (cache.stats.slice_hits, cache.stats.compile_hits)
    t0 = time.perf_counter()
    with use_recorder(rec):
        with rec.span("bench.slice"):
            sliced = cache.slice(program, slicer=slicer).sliced
        with rec.span("bench.compile"):
            if backend == "numpy":
                compile_vectorized(sliced)
            else:
                cache.compiled(sliced)
        t_cache = time.perf_counter()
        budget = OVERRIDES.get((cell[0], engine, backend), BUDGETS[engine, backend])
        eng = make_engine(engine, backend, seed, budget)
        with rec.span("bench.infer"):
            inferred = eng.infer(sliced)
        infer_s = time.perf_counter() - t_cache
        with rec.span("bench.summary"):
            inferred.mean()
            inferred.variance()
    t1 = time.perf_counter()
    hit = cache.stats.slice_hits > hits_before[0] and (
        backend == "numpy" or cache.stats.compile_hits > hits_before[1]
    )
    record = {
        "span": (t0, t1),
        "cell": cell,
        "engine": engine,
        "backend": backend,
        "job_s": t1 - t0,
        "infer_s": infer_s,
        "cache_hit": hit,
        "cache_s": t_cache - t0,
    }
    if traced:
        record.update(span_seconds(rec))
    return record, inferred


def run(seed: int, seconds: float, trace: bool) -> dict:
    programs = {spec.name: spec.bench() for spec in TABLE1}
    speed = Speedometer()
    setups = timed_setups(lambda: _setup(programs), speed, SETUP_REPEATS)
    cache = setups[-1][0]
    refs = table1_references()
    cells = grid()
    rng = random.Random(seed)
    jobs: List[dict] = []
    passed: List[dict] = []
    failures: List[str] = []
    attempted = 0
    order: List[tuple] = []
    # Objects alive now outlive the run: keep them out of the per-job
    # collections below, so each scans only what the jobs allocated.
    gc.collect()
    gc.freeze()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        if not order:
            # Only whole passes over the grid are measured, so every run
            # holds each cell equally often.
            jobs.extend(passed)
            passed = []
            order = list(cells)
            rng.shuffle(order)
        cell = order.pop()
        traced = trace and (attempted // 2) % 2 == 0
        # The engine seed depends on the cell and the pass only, so every
        # run does the same inference work; the workload seed sets the
        # order of the jobs.
        engine_seed = zlib.crc32(repr((cell, attempted // len(cells))).encode())
        attempted += 1
        # Start every job from an empty young generation, so no job pays
        # for a collection of garbage an earlier one left.
        gc.collect()
        speed.tick()
        try:
            record, inferred = _job(cell, programs[cell[0]], cache, engine_seed, traced)
            record.update(describe(inferred, traced))
            problem = check_posterior(
                record["estimate"], record["sd"], record["check_ess"], refs[cell[0]]
            )
        except Exception as exc:  # a failed job is counted, not fatal
            failures.append(f"{'/'.join(cell)}: {type(exc).__name__}: {exc}")
            continue
        if problem is not None:
            failures.append(f"{'/'.join(cell)}: {problem}")
            continue
        passed.append(record)
    speed.tick(force=True)
    if not order:
        jobs.extend(passed)
    normalise(jobs, speed)
    metrics = end_to_end(
        jobs, [s[1] for s in setups], sum(job["job_s"] for job in jobs), peak_rss_mb()
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
