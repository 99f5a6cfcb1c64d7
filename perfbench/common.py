"""Helpers shared by the workloads: engines, statistics, the job record
reduction into metrics, and process measurements."""

from __future__ import annotations

import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Sequence

import numpy as np

from .ess import chains_ess

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: The per-layer metrics every traced run reports, in table order, with
#: their units.  A metric whose layer a workload does not run reads 0.
PER_LAYER = [
    ("parse.ms", "ms"),
    ("sli.ms", "ms"),
    ("pass.obs.ms", "ms"),
    ("pass.svf.ms", "ms"),
    ("pass.ssa.ms", "ms"),
    ("pass.slice.ms", "ms"),
    ("pass.cfgslice.ms", "ms"),
    ("sli.kept_frac", "ratio"),
    ("ir.lower.ms", "ms"),
    ("semantics.compile.ms", "ms"),
    ("semantics.vectorize.ms", "ms"),
    ("semantics.vectorize.fallback_frac", "ratio"),
    ("cache.hit_frac", "ratio"),
    ("cache.hit.ms", "ms"),
    ("infer.ms", "ms"),
    ("infer.mh.closure.samples_per_s", "1/s"),
    ("infer.mh.numpy.samples_per_s", "1/s"),
    ("infer.importance.numpy.samples_per_s", "1/s"),
    ("infer.smc.closure.samples_per_s", "1/s"),
    ("infer.mh.accept_frac", "ratio"),
    ("infer.ess_frac", "ratio"),
    ("infer.importance.kish_frac", "ratio"),
    ("metrics.ess.ms", "ms"),
    ("pipeline.job_share", "ratio"),
    ("infer.job_share", "ratio"),
    ("serve.submit.ms", "ms"),
    ("serve.queue_wait.ms", "ms"),
    ("serve.run.ms", "ms"),
    ("serve.hit.job_ms", "ms"),
    ("serve.miss.job_ms", "ms"),
    ("serve.refused_frac", "ratio"),
    ("serve.cpu_ms_per_job", "ms"),
    ("serve.late_completions", "count"),
    ("obs.trace_overhead_frac", "ratio"),
    ("loadgen.lag_p90_ms", "ms"),
]

#: Stage-seconds keys (span names) that map one-to-one onto ``<name>.ms``
#: per-layer metrics.
SPAN_LAYERS = (
    "sli",
    "pass.obs",
    "pass.svf",
    "pass.ssa",
    "pass.slice",
    "pass.cfgslice",
    "ir.lower",
    "semantics.compile",
    "semantics.vectorize",
)

#: Setups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Divides an MCMC chain's ESS before the posterior check.
MCMC_ESS_DISCOUNT = 4.0


def make_engine(engine: str, backend: str, seed: int, budget: Dict[str, int]):
    """The configured engine for one job.  ``budget`` holds
    ``samples`` (draws, or particles for SMC) and, for MH, ``burn_in``."""
    compiled = {"interp": False, "closure": True, "numpy": "numpy"}[backend]
    if engine == "mh":
        from repro.inference.mh import MetropolisHastings

        return MetropolisHastings(
            n_samples=budget["samples"],
            burn_in=budget.get("burn_in", 500),
            seed=seed,
            compiled=compiled,
        )
    if engine == "importance":
        from repro.inference.importance import LikelihoodWeighting

        return LikelihoodWeighting(
            n_samples=budget["samples"], seed=seed, compiled=compiled
        )
    if engine == "smc":
        from repro.inference.smc import SMCSampler

        return SMCSampler(n_particles=budget["samples"], seed=seed, compiled=compiled)
    raise ValueError(f"unknown engine {engine!r}")


# -- statistics ---------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile by the Harrell-Davis estimator, a
    Beta-weighted mean of all order statistics: steadier from run to
    run than a single order statistic when job times form clusters."""
    if not len(values):
        return 0.0
    from scipy.stats.mstats import hdquantiles

    return float(hdquantiles(np.asarray(values, dtype=np.float64), prob=[q / 100.0])[0])


def mean(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def geomean(values: Iterable[float]) -> float:
    values = [v for v in values if v > 0.0]
    if not values:
        return 0.0
    return math.exp(statistics.fmean(math.log(v) for v in values))


def cell_rate(jobs: Sequence[dict], field: str) -> float:
    """Geometric mean over (model, slicer, engine, backend) cells of the
    cell's geometric-mean ``field`` per second of ``infer`` over its
    jobs (geometric, so one lucky ESS does not carry a cell)."""
    rates: Dict[tuple, List[float]] = defaultdict(list)
    for job in jobs:
        if job.get("infer_s", 0.0) > 0.0 and job.get(field, 0.0) > 0.0:
            rates[job["cell"]].append(job[field] / job["infer_s"])
    return geomean(geomean(r) for r in rates.values())


#: Job-record fields that hold measured seconds.
TIME_FIELDS = ("job_s", "infer_s", "cache_s", "parse_s", "slice_s", "compile_s",
               "lib_ess_s", "queue_s", "run_s", "share_s", "submit_s")


def normalise(jobs: Sequence[dict], speed) -> None:
    """Rescale every measured time of each job record (its ``span``:
    start and end on the speedometer's clock) to the reference machine
    speed, in place (see :mod:`perfbench.speed`)."""
    for job in jobs:
        factor = speed.factor(*job.pop("span"))
        for key in TIME_FIELDS:
            if key in job:
                job[key] *= factor
        if "stages" in job:
            job["stages"] = {k: v * factor for k, v in job["stages"].items()}


def timed_setups(setup, speed, repeats: int, teardown=None) -> list:
    """Run ``setup()`` ``repeats`` times between calibrations (calling
    ``teardown`` on each result but the last before the next, untimed);
    returns its results and the normalised seconds each took, as pairs."""
    out = []
    for _ in range(repeats):
        if out and teardown is not None:
            teardown(out[-1][0])
        speed.tick(force=True)
        t0 = speed.clock()
        result = setup()
        t1 = speed.clock()
        speed.tick(force=True)
        out.append((result, t0, t1))
    return [(result, speed.normalise(t1 - t0, t0, t1)) for result, t0, t1 in out]


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- job records -> metrics ---------------------------------------------------


def end_to_end(jobs: Sequence[dict], setup_times: Sequence[float], wall_s: float,
               rss_mb: float) -> Dict[str, float]:
    """The end-to-end metrics of one run from its completed job records.

    ``wall_s`` is the time the completed jobs took (a closed loop: the
    sum of job times; an open loop: first due time to last completion).
    """
    latencies = [job["job_s"] * 1e3 for job in jobs]
    return {
        "job_p50_ms": percentile(latencies, 50),
        "job_p90_ms": percentile(latencies, 90),
        "jobs_per_s": len(jobs) / wall_s if wall_s > 0 else 0.0,
        "samples_per_s": cell_rate(jobs, "draws"),
        "ess_per_s": cell_rate(jobs, "ess"),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": rss_mb,
    }


def layer_metrics(jobs: Sequence[dict]) -> Dict[str, float]:
    """Per-layer metrics shared by every workload, from traced job
    records (``stages``: span name -> seconds within the job)."""
    out: Dict[str, float] = {name: 0.0 for name, _ in PER_LAYER}
    traced = [job for job in jobs if "stages" in job]
    if not traced:
        return out
    for layer in SPAN_LAYERS:
        out[f"{layer}.ms"] = mean(job["stages"].get(layer, 0.0) * 1e3 for job in traced)
    out["parse.ms"] = mean(job.get("parse_s", 0.0) * 1e3 for job in traced)
    out["infer.ms"] = mean(job.get("infer_s", 0.0) * 1e3 for job in traced)
    kept = [job["kept_frac"] for job in traced if "kept_frac" in job]
    out["sli.kept_frac"] = mean(kept)
    vec = [job["vectorized"] for job in traced if "vectorized" in job]
    out["semantics.vectorize.fallback_frac"] = mean(0.0 if v else 1.0 for v in vec)
    hits = [job["cache_hit"] for job in traced if "cache_hit" in job]
    out["cache.hit_frac"] = mean(1.0 if h else 0.0 for h in hits)
    hit_ms = [job["cache_s"] * 1e3 for job in traced if job.get("cache_hit")]
    out["cache.hit.ms"] = mean(hit_ms)
    for engine, backend in (("mh", "closure"), ("mh", "numpy"),
                            ("importance", "numpy"), ("smc", "closure")):
        subset = [job for job in jobs if job.get("engine") == engine
                  and job.get("backend") == backend]
        out[f"infer.{engine}.{backend}.samples_per_s"] = cell_rate(subset, "draws")
    out["infer.mh.accept_frac"] = mean(
        job["accept"] for job in traced if job.get("engine") == "mh" and "accept" in job
    )
    out["infer.ess_frac"] = mean(
        job["ess"] / job["draws"] for job in traced if job.get("draws")
    )
    out["infer.importance.kish_frac"] = mean(
        job["ess"] / job["draws"]
        for job in traced if job.get("engine") == "importance" and job.get("draws")
    )
    out["metrics.ess.ms"] = mean(
        job["lib_ess_s"] * 1e3 for job in traced if "lib_ess_s" in job
    )
    job_total = sum(job.get("share_s", job["job_s"]) for job in traced)
    if job_total > 0:
        pipeline = sum(
            job.get("parse_s", 0.0) + job.get("slice_s", 0.0) + job.get("compile_s", 0.0)
            for job in traced
        )
        out["pipeline.job_share"] = pipeline / job_total
        out["infer.job_share"] = sum(job.get("infer_s", 0.0) for job in traced) / job_total
    return out


def trace_overhead(jobs: Sequence[dict]) -> float:
    """Traced over untraced job time, minus one, from a run that
    alternates the two: the median over cells of the ratio of mean job
    times (cells with both kinds only)."""
    by_cell: Dict[tuple, List[List[float]]] = defaultdict(lambda: [[], []])
    for job in jobs:
        by_cell[job["cell"]][1 if "stages" in job else 0].append(job["job_s"])
    ratios = [
        mean(traced) / mean(plain)
        for plain, traced in by_cell.values()
        if plain and traced and mean(plain) > 0
    ]
    return statistics.median(ratios) - 1.0 if ratios else 0.0


def library_ess_seconds(samples: Sequence[float]) -> float:
    """Wall seconds of the library's ``effective_sample_size`` on one
    chain (the estimator the service's health finalize runs per job)."""
    from repro.inference.base import effective_sample_size

    t0 = time.perf_counter()
    effective_sample_size(samples)
    return time.perf_counter() - t0


def describe(inferred, traced: bool) -> dict:
    """Reduce one ``InferenceResult`` (outside any timed region): draws,
    posterior mean and sd estimates, the benchmark's own ESS, MH
    acceptance and, for traced jobs, the library ESS cost on the chain."""
    samples = [float(s) for s in inferred.samples]
    weights = inferred.weights
    if not samples or (weights is not None and sum(weights) <= 0.0):
        estimate = sd = math.nan
    else:
        estimate = float(np.average(samples, weights=weights))
        sd = math.sqrt(float(np.average((np.asarray(samples) - estimate) ** 2,
                                        weights=weights)))
    chains = [[float(s) for s in c] for c in inferred.chains] if inferred.chains else None
    out = {
        "draws": len(samples),
        "estimate": estimate,
        "sd": sd,
        "ess": chains_ess(samples, weights, chains, inferred.lineages),
        "accept": inferred.acceptance_rate,
    }
    if weights is None:
        # The initial-positive-sequence ESS is optimistic on short chains
        # still leaving their start, so the check discounts it.  It also
        # reads ESS = n on a chain stuck on one value (or leaving it for
        # a single step), so the check never credits a chain with more
        # draws than the runs of equal values it holds.
        runs = 1 + sum(1 for a, b in zip(samples, samples[1:]) if a != b)
        out["check_ess"] = min(out["ess"] / MCMC_ESS_DISCOUNT, float(runs))
    else:
        out["check_ess"] = out["ess"]
    if traced and weights is None:
        out["lib_ess_s"] = library_ess_seconds(samples)
    return out


def span_seconds(rec) -> dict:
    """Per-job stage seconds from a job's ``TraceRecorder``: the
    program's own spans plus the benchmark's ``bench.*`` spans."""
    stages = rec.stage_seconds()
    return {
        "stages": stages,
        "parse_s": stages.get("bench.parse", 0.0),
        "slice_s": stages.get("bench.slice", 0.0),
        "compile_s": stages.get("bench.compile", 0.0),
    }


# -- set-up probe -------------------------------------------------------------

_COLD_START = """
from repro.core.parser import parse
from repro.inference.importance import LikelihoodWeighting
from repro.inference.mh import MetropolisHastings
from repro.runtime.cache import ProgramCache
from repro.semantics.vectorized import compile_vectorized
cache = ProgramCache()
p = parse("bool c; c ~ Bernoulli(0.5); bool d; d ~ Bernoulli(0.5); observe(c || d); return c;")
s = cache.slice(p, slicer="svf").sliced
cache.compiled(s)
MetropolisHastings(n_samples=50, burn_in=10, seed=0, compiled=True).infer(s)
compile_vectorized(s)
LikelihoodWeighting(n_samples=100, seed=0, compiled="numpy").infer(s)
"""


def cold_start() -> None:
    """A fresh interpreter imports the library and pushes one tiny job
    through every stage (the cost a new process pays before its first
    real job)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run(
        [sys.executable, "-c", _COLD_START], env=env, cwd=str(ROOT), check=True,
        stdout=subprocess.DEVNULL, timeout=120,
    )
