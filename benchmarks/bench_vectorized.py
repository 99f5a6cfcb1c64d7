"""Closure backend vs numpy array backend on the Table 1 models.

The array backend (``repro.semantics.vectorized``) compiles a sliced
program once to numpy ops over ``(batch,)`` state columns; this bench
measures what a full-width likelihood-weighting pass buys over the
closure backend's one-run-at-a-time loop, after asserting batch-of-1
trace replay reproduces the scalar run bit-for-bit.

The headline claim checked at the end: at batch 1000 the numpy backend
is >= 5x faster than the closure backend on at least four Table 1
benchmarks.
"""

import random
import time

import pytest

from repro.inference.base import InferenceError
from repro.inference.importance import LikelihoodWeighting
from repro.models import TABLE1
from repro.runtime.parallel import numpy_generator
from repro.semantics.executor import ExecutorOptions, run_program
from repro.semantics.vectorized import compile_vectorized

from .conftest import record_block

_OPTS = ExecutorOptions(max_loop_iterations=10_000)
_BATCH = 1_000
_ROWS = []
_SPEEDUPS = {}


def _best_of(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _lw_seconds(program, compiled):
    engine = LikelihoodWeighting(n_samples=_BATCH, seed=11, compiled=compiled)
    return _best_of(lambda: engine.infer(program))


@pytest.mark.parametrize("spec", TABLE1, ids=[s.name for s in TABLE1])
def test_vectorized_backend_speedup(benchmark, spec):
    program = spec.bench()
    vectorized = compile_vectorized(program)

    # Correctness gate: a scalar trace replayed at batch 1 reproduces
    # the scalar run bit-for-bit.
    scalar = run_program(program, random.Random(7), options=_OPTS)
    batch = vectorized.run_batch(
        numpy_generator(7, "bench"), 1, base=vectorized.base_from_trace(scalar.trace, 1)
    )
    lane = batch.lane_result(0)
    assert (lane.value, lane.log_likelihood, lane.trace) == (
        scalar.value,
        scalar.log_likelihood,
        scalar.trace,
    )

    benchmark.group = "vectorized-backend"
    try:
        benchmark.pedantic(
            lambda: LikelihoodWeighting(
                n_samples=_BATCH, seed=11, compiled="numpy"
            ).infer(program),
            rounds=3,
            iterations=1,
        )
        t_closure = _lw_seconds(program, compiled=True)
        t_numpy = _lw_seconds(program, compiled="numpy")
    except InferenceError as exc:
        # Hard-observe models (TrueSkill) can have zero LW mass at
        # bench scale on both backends; that is model physics.
        _ROWS.append(f"{spec.name:28s} lw n/a ({exc})")
        return
    speedup = t_closure / t_numpy
    _SPEEDUPS[spec.name] = speedup
    benchmark.extra_info["benchmark"] = spec.name
    benchmark.extra_info["closure_ms"] = f"{t_closure * 1e3:.3f}"
    benchmark.extra_info["numpy_ms"] = f"{t_numpy * 1e3:.3f}"
    benchmark.extra_info["speedup"] = f"{speedup:.2f}x"
    _ROWS.append(
        f"{spec.name:28s} closure={t_closure * 1e3:9.3f}ms "
        f"numpy={t_numpy * 1e3:9.3f}ms speedup={speedup:6.2f}x"
    )


def test_vectorized_backend_report(benchmark):
    """Emit the summary block and check the acceptance line: >= 5x at
    batch 1000 on at least four Table 1 benchmarks."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    benchmark.group = "vectorized-backend"
    if _ROWS:
        record_block(
            f"Array backend: likelihood weighting at batch {_BATCH}, "
            "closure vs numpy",
            "\n".join(_ROWS),
        )
    if _SPEEDUPS:
        winners = [n for n, s in _SPEEDUPS.items() if s >= 5.0]
        assert len(winners) >= 4, _SPEEDUPS
