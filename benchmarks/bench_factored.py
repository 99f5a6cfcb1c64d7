"""Factored vs monolithic rejection sampling on the K-components family.

``k_components_model(k)`` has ``k`` statically independent blocks, each
conditioned by a hard observe that accepts with probability 0.5.  A
monolithic rejection run accepts with probability ``0.5**k``, while the
factored run (``sli(..., factorize=True)`` sharded by
``ParallelRunner.run_factored``) pays 0.5 per factor.  Both arms run on
the inline runner, so the comparison measures the factorisation itself,
not process fan-out.

The acceptance line: factored throughput is at least monolithic for
every ``k >= 2``::

    PYTHONPATH=src python -m pytest benchmarks/bench_factored.py -q
"""

import time

from repro.inference.rejection import RejectionSampler
from repro.models.kcomponents import k_components_model
from repro.runtime.parallel import ParallelRunner
from repro.transforms.pipeline import sli

from .conftest import record_block

_K_VALUES = (1, 2, 4, 8)
_N_SAMPLES = 100


def _engine(k):
    # Monolithic acceptance is 0.5**k, so its attempt budget scales
    # with 2**k.
    return RejectionSampler(
        n_samples=_N_SAMPLES,
        seed=0,
        max_attempts=max(200_000, _N_SAMPLES * 2 ** (k + 4)),
    )


def test_factored_rejection_beats_monolithic():
    runner = ParallelRunner(n_workers=1, backend="inline")
    speedups = {}
    rows = []
    for k in _K_VALUES:
        # One sli run gives both arms the same slice and factor set.
        result = sli(k_components_model(k), factorize=True)
        start = time.perf_counter()
        mono = _engine(k).infer(result.sliced)
        mono_rate = len(mono.samples) / max(time.perf_counter() - start, 1e-9)
        fact = runner.run_factored(_engine(k), result.factors)
        fact_rate = len(fact.samples) / max(fact.elapsed_seconds, 1e-9)
        speedups[k] = fact_rate / max(mono_rate, 1e-9)
        rows.append(
            f"k={k}  factors={len(result.factors)}  "
            f"mono={mono_rate:9.1f}/s  fact={fact_rate:9.1f}/s  "
            f"speedup={speedups[k]:6.2f}x"
        )
    record_block(
        f"Factored vs monolithic rejection, {_N_SAMPLES} draws", "\n".join(rows)
    )
    slower = {k: s for k, s in speedups.items() if k >= 2 and s < 1.0}
    assert not slower, f"factored slower than monolithic: {slower}"
