"""The benchmark's own tests::

    python3 -m pytest -q perfbench/test_perfbench.py

They pin the benchmark's ESS estimators to the library's on fixed
chains (so a change to the library's estimator cannot silently change
what ``ess_per_s`` means, and a drift between the two shows here),
show that the posterior check rejects each Table-1 program's prior
(the posterior of a slice that lost every observe), check the speed
normalisation, and check that workload inputs are a function of the
seed alone.
"""

from __future__ import annotations

import math
import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.inference.base import effective_sample_size  # noqa: E402
from repro.metrics.online import kish_ess as library_kish_ess  # noqa: E402

from perfbench.checks import (  # noqa: E402
    Reference,
    check_posterior,
    hiv_reference,
    table1_references,
)
from perfbench.ess import autocorr_ess, chains_ess, kish_ess  # noqa: E402


def _ar1(n: int, phi: float, seed: int) -> list:
    rng = random.Random(seed)
    x, out = 0.0, []
    for _ in range(n):
        x = phi * x + rng.gauss(0.0, 1.0)
        out.append(x)
    return out


FIXED_CHAINS = {
    "iid": _ar1(2000, 0.0, 1),
    "ar1-0.5": _ar1(2000, 0.5, 2),
    "ar1-0.9": _ar1(3000, 0.9, 3),
    "ar1-0.99-short": _ar1(500, 0.99, 4),
    "bool": [float(random.Random(5).random() < 0.3) for _ in range(1000)],
    "constant": [1.0] * 50,
    "two": [0.0, 1.0],
    "sticky-bool": [float((i // 37) % 2) for i in range(800)],
}


@pytest.mark.parametrize("name", sorted(FIXED_CHAINS))
def test_autocorr_ess_matches_library(name):
    chain = FIXED_CHAINS[name]
    assert autocorr_ess(chain) == pytest.approx(effective_sample_size(chain), rel=1e-9)


@pytest.mark.parametrize("max_lag", [5, 50, 1000])
def test_autocorr_ess_matches_library_at_any_lag_cap(max_lag):
    chain = FIXED_CHAINS["ar1-0.9"]
    assert autocorr_ess(chain, max_lag) == pytest.approx(
        effective_sample_size(chain, max_lag), rel=1e-9
    )


def test_kish_matches_library():
    rng = random.Random(7)
    weights = [rng.random() ** 4 for _ in range(5000)]
    assert kish_ess(weights) == pytest.approx(library_kish_ess(weights), rel=1e-12)
    assert kish_ess([0.0, 0.0]) == 0.0


def test_chains_ess_sums_chains_and_caps_by_lineages():
    a, b = FIXED_CHAINS["ar1-0.5"], FIXED_CHAINS["ar1-0.9"]
    assert chains_ess(a + b, chains=[a, b]) == pytest.approx(
        autocorr_ess(a) + autocorr_ess(b)
    )
    assert chains_ess([1.0, 2.0], weights=[1.0, 1.0], lineages=1) == 1.0


def test_check_tolerance_scales_with_ess():
    ref = Reference(mean=0.0, sd=1.0)
    assert check_posterior(0.3, 1.0, 400.0, ref) is None  # tolerance 0.35
    assert check_posterior(0.5, 1.0, 4.0, ref) is None
    assert check_posterior(0.5, 1.0, 1e6, ref) is not None
    assert check_posterior(math.nan, 1.0, 10.0, ref) is not None


def test_check_tests_the_spread_of_continuous_references_only():
    continuous = Reference(mean=0.0, sd=1.0, method="conjugate")
    assert check_posterior(0.0, 1.2, 400.0, continuous) is None  # tolerance 0.28
    assert check_posterior(0.0, 1.5, 400.0, continuous) is not None
    assert check_posterior(0.0, math.nan, 400.0, continuous) is not None
    exact = Reference(mean=0.5, sd=0.5, method="enumeration")
    assert check_posterior(0.5, 0.0, 400.0, exact) is None


def _prior(program):
    """``program`` with every observe and factor removed."""
    from repro.core import ast

    def strip(stmt):
        if isinstance(stmt, (ast.Observe, ast.ObserveSample, ast.Factor)):
            return ast.SKIP
        if isinstance(stmt, ast.Block):
            return ast.Block(tuple(strip(s) for s in stmt.stmts))
        if isinstance(stmt, ast.If):
            return ast.If(stmt.cond, strip(stmt.then_branch), strip(stmt.else_branch))
        if isinstance(stmt, ast.While):
            return ast.While(stmt.cond, strip(stmt.body))
        return stmt

    return ast.Program(strip(program.body), program.ret)


#: The check ESS at which each Table-1 prior must fail the check (the
#: check separates a prior from the posterior at this ESS and above).
#: Ex3 is left out: its observe barely moves the return value (prior
#: mean 0.727 against 0.725).  On NoisyOR and Chess the prior lies
#: within 0.25 and 0.4 posterior sd of the reference, so only long runs
#: (likelihood weighting's thousands of draws) separate them.
PRIOR_FAILS_AT = {
    "Ex5": 400.0,
    "NoisyOR": 2000.0,
    "BurglarAlarm": 100.0,
    "BayesianLinearRegression": 100.0,
    "HIV": 100.0,
    "Halo": 100.0,
    "Chess": 1000.0,
}


@pytest.mark.parametrize("name", sorted(PRIOR_FAILS_AT))
def test_check_rejects_the_prior(name):
    import numpy as np

    from repro.inference.importance import LikelihoodWeighting
    from repro.models import benchmark

    draws = LikelihoodWeighting(n_samples=4000, seed=1, compiled=True).infer(
        _prior(benchmark(name).bench())
    ).samples
    values = np.asarray([float(v) for v in draws])
    ref = table1_references()[name]
    assert check_posterior(values.mean(), values.std(), PRIOR_FAILS_AT[name], ref)


def test_speed_factor_uses_nearby_calibrations():
    from perfbench.speed import REFERENCE_S, Speedometer

    now = [0.0]
    speed = Speedometer(clock=lambda: now[0])
    for t in range(20):
        now[0] = float(t)
        speed.tick()
    # Pretend the machine ran at half speed for the second half.
    speed._took = [REFERENCE_S] * 10 + [2 * REFERENCE_S] * 10
    assert speed.factor(2.0, 3.0) == pytest.approx(1.0)
    assert speed.factor(15.0, 16.0) == pytest.approx(0.5)
    assert speed.normalise(0.8, 15.0, 16.0) == pytest.approx(0.4)


def test_hiv_reference_matches_a_single_person_by_hand():
    class Data:
        measurements = ((0, 0.0, 5.0),)

    # One measurement at t=0 only informs the intercept: prior N(4, 1),
    # observation noise 0.25 -> posterior N(4.8, 0.2).
    ref = hiv_reference(Data, 1)
    assert ref.mean == pytest.approx(4.8)
    assert ref.sd == pytest.approx(math.sqrt(0.2))


def test_inputs_depend_on_the_seed_alone():
    from perfbench.programs import GENERATORS, generate
    from perfbench.serve_open import plan

    def sources(seed):
        rng = random.Random(seed)
        return [generate(m, rng, small=True).source for m in GENERATORS]

    assert sources(3) == sources(3)
    assert sources(3) != sources(4)
    first, second = plan(3, 5.0), plan(3, 5.0)
    assert [(r.due, r.body) for r in first] == [(r.due, r.body) for r in second]
