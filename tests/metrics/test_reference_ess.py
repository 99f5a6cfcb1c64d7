"""Differential pin: the numpy FFT estimators against the loops they
replaced (``reference_ess.py``, kept verbatim).

``effective_sample_size`` must match within 1e-9 and stop at the same
lag: the first ``ρ ≤ 0`` among lags ``1 … min(max_lag, n−1)−1``.
``autocorrelation`` must match within 1e-9 at every lag, and
``split_r_hat`` must match on chains that are not degenerate.

One reading differs on purpose.  The loops detect a constant chain by
``var == 0.0``, which misses one whose value the sequential mean does
not reproduce exactly: the original Halo program's MH chain is stuck at
74.773120472078 at seed 0 and the loop reads ESS 1.57 for it.  The
module compares the draws themselves and returns the draw count, as
the definition says.
"""

import random

import pytest

from repro.inference import MetropolisHastings
from repro.metrics.online import (
    autocorrelation,
    effective_sample_size,
    split_r_hat,
)
from repro.models import TABLE1
from repro.transforms import sli

from . import reference_ess as ref


def _ar1(n, phi, seed):
    rng = random.Random(seed)
    x, out = 0.0, []
    for _ in range(n):
        x = phi * x + rng.gauss(0.0, 1.0)
        out.append(x)
    return out


def _stop(acf):
    """The truncation lag: the first lag ≥ 1 with ρ ≤ 0."""
    return next((k for k in range(1, len(acf)) if acf[k] <= 0.0), len(acf))


def _assert_matches(chain, max_lag=200):
    n = len(chain)
    if len(set(chain)) == 1:
        assert effective_sample_size(chain, max_lag) == float(n)
        return
    assert effective_sample_size(chain, max_lag) == pytest.approx(
        ref.effective_sample_size(chain, max_lag), rel=1e-9
    )
    if n < 3:
        return
    # The ESS sums lags 1 … min(max_lag, n−1)−1.
    lags = min(max_lag, n - 1) - 1
    ours, theirs = autocorrelation(chain, lags), ref.autocorrelation(chain, lags)
    assert ours == pytest.approx(theirs, abs=1e-9)
    assert _stop(ours) == _stop(theirs)


AR1 = {phi: _ar1(3000, phi, seed) for seed, phi in enumerate((0.0, 0.5, 0.9, 0.99))}
BOOL = [float(random.Random(5).random() < 0.3) for _ in range(1000)]
STICKY_BOOL = [float((i // 37) % 2) for i in range(800)]


@pytest.mark.parametrize("phi", sorted(AR1))
def test_ar1_chains(phi):
    _assert_matches(AR1[phi])


@pytest.mark.parametrize("max_lag", [2, 5, 50, 1000])
def test_lag_caps(max_lag):
    _assert_matches(AR1[0.9], max_lag)


@pytest.mark.parametrize("chain", [BOOL, STICKY_BOOL], ids=["bool", "sticky-bool"])
def test_bool_chains(chain):
    _assert_matches(chain)


@pytest.mark.parametrize("chain", [[1.0, 2.0], [0.0, 1.0, 0.0], [1.0] * 50])
def test_short_and_constant_chains(chain):
    _assert_matches(chain)
    assert autocorrelation(chain) == pytest.approx(ref.autocorrelation(chain), abs=1e-12)


def test_constant_chain_the_loop_misses():
    chain = [74.773120472078] * 500
    assert ref.effective_sample_size(chain) < 2.0
    assert effective_sample_size(chain) == 500.0


@pytest.mark.parametrize("subject", ["original", "svf", "ab"])
@pytest.mark.parametrize("model", [spec.name for spec in TABLE1])
def test_table1_mh_chains(model, subject):
    program = next(s for s in TABLE1 if s.name == model).bench()
    if subject != "original":
        program = sli(program, slicer=subject).sliced
    result = MetropolisHastings(n_samples=500, seed=0, compiled=True).infer(program)
    chain = [float(s) for s in result.samples]
    _assert_matches(chain)
    if len(set(chain)) > 1:
        assert split_r_hat([chain]) == pytest.approx(
            ref.split_r_hat([chain]), rel=1e-12
        )


@pytest.mark.parametrize("model", ["Ex3", "NoisyOR", "HIV"])
def test_pooled_mh_numpy_lockstep_draws(model):
    program = sli(next(s for s in TABLE1 if s.name == model).bench()).sliced
    result = MetropolisHastings(
        n_samples=1280, burn_in=100, seed=0, compiled="numpy"
    ).infer(program)
    assert result.chains is not None and len(result.chains) > 1
    _assert_matches([float(s) for s in result.samples])
    chains = [[float(s) for s in chain] for chain in result.chains]
    assert split_r_hat(chains) == pytest.approx(ref.split_r_hat(chains), rel=1e-12)


def test_split_r_hat_matches_on_uneven_and_shifted_chains():
    rng = random.Random(9)
    uneven = [[rng.gauss(0, 1) for _ in range(n)] for n in (200, 150, 151)]
    shifted = [[rng.gauss(10.0 * i, 1) for _ in range(100)] for i in range(2)]
    for chains in (uneven, shifted, [AR1[phi] for phi in sorted(AR1)]):
        assert split_r_hat(chains) == pytest.approx(ref.split_r_hat(chains), rel=1e-12)

