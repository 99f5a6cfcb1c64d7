"""MCMC diagnostics tests: split-R-hat, autocorrelation and the
result-level :class:`ChainSummary` reading."""

import math
import random

import pytest

from repro.inference import (
    ChainSummary,
    InferenceResult,
    autocorrelation,
    cross_chain_diagnostics,
    effective_sample_size,
    split_r_hat,
)


def _iid_chain(seed, n=2000, mu=0.0):
    rng = random.Random(seed)
    return [rng.gauss(mu, 1.0) for _ in range(n)]


def _sticky_chain(seed, n=2000, rho=0.99, mu=0.0):
    rng = random.Random(seed)
    xs = [mu]
    for _ in range(n - 1):
        xs.append(mu + rho * (xs[-1] - mu) + math.sqrt(1 - rho**2) * rng.gauss(0, 1))
    return xs


def _summary(chains):
    """ChainSummary of a multi-chain result built from ``chains``."""
    pooled = [x for chain in chains for x in chain]
    chains = list(chains) if len(chains) > 1 else None
    return ChainSummary.of(InferenceResult(samples=pooled, chains=chains))


class TestRHat:
    def test_iid_chains_near_one(self):
        chains = [_iid_chain(s) for s in range(4)]
        assert abs(split_r_hat(chains) - 1.0) < 0.02

    def test_diverged_chains_flagged(self):
        chains = [_iid_chain(0, mu=0.0), _iid_chain(1, mu=5.0)]
        assert split_r_hat(chains) > 1.5

    def test_within_chain_drift_caught_by_split(self):
        # One chain whose mean shifts halfway: split-R-hat sees it even
        # with a single chain.
        drifting = [0.0 + 0.001 * random.Random(0).gauss(0, 1) for _ in range(1000)]
        drifting += [5.0 + 0.001 * random.Random(1).gauss(0, 1) for _ in range(1000)]
        assert split_r_hat([drifting]) > 1.5

    def test_constant_chains(self):
        # Every draw equal: no variance to compare, so no reading.
        assert math.isnan(split_r_hat([[1.0] * 100, [1.0] * 100]))

    def test_stuck_chains_that_disagree_read_infinite(self):
        assert split_r_hat([[3.0] * 200, [4.0] * 200]) == math.inf
        # A single chain whose halves sit at different values, too.
        assert split_r_hat([[3.0] * 100 + [4.0] * 100]) == math.inf

    def test_too_short_chain_rejected(self):
        with pytest.raises(ValueError):
            split_r_hat([[1.0, 2.0]])

    def test_no_chains_rejected(self):
        with pytest.raises(ValueError):
            split_r_hat([])


class TestAutocorrelation:
    def test_lag_zero_is_one(self):
        acf = autocorrelation(_iid_chain(2), max_lag=5)
        assert acf[0] == pytest.approx(1.0)

    def test_iid_decays_immediately(self):
        acf = autocorrelation(_iid_chain(3), max_lag=5)
        assert abs(acf[1]) < 0.1

    def test_sticky_chain_decays_slowly(self):
        acf = autocorrelation(_sticky_chain(4), max_lag=5)
        assert acf[1] > 0.9

    def test_constant_series(self):
        acf = autocorrelation([2.0] * 50, max_lag=3)
        assert acf == [1.0, 0.0, 0.0, 0.0]

    def test_too_short(self):
        with pytest.raises(ValueError):
            autocorrelation([1.0])


class TestSummary:
    def test_summary_fields(self):
        chains = [_iid_chain(s, n=1000) for s in range(3)]
        summary = _summary(chains)
        assert abs(summary.mean) < 0.15
        assert abs(summary.sd - 1.0) < 0.1
        assert summary.n_chains == 3
        assert summary.n_samples == 3000
        assert summary.converged()

    def test_sticky_chains_low_ess(self):
        good = _summary([_iid_chain(0)])
        bad = _summary([_sticky_chain(0)])
        assert bad.ess < good.ess / 5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            _summary([[]])

    def test_on_real_mh_chains(self, burglar):
        from repro.inference import MetropolisHastings

        chains = [
            [
                float(s)
                for s in MetropolisHastings(3000, burn_in=300, seed=seed)
                .infer(burglar)
                .samples
            ]
            for seed in (1, 2, 3)
        ]
        summary = _summary(chains)
        assert summary.converged(threshold=1.1)


class TestCrossChainEdgeCases:
    """cross_chain_diagnostics must degrade (nan + warning), not raise,
    on degenerate runs the strict primitives reject."""

    def test_single_chain_rhat_nan_with_warning(self):
        result = InferenceResult(samples=_iid_chain(0, n=200))
        with pytest.warns(RuntimeWarning, match="single chain"):
            summary = cross_chain_diagnostics(result)
        assert summary.n_chains == 1
        assert summary.n_samples == 200
        assert math.isnan(summary.r_hat)
        assert summary.ess > 0.0  # ESS is still well-defined

    def test_zero_variance_result(self):
        # A chain stuck at its initialization: every sample identical.
        result = InferenceResult(
            samples=[2.0] * 50, chains=[[2.0] * 25, [2.0] * 25]
        )
        with pytest.warns(RuntimeWarning, match="zero variance"):
            summary = cross_chain_diagnostics(result)
        assert math.isnan(summary.r_hat)
        assert summary.ess == 50.0  # the draw count, as for one chain
        assert summary.reason == "zero-variance"
        assert summary.sd == 0.0
        assert summary.mean == pytest.approx(2.0)
        assert summary.n_chains == 2

    def test_too_short_chains_rhat_nan(self):
        # split_r_hat needs >= 4 samples per chain; the wrapper
        # converts its ValueError into nan + warning.
        result = InferenceResult(
            samples=[0.0, 1.0, 2.0, 3.0],
            chains=[[0.0, 1.0], [2.0, 3.0]],
        )
        with pytest.warns(RuntimeWarning, match="unavailable"):
            summary = cross_chain_diagnostics(result)
        assert math.isnan(summary.r_hat)
        assert summary.n_chains == 2

    def test_boolean_samples_coerced(self):
        result = InferenceResult(
            samples=[True, False] * 20,
            chains=[[True, False] * 10, [False, True] * 10],
        )
        summary = cross_chain_diagnostics(result)
        assert summary.mean == pytest.approx(0.5)
        assert summary.r_hat == pytest.approx(1.0, abs=0.3)

    def test_healthy_multichain_unchanged(self):
        chains = [_iid_chain(s, n=500) for s in range(3)]
        result = InferenceResult(
            samples=[x for c in chains for x in c], chains=chains
        )
        summary = cross_chain_diagnostics(result)
        assert not math.isnan(summary.r_hat)
        assert abs(summary.r_hat - 1.0) < 0.05

    def test_stuck_chains_never_pass_as_converged(self):
        # Two 200-draw chains stuck at 3.0 and 4.0 once read ess=400,
        # r_hat=1.0 and converged() True.
        result = InferenceResult(
            samples=[3.0] * 200 + [4.0] * 200,
            chains=[[3.0] * 200, [4.0] * 200],
        )
        with pytest.warns(RuntimeWarning, match="disagree"):
            summary = cross_chain_diagnostics(result)
        assert summary.ess == pytest.approx(3.0, abs=1e-3)
        assert summary.r_hat == math.inf
        assert summary.reason == "stuck-chains"
        assert not summary.converged()

    def test_constant_chain_reads_one_ess_everywhere(self):
        # One constant 400-draw chain once read ESS 400 from
        # effective_sample_size and 0.0 from cross_chain_diagnostics.
        result = InferenceResult(samples=[2.0] * 400)
        with pytest.warns(RuntimeWarning, match="zero variance"):
            summary = cross_chain_diagnostics(result)
        assert summary.ess == effective_sample_size(result.samples) == 400.0
        assert summary.reason == "zero-variance"

    def test_pooled_ess_in_chain_order(self):
        chains = [_sticky_chain(s, n=500) for s in range(2)]
        pooled = [x for c in chains for x in c]
        summary = _summary(chains)
        assert summary.ess == effective_sample_size(pooled)
        assert summary.reason is None

    def test_weighted_ess_is_kish_capped_by_lineages(self):
        result = InferenceResult(
            samples=[1.0, 2.0, 3.0, 4.0], weights=[1.0] * 4, lineages=2
        )
        assert ChainSummary.of(result).ess == 2.0
        result.lineages = None
        assert ChainSummary.of(result).ess == pytest.approx(4.0)

    def test_non_scalar_draws_rejected(self):
        with pytest.raises(ValueError, match="not scalar"):
            ChainSummary.of(InferenceResult(samples=[(1, 2), (3, 4)]))

    def test_empty_still_raises(self):
        with pytest.raises(ValueError):
            cross_chain_diagnostics(InferenceResult(samples=[]))
