"""Single-site Metropolis-Hastings ("R2") tests."""

import math

import pytest

from repro.core.parser import parse
from repro.inference import (
    InferenceTimeout,
    InitializationError,
    MetropolisHastings,
)
from repro.semantics import exact_inference


class TestCorrectness:
    def test_matches_exact_example2(self, ex2):
        r = MetropolisHastings(n_samples=15000, burn_in=1000, seed=1).infer(ex2)
        exact = exact_inference(ex2).distribution
        assert r.distribution().tv_distance(exact) < 0.02

    def test_matches_exact_example4(self, ex4):
        r = MetropolisHastings(n_samples=20000, burn_in=1000, seed=2).infer(ex4)
        exact = exact_inference(ex4).distribution
        assert r.distribution().tv_distance(exact) < 0.03

    def test_conjugate_gaussian_mean(self):
        p = parse(
            """
mu ~ Gaussian(0.0, 100.0);
observe(Gaussian(mu, 1.0), 2.5);
observe(Gaussian(mu, 1.0), 3.5);
return mu;
"""
        )
        r = MetropolisHastings(n_samples=30000, burn_in=3000, seed=3).infer(p)
        assert abs(r.mean() - 2.985) < 0.15

    def test_loopy_program(self, ex6):
        # Example 6 needs global moves for ergodicity (the return flag
        # and loop parity flip jointly); use a generous share of them.
        r = MetropolisHastings(
            n_samples=20000, burn_in=1000, seed=4, global_move_prob=0.3
        ).infer(ex6)
        exact = exact_inference(ex6).distribution
        assert r.distribution().tv_distance(exact) < 0.03

    def test_loopy_program_reducible_without_global_moves(self, ex6):
        # Documents the pathology: with pure single-site proposals the
        # chain cannot leave its initial parity class.
        r = MetropolisHastings(
            n_samples=5000, burn_in=500, seed=4, global_move_prob=0.0
        ).infer(ex6)
        assert len(set(r.samples)) == 1

    def test_program_with_no_sample_sites(self):
        p = parse("x = 3; return x;")
        r = MetropolisHastings(n_samples=50, burn_in=0, seed=0).infer(p)
        assert set(r.samples) == {3}


class TestMechanics:
    def test_sample_count(self, ex2):
        r = MetropolisHastings(n_samples=500, burn_in=100, seed=0).infer(ex2)
        assert len(r.samples) == 500

    def test_thinning(self, ex2):
        r = MetropolisHastings(n_samples=100, burn_in=0, thin=5, seed=0).infer(ex2)
        assert len(r.samples) == 100
        assert r.n_proposals == 500

    def test_deterministic_given_seed(self, ex2):
        a = MetropolisHastings(n_samples=300, burn_in=50, seed=9).infer(ex2)
        b = MetropolisHastings(n_samples=300, burn_in=50, seed=9).infer(ex2)
        assert a.samples == b.samples

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            MetropolisHastings(n_samples=0)
        with pytest.raises(ValueError):
            MetropolisHastings(thin=0)

    def test_timeout_raises(self, ex4):
        with pytest.raises(InferenceTimeout):
            MetropolisHastings(
                n_samples=10_000_000, burn_in=0, seed=0, time_budget=0.05
            ).infer(ex4)

    def test_impossible_constraints_fail_initialization(self):
        p = parse("x ~ Bernoulli(0.5); observe(x && !x); return x;")
        engine = MetropolisHastings(
            n_samples=10,
            seed=0,
            max_init_attempts=50,
            anneal_rounds=3,
            anneal_steps_per_site=5,
        )
        with pytest.raises(InitializationError):
            engine.infer(p)


class TestAnnealedInitialization:
    def test_constraint_chain_initializes(self):
        # A rejection-infeasible conjunction of hard constraints.
        lines = []
        for i in range(12):
            lines.append(f"c{i} ~ Bernoulli(0.5);")
            lines.append(f"observe(c{i});")
        lines.append("return c0;")
        p = parse("\n".join(lines))
        # Direct rejection needs ~2^12 tries; cap below that.
        engine = MetropolisHastings(
            n_samples=200, burn_in=50, seed=5, max_init_attempts=20
        )
        r = engine.infer(p)
        assert all(s is True for s in r.samples)

    def test_ordering_constraints(self):
        # skills chain: s0 > s1 > s2 via noisy comparisons.
        src = """
s0 ~ Gaussian(0.0, 25.0);
s1 ~ Gaussian(0.0, 25.0);
s2 ~ Gaussian(0.0, 25.0);
"""
        k = 0
        for a, b in [(0, 1), (1, 2)] * 6:
            src += f"pa{k} ~ Gaussian(s{a}, 2.0);\n"
            src += f"pb{k} ~ Gaussian(s{b}, 2.0);\n"
            src += f"observe(pa{k} > pb{k});\n"
            k += 1
        src += "return s0 - s2;"
        p = parse(src)
        engine = MetropolisHastings(
            n_samples=3000, burn_in=2000, seed=6, max_init_attempts=100
        )
        r = engine.infer(p)
        assert r.mean() > 0.0


class TestSupportLoss:
    """A replayed site whose support depends on an earlier draw: when a
    proposal leaves the replayed value without mass, the state has zero
    density and the proposal is rejected.  (Drawing the value afresh
    instead, outside the Hastings ratio, read mean 0.544 and 2.171.)"""

    CONTINUOUS = "x ~ Uniform(0.0, 2.0); y ~ Uniform(0.0, x); return x;"
    DISCRETE = "n ~ DiscreteUniform(1, 4); k ~ DiscreteUniform(0, n); return n;"

    ENGINES = [
        pytest.param(dict(compiled=False), id="interpreter"),
        pytest.param(dict(compiled=True), id="closure"),
        pytest.param(dict(compiled="numpy"), id="numpy"),
        pytest.param(dict(church=True), id="church-mh"),
    ]

    @staticmethod
    def _mean(source, settings):
        from repro.inference.tracemh import ChurchTraceMH

        settings = dict(settings)
        cls = ChurchTraceMH if settings.pop("church", False) else MetropolisHastings
        engine = cls(n_samples=20_000, burn_in=1000, seed=1, **settings)
        return engine.infer(parse(source)).mean()

    @pytest.mark.parametrize("settings", ENGINES)
    def test_continuous_support(self, settings):
        # x's marginal is its Uniform(0, 2) prior: exact mean 1.0.
        assert abs(self._mean(self.CONTINUOUS, settings) - 1.0) < 0.1

    @pytest.mark.parametrize("settings", ENGINES)
    def test_discrete_support(self, settings):
        exact = exact_inference(parse(self.DISCRETE)).distribution.expectation()
        assert exact == pytest.approx(2.5)
        assert abs(self._mean(self.DISCRETE, settings) - exact) < 0.1
