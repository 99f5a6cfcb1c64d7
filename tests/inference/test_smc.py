"""Sequential Monte Carlo engine tests."""

import math

import pytest

from repro.core.parser import parse
from repro.inference import LikelihoodWeighting, SMCSampler
from repro.inference.base import InferenceError
from repro.semantics import exact_inference


class TestCorrectness:
    def test_matches_exact_example2(self, ex2):
        r = SMCSampler(6000, seed=1).infer(ex2)
        exact = exact_inference(ex2).distribution
        assert r.distribution().tv_distance(exact) < 0.03

    def test_matches_exact_example4(self, ex4):
        r = SMCSampler(8000, seed=2).infer(ex4)
        exact = exact_inference(ex4).distribution
        assert r.distribution().tv_distance(exact) < 0.04

    def test_loopy_example6(self, ex6):
        r = SMCSampler(6000, seed=3).infer(ex6)
        exact = exact_inference(ex6).distribution
        assert r.distribution().tv_distance(exact) < 0.03

    def test_soft_conditioning(self):
        p = parse(
            """
mu ~ Gaussian(0.0, 100.0);
observe(Gaussian(mu, 1.0), 2.5);
observe(Gaussian(mu, 1.0), 3.5);
return mu;
"""
        )
        r = SMCSampler(20000, seed=4).infer(p)
        assert abs(r.mean() - 2.985) < 0.3

    def test_interleaved_hard_constraints(self):
        # A constraint chain rejection cannot survive: SMC's
        # resampling replenishes the population after every observe.
        lines = ["float s0, s1, s2;"]
        for i in range(3):
            lines.append(f"s{i} ~ Gaussian(25.0, 69.4);")
        k = 0
        for w, l in [(0, 1), (1, 2)] * 8:
            lines.append(f"pw{k} ~ Gaussian(s{w}, 17.4);")
            lines.append(f"pl{k} ~ Gaussian(s{l}, 17.4);")
            lines.append(f"observe(pw{k} > pl{k});")
            k += 1
        lines.append("return s0 - s2;")
        r = SMCSampler(3000, seed=5).infer(parse("\n".join(lines)))
        assert r.n_accepted == 3000  # full population survives
        assert r.mean() > 5.0  # s0 clearly stronger than s2

    def test_deterministic_program(self):
        r = SMCSampler(10, seed=0).infer(parse("x = 41; return x + 1;"))
        assert set(r.samples) == {42}


class TestMechanics:
    def test_population_replenished_after_deaths(self, burglar):
        r = SMCSampler(2000, seed=6).infer(burglar)
        assert r.n_accepted == 2000

    def test_zero_mass_program_raises(self):
        p = parse("x ~ Bernoulli(0.5); observe(x && !x); return x;")
        with pytest.raises(InferenceError):
            SMCSampler(100, seed=0).infer(p)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SMCSampler(0)
        with pytest.raises(ValueError):
            SMCSampler(10, ess_threshold=1.5)

    def test_deterministic_given_seed(self, ex2):
        a = SMCSampler(500, seed=9).infer(ex2)
        b = SMCSampler(500, seed=9).infer(ex2)
        assert a.samples == b.samples
        assert a.weights == b.weights

    def test_nonterminating_particles_dropped(self, comparison):
        # while (!x) skip: half the particles spin forever; SMC drops
        # them at the loop cap and the rest answer correctly.
        smc = SMCSampler(500, seed=7, max_loop_iterations=200)
        r = smc.infer(comparison)
        assert r.distribution().prob(True) > 0.55

    def test_work_accounting_positive(self, ex2):
        r = SMCSampler(200, seed=8).infer(ex2)
        assert r.statements_executed > 200


class TestUnderflowedPriorDraws:
    """``Gamma(0.001, 1.0)`` returns exactly 0.0 about half the time
    (float underflow), a value whose log density is ``-inf``.  A clone
    replays it as recorded, so it is a copy of its source.  Redrawing
    it instead (the interpreter's former particle) read P(x == 0) 0.14
    against likelihood weighting's 0.49; blocking it (the closures'
    former particle) raised out of SMC."""

    SOURCE = """
float x, y, z;
x ~ Gamma(0.001, 1.0);
y ~ Gaussian(x, 1.0);
observe(Gaussian(y, 0.01), 2.5);
z ~ Gaussian(y, 1.0);
observe(Gaussian(z, 0.01), 2.3);
return x;
"""

    @staticmethod
    def _p_zero(result):
        total = sum(result.weights)
        return sum(w for s, w in zip(result.samples, result.weights) if s == 0.0) / total

    def test_every_backend_agrees_with_likelihood_weighting(self):
        program = parse(self.SOURCE)
        lw = self._p_zero(
            LikelihoodWeighting(200_000, seed=0, compiled="numpy").infer(program)
        )
        runs = {
            backend: [
                SMCSampler(200, seed=seed, compiled=backend).infer(program)
                for seed in range(100)
            ]
            for backend in (False, True, "numpy")
        }
        for backend, results in runs.items():
            p_zero = sum(self._p_zero(r) for r in results) / len(results)
            assert abs(p_zero - lw) < 0.1, backend
        for a, b in zip(runs[False], runs[True]):
            assert a.samples == b.samples
            assert a.weights == b.weights
            assert a.statements_executed == b.statements_executed

