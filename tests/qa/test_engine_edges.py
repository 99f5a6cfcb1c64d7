"""Engine edge cases the fuzzer's oracles rely on.

Three corners every engine must handle predictably, because the QA
oracles (:mod:`repro.qa.oracles`) classify engine behavior into
"answered", "legitimately refused" (:class:`InferenceError` family),
and "crashed" (anything else):

* programs whose every run is blocked by observes (zero normalizer —
  the case Theorem 1 excludes),
* ``while`` loops whose guard is initially false (zero iterations),
* diagnostics over a single-sample result.
"""

from __future__ import annotations

import warnings

import math

import pytest

from repro.core.parser import parse
from repro.inference import (
    ChurchTraceMH,
    GibbsSampler,
    LikelihoodWeighting,
    MetropolisHastings,
    RejectionSampler,
    SMCSampler,
    cross_chain_diagnostics,
)
from repro.inference.base import InferenceError, UnsupportedProgramError
from repro.semantics import exact_inference

BLOCKED = "x ~ Bernoulli(0.5); observe(x && !x); return x;"
#: Same zero-mass posterior, but phrased as the variable/negation
#: evidence patterns the Gibbs compiler accepts.
BLOCKED_EVIDENCE = (
    "x ~ Bernoulli(0.5); y ~ Bernoulli(0.5); "
    "observe(x); observe(!x); return y;"
)
ZERO_ITER = (
    "b = false; n = 0; "
    "while (b) { n = n + 1; b ~ Bernoulli(0.5); } "
    "return n;"
)
PRIOR_ONLY = "x ~ Bernoulli(0.5); return x;"


def small_engines():
    return [
        ("rejection", RejectionSampler(n_samples=40, seed=0, max_attempts=400)),
        ("importance", LikelihoodWeighting(n_samples=40, seed=0)),
        ("mh", MetropolisHastings(n_samples=40, burn_in=10, seed=0)),
        ("church", ChurchTraceMH(n_samples=40, burn_in=10, seed=0)),
        ("gibbs", GibbsSampler(n_samples=40, burn_in=10, seed=0)),
        ("smc", SMCSampler(n_particles=40, seed=0)),
    ]


class TestAllRunsBlocked:
    """Zero-normalizer programs: every engine must refuse with an
    InferenceError subclass — never return samples, never crash with
    an unrelated exception."""

    def test_exact_rejects(self):
        with pytest.raises(ValueError):
            exact_inference(parse(BLOCKED))

    @pytest.mark.parametrize(
        "name,engine", small_engines(), ids=lambda e: e if isinstance(e, str) else ""
    )
    def test_engine_refuses(self, name, engine):
        program = parse(BLOCKED_EVIDENCE if name == "gibbs" else BLOCKED)
        with pytest.raises(InferenceError):
            engine.infer(program)

    def test_gibbs_rejects_non_evidence_pattern(self):
        # The && observe is outside Gibbs's evidence-pattern fragment;
        # the refusal must be the typed UnsupportedProgramError the
        # oracles treat as a skip.
        with pytest.raises(UnsupportedProgramError):
            GibbsSampler(n_samples=40, burn_in=10, seed=0).infer(
                parse(BLOCKED)
            )


class TestZeroIterationWhile:
    """A while whose guard starts false: zero loop-body work, exact
    answer from every engine that supports loops."""

    def test_exact(self):
        dist = exact_inference(parse(ZERO_ITER)).distribution
        assert dist.prob(0) == 1.0

    @pytest.mark.parametrize(
        "name,engine", small_engines(), ids=lambda e: e if isinstance(e, str) else ""
    )
    def test_engine(self, name, engine):
        if name == "gibbs":
            with pytest.raises(UnsupportedProgramError):
                engine.infer(parse(ZERO_ITER))
            return
        result = engine.infer(parse(ZERO_ITER))
        assert set(result.samples) == {0}
        assert result.statements_executed > 0

    def test_compiled_backend(self):
        from repro.semantics.compiled import compile_program
        import random

        run = compile_program(parse(ZERO_ITER)).run(random.Random(0))
        assert run.value == 0


class TestSingleSampleDiagnostics:
    """cross_chain_diagnostics on a one-sample result must degrade
    (nan R-hat, ESS of one draw, RuntimeWarning), not raise."""

    @pytest.mark.parametrize(
        "name,engine",
        [
            ("rejection", RejectionSampler(n_samples=1, seed=0)),
            ("importance", LikelihoodWeighting(n_samples=1, seed=0)),
            ("mh", MetropolisHastings(n_samples=1, burn_in=0, seed=0)),
            ("church", ChurchTraceMH(n_samples=1, burn_in=0, seed=0)),
            ("gibbs", GibbsSampler(n_samples=1, burn_in=0, seed=0)),
            ("smc", SMCSampler(n_particles=1, seed=0)),
        ],
        ids=lambda e: e if isinstance(e, str) else "",
    )
    def test_single_sample(self, name, engine):
        result = engine.infer(parse(PRIOR_ONLY))
        assert len(result.samples) == 1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            summary = cross_chain_diagnostics(result)
        assert math.isnan(summary.r_hat)
        assert summary.ess == 1.0
        assert summary.reason == "zero-variance"
        assert summary.n_samples == 1
        assert any(
            issubclass(w.category, RuntimeWarning) for w in caught
        )

    def test_single_particle_death_is_typed(self):
        # One SMC particle on a hard observe can leave an empty
        # population; that must surface as the typed InferenceError
        # (a skip for the oracles), not a crash.
        with pytest.raises(InferenceError):
            SMCSampler(n_particles=1, seed=0).infer(
                parse("x ~ Bernoulli(0.5); observe(x); return x;")
            )
