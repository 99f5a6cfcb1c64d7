"""``compiled="numpy"`` engine runs must agree with their closure-backend
twins *statistically* (the PCG64 and Mersenne streams never bit-match)
and must fall back — visibly, via obs counters — whenever a program
sits outside the vectorizable fragment."""

import numpy as np
import pytest

from repro.core.parser import parse
from repro.inference.base import InferenceError
from repro.inference.importance import LikelihoodWeighting
from repro.inference.mh import MetropolisHastings
from repro.inference.rejection import RejectionSampler
from repro.inference.smc import SMCSampler
from repro.inference.tracemh import ChurchTraceMH
from repro.models.registry import TABLE1
from repro.obs.recorder import TraceRecorder, use_recorder
from repro.transforms import sli

# A bounded-loop conjugate-ish model: vectorizable, non-trivial posterior.
_MODEL = parse(
    """
float mu;
mu ~ Gaussian(0.0, 4.0);
observe(Gaussian(mu, 1.0), 1.2);
observe(Gaussian(mu, 1.0), 0.8);
return mu;
"""
)

# Exact posterior of _MODEL: Gaussian with variance 4/9, mean 8/9.
_POST_MEAN = 8.0 / 9.0
_POST_VAR = 4.0 / 9.0

# Data-dependent loop: outside the fragment, must fall back.
_LOOPY = parse(
    """
bool c;
int i;
c ~ Bernoulli(0.5);
i = 0;
while (c) {
  c ~ Bernoulli(0.5);
  i = i + 1;
}
return i;
"""
)

_DISCRETE = parse(
    """
bool a;
bool b;
a ~ Bernoulli(0.5);
b ~ Bernoulli(0.7);
observe(a || b);
return a;
"""
)
_DISCRETE_TRUTH = 0.5 / 0.85  # P(a | a or b)


def _mean(result):
    return float(np.average(result.samples, weights=result.weights))


class TestStatisticalAgreement:
    @pytest.mark.parametrize(
        "engine_cls,kwargs",
        [
            # (RejectionSampler needs hard observes; it is covered by the
            # discrete-model test below.)
            (LikelihoodWeighting, dict(n_samples=4000)),
            (MetropolisHastings, dict(n_samples=4000, burn_in=500)),
            (SMCSampler, dict(n_particles=4000)),
        ],
    )
    def test_numpy_posterior_matches_exact(self, engine_cls, kwargs):
        result = engine_cls(seed=3, compiled="numpy", **kwargs).infer(_MODEL)
        assert abs(_mean(result) - _POST_MEAN) < 0.12
        assert result.n_proposals > 0

    @pytest.mark.parametrize(
        "engine_cls,kwargs",
        [
            (RejectionSampler, dict(n_samples=3000)),
            (LikelihoodWeighting, dict(n_samples=3000)),
            (MetropolisHastings, dict(n_samples=3000, burn_in=300)),
            (SMCSampler, dict(n_particles=3000)),
        ],
    )
    def test_numpy_matches_closure_on_discrete(self, engine_cls, kwargs):
        numpy_res = engine_cls(seed=5, compiled="numpy", **kwargs).infer(_DISCRETE)
        closure_res = engine_cls(seed=5, compiled=True, **kwargs).infer(_DISCRETE)
        p_numpy = float(np.average(numpy_res.samples, weights=numpy_res.weights))
        p_closure = float(
            np.average(closure_res.samples, weights=closure_res.weights)
        )
        assert abs(p_numpy - _DISCRETE_TRUTH) < 0.07
        assert abs(p_numpy - p_closure) < 0.12


class TestEngineSpecifics:
    def test_rejection_exhaustion_message_is_preserved(self):
        impossible = parse(
            "bool c;\nc ~ Bernoulli(0.5);\nobserve(c && !c);\nreturn c;"
        )
        engine = RejectionSampler(
            n_samples=10, seed=0, max_attempts=200, compiled="numpy"
        )
        with pytest.raises(InferenceError, match="exhausted 200 attempts"):
            engine.infer(impossible)

    def test_lw_zero_weights_error_is_preserved(self):
        impossible = parse(
            "bool c;\nc ~ Bernoulli(0.5);\nobserve(c && !c);\nreturn c;"
        )
        engine = LikelihoodWeighting(n_samples=64, seed=0, compiled="numpy")
        with pytest.raises(InferenceError, match="zero"):
            engine.infer(impossible)

    def test_mh_reports_lockstep_chains(self):
        engine = MetropolisHastings(
            n_samples=256, burn_in=50, seed=1, compiled="numpy", batch_chains=8
        )
        result = engine.infer(_MODEL)
        assert result.chains is not None and len(result.chains) == 8
        assert sum(len(c) for c in result.chains) == len(result.samples) == 256

    def test_smc_all_dead_raises(self):
        impossible = parse(
            "bool c;\nc ~ Bernoulli(0.5);\nobserve(c && !c);\nreturn c;"
        )
        engine = SMCSampler(n_particles=32, seed=0, compiled="numpy")
        with pytest.raises(InferenceError):
            engine.infer(impossible)


class TestFallback:
    @pytest.mark.parametrize(
        "engine_cls,kwargs",
        [
            (RejectionSampler, dict(n_samples=200)),
            (LikelihoodWeighting, dict(n_samples=200)),
            (MetropolisHastings, dict(n_samples=200, burn_in=20)),
            (SMCSampler, dict(n_particles=200)),
        ],
    )
    def test_nonvectorizable_falls_back_with_counters(self, engine_cls, kwargs):
        engine = engine_cls(seed=2, compiled="numpy", **kwargs)
        recorder = TraceRecorder()
        with use_recorder(recorder):
            result = engine.infer(_LOOPY)
        assert len(result.samples) == kwargs.get(
            "n_samples", kwargs.get("n_particles")
        )
        assert recorder.counters.get(f"vectorized.fallback.{engine.name}") == 1
        reason_keys = [
            k for k in recorder.counters if k.startswith("vectorized.fallback.reason.")
        ]
        assert reason_keys == ["vectorized.fallback.reason.while.data-dependent"]
        assert f"vectorized.used.{engine.name}" not in recorder.counters

    @pytest.mark.parametrize(
        "engine_cls,kwargs",
        [
            (RejectionSampler, dict(n_samples=200)),
            (SMCSampler, dict(n_particles=200)),
        ],
    )
    def test_vectorizable_records_used_counter(self, engine_cls, kwargs):
        engine = engine_cls(seed=2, compiled="numpy", **kwargs)
        recorder = TraceRecorder()
        with use_recorder(recorder):
            engine.infer(_DISCRETE)
        assert recorder.counters.get(f"vectorized.used.{engine.name}") == 1
        assert f"vectorized.fallback.{engine.name}" not in recorder.counters

    def test_every_table1_program_vectorizes(self):
        """Likelihood weighting takes the array backend on every Table-1
        program, original and sliced, with no fallback of any kind."""
        recorder = TraceRecorder()
        with use_recorder(recorder):
            for spec in TABLE1:
                for program in (spec.bench(), sli(spec.bench()).sliced):
                    engine = LikelihoodWeighting(n_samples=100, seed=0, compiled="numpy")
                    try:
                        engine.infer(program)
                    except InferenceError:
                        pass  # zero LW mass (TrueSkill) still vectorized
        used = recorder.counters.get("vectorized.used.likelihood-weighting", 0)
        assert used == 2 * len(TABLE1), recorder.counters
        fallbacks = [k for k in recorder.counters if k.startswith("vectorized.fallback.")]
        assert not fallbacks, fallbacks

    def test_compiled_true_never_vectorizes(self):
        recorder = TraceRecorder()
        with use_recorder(recorder):
            RejectionSampler(n_samples=100, seed=0, compiled=True).infer(_DISCRETE)
        assert not any(k.startswith("vectorized.") for k in recorder.counters)

    def test_church_mh_always_takes_the_scalar_path(self):
        engine = ChurchTraceMH(
            n_samples=100, burn_in=10, seed=0, compiled="numpy"
        )
        recorder = TraceRecorder()
        with use_recorder(recorder):
            result = engine.infer(_MODEL)
        assert len(result.samples) == 100
        assert not any(k.startswith("vectorized.") for k in recorder.counters)
