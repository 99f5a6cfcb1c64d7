"""The compiled executor must be observationally identical to the
interpreter: same values, same log likelihoods, same traces at the
same addresses, same statement counts, same RNG consumption — on fresh
runs, on replays, under the relaxed ``observe_penalty`` mode, and
through the SMC particle protocol."""

import random

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.parser import parse
from repro.dists import DistributionError
from repro.inference.importance import LikelihoodWeighting
from repro.inference.mh import MetropolisHastings
from repro.inference.smc import SMCSampler
from repro.models.registry import TABLE1
from repro.semantics.compiled import compile_program
from repro.semantics.executor import (
    ExecutorOptions,
    NonTerminatingRun,
    ParticleRun,
    interpreted_particle,
    run_program,
)
from repro.semantics.values import EvalError

from tests.strategies import programs

_OPTS = ExecutorOptions(max_loop_iterations=10_000)


def _assert_same_run(a, b):
    assert a.value == b.value
    assert a.log_likelihood == b.log_likelihood
    assert a.trace == b.trace
    assert a.statements_executed == b.statements_executed
    assert a.violations == b.violations


def _registry_programs():
    out = []
    for spec in TABLE1:
        for variant in ("paper", "bench"):
            try:
                out.append((f"{spec.name}-{variant}", getattr(spec, variant)()))
            except Exception:
                continue
    return out


_REGISTRY = _registry_programs()


class TestRunEquivalence:
    @pytest.mark.parametrize(
        "program", [p for _, p in _REGISTRY], ids=[n for n, _ in _REGISTRY]
    )
    def test_fresh_runs_match_on_registry_models(self, program):
        compiled = compile_program(program)
        for seed in (1234, 7):
            r1, r2 = random.Random(seed), random.Random(seed)
            _assert_same_run(
                run_program(program, r1, options=_OPTS),
                compiled.run(r2, options=_OPTS),
            )
            # Identical RNG consumption: the streams stay in lockstep.
            assert r1.random() == r2.random()

    @pytest.mark.parametrize(
        "program", [p for _, p in _REGISTRY], ids=[n for n, _ in _REGISTRY]
    )
    def test_replay_matches_on_registry_models(self, program):
        compiled = compile_program(program)
        base = run_program(program, random.Random(5), options=_OPTS).trace
        r1, r2 = random.Random(42), random.Random(42)
        _assert_same_run(
            run_program(program, r1, base_trace=base, options=_OPTS),
            compiled.run(r2, base_trace=base, options=_OPTS),
        )

    @given(programs())
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_fresh_runs_match_on_random_programs(self, program):
        compiled = compile_program(program)
        for seed in (0, 31337):
            r1, r2 = random.Random(seed), random.Random(seed)
            _assert_same_run(
                run_program(program, r1, options=_OPTS),
                compiled.run(r2, options=_OPTS),
            )
            assert r1.random() == r2.random()

    def test_penalty_mode_matches(self):
        program = parse(
            """
bool c1, c2;
float x;
c1 ~ Bernoulli(0.5);
c2 ~ Bernoulli(0.5);
observe(c1);
observe(c2);
x ~ Gaussian(0.0, 1.0);
observe(Gaussian(x, 1.0), 0.5);
return c1 && c2;
"""
        )
        compiled = compile_program(program)
        for seed in range(20):
            for penalty in (None, 2.5):
                opts = ExecutorOptions(observe_penalty=penalty)
                r1, r2 = random.Random(seed), random.Random(seed)
                _assert_same_run(
                    run_program(program, r1, options=opts),
                    compiled.run(r2, options=opts),
                )

    def test_blocked_run_matches(self):
        program = parse(
            "bool c;\nc ~ Bernoulli(0.0);\nobserve(c);\nreturn c;"
        )
        compiled = compile_program(program)
        run = compiled.run(random.Random(0))
        assert run.blocked and run.value is None
        _assert_same_run(run_program(program, random.Random(0)), run)

    def test_loop_cap_raises_nonterminating(self):
        program = parse(
            "bool c;\nc ~ Bernoulli(1.0);\nwhile (c) { c ~ Bernoulli(1.0); }\nreturn c;"
        )
        compiled = compile_program(program)
        opts = ExecutorOptions(max_loop_iterations=10)
        with pytest.raises(NonTerminatingRun):
            compiled.run(random.Random(0), options=opts)

    def test_division_by_zero_raises_evalerror(self):
        program = parse(
            "int n, m;\nn ~ DiscreteUniform(0, 0);\nm = 1 / n;\nreturn m;"
        )
        compiled = compile_program(program)
        with pytest.raises(EvalError):
            compiled.run(random.Random(0))

    def test_compile_cache_is_identity_keyed(self):
        program = parse("bool c;\nc ~ Bernoulli(0.5);\nreturn c;")
        assert compile_program(program) is compile_program(program)


def _assert_same_particles(program, seed, base_trace=None):
    """Drive an interpreter particle and a compiled one in lockstep:
    at every barrier the same increment, statements and trace; at the
    end the same value, or the same error at the same barrier."""
    compiled = compile_program(program)
    r1, r2 = random.Random(seed), random.Random(seed)
    interp = ParticleRun(interpreted_particle(program), r1, base_trace, 10_000)
    comp = ParticleRun(compiled.particle, r2, base_trace, 10_000)
    while True:
        try:
            da = interp.advance()
        except (EvalError, DistributionError, NonTerminatingRun) as exc:
            with pytest.raises(type(exc)):
                comp.advance()
            return
        db = comp.advance()
        # ``repr``: the same bits, NaN and the sign of zero included.
        assert repr(da) == repr(db)
        assert interp.statements == comp.statements
        assert interp.trace == comp.trace
        interp.statements = comp.statements = 0
        if da is None:
            break
    assert repr(interp.value) == repr(comp.value)
    assert r1.random() == r2.random()


class TestParticleEquivalence:
    @pytest.mark.parametrize(
        "program", [p for _, p in _REGISTRY], ids=[n for n, _ in _REGISTRY]
    )
    def test_barrier_protocol_matches(self, program):
        _assert_same_particles(program, seed=9)

    @given(programs())
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_barrier_protocol_matches_on_random_programs(self, program):
        for seed in (0, 31337):
            _assert_same_particles(program, seed)
            # A clone: a first run's trace replayed, then fresh draws.
            try:
                first = run_program(program, random.Random(seed), options=_OPTS)
            except (EvalError, DistributionError, NonTerminatingRun):
                continue
            _assert_same_particles(program, seed + 1, first.trace)


class TestEngineEquivalence:
    def _program(self):
        return parse(
            """
bool d, g, l;
d ~ Bernoulli(0.6);
if (d) { g ~ Bernoulli(0.3); } else { g ~ Bernoulli(0.8); }
observe(Gaussian(0.0, 1.0), 0.5);
l ~ Bernoulli(0.5);
observe(g || l);
return d;
"""
        )

    def test_likelihood_weighting(self):
        program = self._program()
        a = LikelihoodWeighting(n_samples=400, seed=3).infer(program)
        b = LikelihoodWeighting(n_samples=400, seed=3, compiled=True).infer(program)
        assert a.samples == b.samples
        assert a.weights == b.weights
        assert a.statements_executed == b.statements_executed

    def test_metropolis_hastings(self):
        program = self._program()
        a = MetropolisHastings(n_samples=80, burn_in=20, seed=11).infer(program)
        b = MetropolisHastings(
            n_samples=80, burn_in=20, seed=11, compiled=True
        ).infer(program)
        assert a.samples == b.samples
        assert a.n_accepted == b.n_accepted
        assert a.statements_executed == b.statements_executed

    def test_smc(self):
        program = self._program()
        a = SMCSampler(n_particles=120, seed=5).infer(program)
        b = SMCSampler(n_particles=120, seed=5, compiled=True).infer(program)
        assert a.samples == b.samples
        assert a.weights == b.weights
        assert a.statements_executed == b.statements_executed
