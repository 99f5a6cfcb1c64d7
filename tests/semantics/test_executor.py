"""Forward executor and trace replay tests."""

import math
import random

import pytest

from repro.core.parser import parse
from repro.semantics.distribution import FiniteDist
from repro.semantics.executor import (
    ExecutorOptions,
    NonTerminatingRun,
    run_program,
)
from repro.semantics.compiled import compile_program
from repro.semantics.exact import exact_inference
from repro.semantics.trace import TraceEntry, total_log_prior


class TestForwardRuns:
    def test_deterministic_program(self):
        r = run_program(parse("x = 1; y = x * 3; return y;"), random.Random(0))
        assert r.value == 3
        assert r.log_likelihood == 0.0
        assert r.trace == {}

    def test_sample_recorded_in_trace(self):
        r = run_program(parse("x ~ Bernoulli(0.5); return x;"), random.Random(0))
        assert len(r.trace) == 1
        entry = next(iter(r.trace.values()))
        assert entry.dist_name == "Bernoulli"
        assert math.isclose(entry.log_prior, math.log(0.5))

    def test_blocked_run(self):
        p = parse("x ~ Bernoulli(0.5); observe(x && !x); return x;")
        r = run_program(p, random.Random(0))
        assert r.blocked
        assert r.value is None
        assert r.log_joint == float("-inf")

    def test_statement_counting(self):
        p = parse("x = 1; y = 2; z = x + y; return z;")
        r = run_program(p, random.Random(0))
        assert r.statements_executed == 3

    def test_only_taken_branch_executes(self):
        p = parse("c = true; if (c) { x = 1; } else { x = 2; } return x;")
        r = run_program(p, random.Random(0))
        assert r.value == 1

    def test_soft_observe_accumulates_density(self):
        p = parse("mu = 1.0; observe(Gaussian(mu, 1.0), 1.0); return mu;")
        r = run_program(p, random.Random(0))
        assert math.isclose(r.log_likelihood, -0.5 * math.log(2 * math.pi))

    def test_factor_adds_to_likelihood(self):
        p = parse("factor(-2.5); return 1;")
        r = run_program(p, random.Random(0))
        assert math.isclose(r.log_likelihood, -2.5)

    def test_forward_sampling_matches_exact(self, ex1):
        rng = random.Random(42)
        samples = [run_program(ex1, rng).value for _ in range(4000)]
        empirical = FiniteDist.from_samples(samples)
        exact = exact_inference(ex1).distribution
        assert empirical.tv_distance(exact) < 0.03

    def test_loop_iteration_cap(self):
        p = parse("b = true; while (b) { skip; } return b;")
        with pytest.raises(NonTerminatingRun):
            run_program(p, random.Random(0), options=ExecutorOptions(
                max_loop_iterations=10
            ))

    def test_loop_addresses_distinct_per_iteration(self):
        p = parse(
            """
int n;
n = 0;
c ~ Bernoulli(0.8);
while (c) { n = n + 1; c ~ Bernoulli(0.8); }
return n;
"""
        )
        r = run_program(p, random.Random(5))
        # one address per loop-carried sample plus the initial one
        assert len(r.trace) == r.value + 1


class TestReplay:
    def test_full_replay_reproduces_run(self):
        p = parse(
            "x ~ Gaussian(0.0, 1.0); y ~ Gaussian(x, 1.0); return x + y;"
        )
        first = run_program(p, random.Random(1))
        replay = run_program(p, random.Random(2), base_trace=first.trace)
        assert replay.value == first.value
        assert replay.trace == first.trace

    def test_partial_replay_resamples_missing_sites(self):
        p = parse("x ~ Gaussian(0.0, 1.0); y ~ Gaussian(0.0, 1.0); return x;")
        first = run_program(p, random.Random(1))
        partial = dict(first.trace)
        removed = next(iter(partial))
        del partial[removed]
        replay = run_program(p, random.Random(99), base_trace=partial)
        assert replay.trace.keys() == first.trace.keys()

    def test_replay_rescores_under_new_params(self):
        p = parse("x ~ Bernoulli(0.5); y ~ Bernoulli(0.9); return y;")
        first = run_program(p, random.Random(3))
        replay = run_program(p, random.Random(4), base_trace=first.trace)
        assert replay.log_joint == pytest.approx(first.log_joint)

    def test_incompatible_dist_resampled(self):
        p1 = parse("x ~ Bernoulli(0.5); return x;")
        p2 = parse("x ~ Gaussian(0.0, 1.0); return x;")
        r1 = run_program(p1, random.Random(0))
        r2 = run_program(p2, random.Random(0), base_trace=r1.trace)
        entry = next(iter(r2.trace.values()))
        assert entry.dist_name == "Gaussian"

    def test_out_of_support_value_blocks_the_run(self):
        # A replayed value with no mass under the site's parameters
        # leaves a zero-density state: the run is blocked, with no
        # fresh draw (MH's Hastings ratio would not count one).
        wide = parse("x ~ DiscreteUniform(0, 9); y ~ Bernoulli(0.5); return x;")
        narrow = parse("x ~ DiscreteUniform(100, 101); y ~ Bernoulli(0.5); return x;")
        r1 = run_program(wide, random.Random(0))
        rng = random.Random(1)
        r2 = run_program(narrow, rng, base_trace=r1.trace)
        assert r2.blocked and r2.value is None
        assert r2.statements_executed == 1
        assert rng.random() == random.Random(1).random()

    def test_value_that_never_had_mass_replays_as_recorded(self):
        # Recorded with log density -inf (a prior draw that underflowed,
        # say): the value lost nothing, so it replays, on both scalar
        # backends, and no fresh draw is made.
        program = parse("x ~ DiscreteUniform(100, 101); return x;")
        (address,) = run_program(program, random.Random(0)).trace
        base = {address: TraceEntry(5, float("-inf"), "DiscreteUniform")}
        for run in (
            lambda rng: run_program(program, rng, base_trace=base),
            lambda rng: compile_program(program).run(rng, base_trace=base),
        ):
            rng = random.Random(1)
            r = run(rng)
            assert not r.blocked and r.value == 5
            assert r.trace == base
            assert r.log_joint == float("-inf")
            assert rng.random() == random.Random(1).random()


class TestPenaltyMode:
    def test_violations_counted(self):
        p = parse(
            "x = false; observe(x); observe(x); return x;"
        )
        r = run_program(
            p, random.Random(0), options=ExecutorOptions(observe_penalty=3.0)
        )
        assert r.violations == 2
        assert math.isclose(r.log_likelihood, -6.0)
        assert not r.blocked
        assert r.value is False

    def test_satisfied_observes_cost_nothing(self):
        p = parse("x = true; observe(x); return x;")
        r = run_program(
            p, random.Random(0), options=ExecutorOptions(observe_penalty=3.0)
        )
        assert r.violations == 0
        assert r.log_likelihood == 0.0


class TestTraceHelpers:
    def test_total_log_prior(self):
        trace = {
            ("a",): TraceEntry(True, -1.0, "Bernoulli"),
            ("b",): TraceEntry(False, -2.0, "Bernoulli"),
        }
        assert total_log_prior(trace) == -3.0
