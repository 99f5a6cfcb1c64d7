"""Incremental single-site MH (:mod:`repro.semantics.incremental`):
a closure-backend proposal re-runs only the moved site's dependence
cone, and the chain stays the full re-run's, bit for bit."""

import gc
import random
import weakref
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.parser import parse
from repro.dists import DistributionError
from repro.inference import MetropolisHastings
from repro.inference.tracemh import ChurchTraceMH
from repro.models.registry import TABLE1
from repro.obs.recorder import TraceRecorder, use_recorder
from repro.qa.generate import DEFAULT_CONFIG, iter_corpus, programs
from repro.semantics import compiled as compiled_module
from repro.semantics.compiled import clear_compile_cache, compile_program
from repro.semantics.executor import ExecutorOptions
from repro.semantics.incremental import NotIncremental
from repro.semantics.trace import TraceEntry
from repro.transforms.pipeline import sli

CORPUS = Path(__file__).resolve().parent.parent / "qa_corpus"
#: Straight-line random programs: no ``if`` (depth 0) and no loop.
STRAIGHT = replace(DEFAULT_CONFIG, max_depth=0, allow_loops=False)
#: The Table-1 slices that keep an ``if``.
BRANCHING = {"Ex3", "Ex5", "BurglarAlarm"}


def _variants(spec):
    program = spec.bench()
    return {
        "original": program,
        "svf": sli(program, slicer="svf").sliced,
        "ab": sli(program, slicer="ab").sliced,
    }


TABLE = [
    pytest.param(spec.name, variant, program, id=f"{spec.name}-{variant}")
    for spec in TABLE1
    for variant, program in _variants(spec).items()
]


def _counters(engine, program):
    rec = TraceRecorder()
    with use_recorder(rec):
        result = engine.infer(program)
    return result, {
        k: v for k, v in rec.counters.items() if k.startswith("mh.incremental")
    }


def assert_lockstep(program, errors_alike=False, **kwargs):
    """Closure MH (incremental where the program allows) against the
    interpreter's full re-run, same seed.  With ``errors_alike``, a
    full re-run that raises must be matched by a closure run raising
    the same type."""
    try:
        full = MetropolisHastings(compiled=False, **kwargs).infer(program)
    except Exception as exc:
        if not errors_alike:
            raise
        with pytest.raises(type(exc)):
            MetropolisHastings(compiled=True, **kwargs).infer(program)
        return None, None
    cone = MetropolisHastings(compiled=True, **kwargs).infer(program)
    assert cone.samples == full.samples
    assert cone.weights == full.weights
    assert cone.n_proposals == full.n_proposals
    assert cone.n_accepted == full.n_accepted
    return full, cone


def _continuous_program(rng):
    """A random straight-line program over real variables: scales and
    supports that depend on earlier draws, reassignments, factors that
    may overflow to -inf, soft and hard observes."""
    defined, lines = [], []

    def expr():
        if not defined or rng.random() < 0.2:
            return f"{rng.uniform(-2, 2):.3f}"
        other = rng.choice(defined) if rng.random() < 0.5 else f"{rng.uniform(-2, 2):.3f}"
        return f"{rng.choice(defined)} {rng.choice('+-*')} {other}"

    for _ in range(rng.randint(3, 14)):
        kind = rng.random() if defined else 0.0
        var = f"x{rng.randint(0, 5)}"
        if kind < 0.35:
            dist = rng.randrange(3)
            if dist == 0:
                lines.append(f"{var} ~ Gaussian({expr()}, {rng.uniform(0.5, 3):.3f});")
            elif dist == 1:
                lines.append(f"{var} ~ Uniform(0.0 - 3.0, {expr()});")
            else:
                lines.append(f"{var} ~ Gaussian(0.0, 1.0 + {expr()} * {expr()});")
            defined.append(var)
        elif kind < 0.55:
            lines.append(f"{var} = {expr()};")
            defined.append(var)
        elif kind < 0.7:
            scale = f"({expr()})" if rng.random() < 0.6 else "1e308 * 10.0"
            lines.append(f"factor(0.0 - ({expr()}) * {scale});")
        elif kind < 0.85:
            lines.append(f"observe(Gaussian({expr()}, 1.0), {rng.uniform(-2, 2):.3f});")
        else:
            lines.append(f"observe({expr()} > {rng.uniform(-3, 1):.3f});")
    lines.append(f"return {rng.choice(defined)};")
    return parse("\n".join(lines))


class TestLockstep:
    @pytest.mark.parametrize("name, variant, program", TABLE)
    def test_table1(self, name, variant, program):
        full, cone = assert_lockstep(program, n_samples=150, burn_in=50, seed=0)
        if name not in BRANCHING:
            assert cone.statements_executed <= full.statements_executed

    @pytest.mark.parametrize(
        "path, program",
        list(iter_corpus(CORPUS)),
        ids=[p.name for p, _ in iter_corpus(CORPUS)],
    )
    def test_qa_corpus(self, path, program):
        assert_lockstep(program, n_samples=200, burn_in=20, seed=3)

    @given(programs(allow_loops=False, config=STRAIGHT))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_straight_line_random_programs(self, program):
        assert_lockstep(program, errors_alike=True, n_samples=60, burn_in=10,
                        seed=5, max_init_attempts=50, anneal_rounds=3)

    @given(programs())
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_random_programs(self, program):
        assert_lockstep(program, errors_alike=True, n_samples=40, burn_in=10,
                        seed=6, max_init_attempts=50, anneal_rounds=3,
                        executor_options=ExecutorOptions(max_loop_iterations=200))

    def test_annealing_on_chess(self):
        # No prior draw is tried, so the chain starts from annealed
        # initialization: relaxed observes, walk and resample moves.
        chess = next(s for s in TABLE1 if s.name == "Chess").bench()
        for program in (chess, sli(chess, slicer="svf").sliced):
            full, cone = assert_lockstep(
                program, n_samples=60, burn_in=10, seed=2, max_init_attempts=1
            )
            assert cone.statements_executed < full.statements_executed

    def test_relaxed_penalty_mode_mixes_terms(self):
        # Hard observes beside soft ones: the penalized fold interleaves
        # ``-= pen`` and ``+= lp`` in program order.
        program = parse(
            """
x ~ Gaussian(0.0, 4.0);
y ~ Gaussian(x, 1.0);
observe(y > 2.5);
observe(Gaussian(y, 0.5), 3.0);
z = x + y;
observe(z > 4.0);
factor(0.0 - 0.1 * z);
return x;
"""
        )
        compiled = compile_program(program)
        plan = compiled.cone_plan()
        for penalty in (None, 1.0, 8.0):
            opts = ExecutorOptions(observe_penalty=penalty)
            for seed in range(25):
                rng = random.Random(seed)
                state = plan.run(rng, None, opts)
                if state.blocked:
                    continue
                for site, addr in enumerate(plan.addrs):
                    for value in (None, state.trace[addr].value + rng.gauss(0, 1)):
                        self._same_step(compiled, plan, state, site, addr,
                                        value, opts, seed)
        assert_lockstep(program, n_samples=100, burn_in=20, seed=4,
                        max_init_attempts=1)

    def test_random_continuous_programs_step_by_step(self):
        for seed in range(300):
            rng = random.Random(seed)
            program = _continuous_program(rng)
            compiled = compile_program(program)
            plan = compiled.cone_plan()
            for penalty in (None, 1.5):
                opts = ExecutorOptions(observe_penalty=penalty)
                for _ in range(10):
                    try:
                        state = plan.run(rng, None, opts)
                    except DistributionError:
                        break
                    if state.blocked:
                        continue
                    for site, addr in enumerate(plan.addrs):
                        for value in (None, state.trace[addr].value + rng.gauss(0, 2)):
                            self._same_step(compiled, plan, state, site, addr,
                                            value, opts, seed)

    @staticmethod
    def _same_step(compiled, plan, state, site, addr, value, opts, seed):
        base = dict(state.trace)
        if value is None:
            del base[addr]
        else:
            base[addr] = TraceEntry(value, 0.0, state.trace[addr].dist_name)
        r1, r2 = random.Random(seed), random.Random(seed)
        try:
            full = compiled.run(r1, base_trace=base, options=opts)
        except DistributionError:
            with pytest.raises(DistributionError):
                plan.step(site, r2, state, value, opts)
            return
        step = plan.step(site, r2, state, value, opts)
        assert step.blocked == full.blocked
        assert r1.random() == r2.random()
        if not full.blocked:
            # ``repr``: the same bits, NaN and the sign of zero included.
            assert repr(step.value) == repr(full.value)
            assert repr(step.log_likelihood) == repr(full.log_likelihood)
            assert repr(step.log_joint) == repr(full.log_joint)
            assert step.violations == full.violations
            assert repr(list(step.trace.items())) == repr(list(full.trace.items()))

    def test_reassigned_variables(self):
        # The cone reads a value overwritten later in the program: its
        # support statement re-runs.
        program = parse(
            """
a ~ Gaussian(0.0, 1.0);
b = a + 1.0;
c ~ Gaussian(0.0, 1.0);
d = b * c;
b = 7.0;
observe(Gaussian(d, 1.0), 0.5);
observe(Gaussian(b + c, 1.0), 7.5);
return d + b;
"""
        )
        full, cone = assert_lockstep(program, n_samples=300, burn_in=30, seed=8)
        assert cone.statements_executed < full.statements_executed

    def test_factor_blocks_before_a_later_error(self):
        # A move to n = 1 takes the factor to -inf, where the full run
        # stops; the cone goes on to the replayed k, whose bounds are
        # then invalid, and must not raise where the full run blocks.
        program = parse(
            """
n ~ DiscreteUniform(0, 1);
factor(0.0 - n * 1e308 * 10.0);
k ~ DiscreteUniform(0, 1 - 2 * n);
return k;
"""
        )
        full, _ = assert_lockstep(program, n_samples=200, burn_in=10, seed=1)
        assert full.n_accepted < full.n_proposals

    def test_replayed_value_without_mass(self):
        # Gamma(0.001, ...) underflows to 0.0 about half the time, a
        # value without density.  A cone replays it as the full run
        # does: as recorded, blocking only a value that lost its mass.
        program = parse(
            """
a ~ Gaussian(0.0, 1.0);
x ~ Gamma(0.001, a * a + 1.0);
observe(Gaussian(x, 1.0), 0.5);
return a;
"""
        )
        compiled = compile_program(program)
        plan = compiled.cone_plan()
        massless = 0
        for penalty in (None, 1.0):
            opts = ExecutorOptions(observe_penalty=penalty)
            for seed in range(30):
                rng = random.Random(seed)
                state = plan.run(rng, None, opts)
                massless += state.trace[plan.addrs[1]].log_prior == float("-inf")
                for site, addr in enumerate(plan.addrs):
                    for value in (None, state.trace[addr].value + rng.gauss(0, 1)):
                        self._same_step(compiled, plan, state, site, addr,
                                        value, opts, seed)
        assert massless > 0

    def test_global_move_to_a_value_without_mass(self):
        # A global move weighs only the likelihood, so it can accept a
        # Gamma(0.001, 1.0) draw that underflowed to 0.0; later single-
        # site moves replay that value.  When such a replay blocked the
        # full run, the full run skipped the moved site's draw that the
        # cone makes, and the two chains parted (seed 1).
        program = parse(
            """
float x, y, z;
x ~ Gamma(0.001, 1.0);
y ~ Gaussian(x, 1.0);
observe(Gaussian(y, 0.01), 2.5);
z ~ Gaussian(y, 1.0);
observe(Gaussian(z, 0.01), 2.3);
return x;
"""
        )
        assert_lockstep(program, n_samples=2000, burn_in=200, seed=1)


class TestFastPath:
    @pytest.mark.parametrize("name, variant, program", TABLE)
    def test_table1_paths(self, name, variant, program):
        if variant == "original" and name in ("Chess", "Halo"):
            pytest.skip("costly to run; the slices cover the family")
        _, counters = _counters(
            MetropolisHastings(n_samples=20, burn_in=5, seed=1, compiled=True),
            program,
        )
        if name in BRANCHING:
            assert counters == {"mh.incremental.fallback.control-flow": 1}
        else:
            assert counters == {"mh.incremental.used": 1}

    @pytest.mark.parametrize("model", ["NoisyOR", "BayesianLinearRegression",
                                       "HIV", "Halo", "Chess"])
    def test_one_program_per_cold_slice_family(self, model):
        # The paper-scale instance of each family the benchmark's
        # cold-slice workload generates, under both slicers.
        program = next(s for s in TABLE1 if s.name == model).paper()
        for slicer in ("svf", "ab"):
            sliced = sli(program, slicer=slicer).sliced
            compile_program(sliced).cone_plan()  # raises if outside the fragment
            _, counters = _counters(
                MetropolisHastings(n_samples=10, burn_in=0, seed=1,
                                   compiled=True, global_move_prob=0.0),
                sliced,
            )
            assert counters == {"mh.incremental.used": 1}

    def test_fallback_reasons(self):
        ex3 = next(s for s in TABLE1 if s.name == "Ex3").bench()
        with pytest.raises(NotIncremental) as info:
            compile_program(ex3).cone_plan()
        assert info.value.reason == "control-flow"
        straight = parse("x ~ Bernoulli(0.5); return x;")
        for engine, expected in (
            (MetropolisHastings(n_samples=5, compiled=False), "interpreter"),
            (ChurchTraceMH(n_samples=5, compiled=True), "overhead"),
            (MetropolisHastings(n_samples=5, compiled="numpy"), None),
        ):
            _, counters = _counters(engine, straight)
            if expected is None:
                # The lockstep batch runs on numpy; only its scalar
                # initialization takes the cone plan.
                assert counters == {"mh.incremental.used": 1}
            else:
                assert counters == {f"mh.incremental.fallback.{expected}": 1}


class TestPlanLifetime:
    def test_clear_compile_cache_drops_the_plan(self):
        program = parse(
            "x ~ Gaussian(0.0, 1.0); observe(Gaussian(x, 1.0), 0.3); return x;"
        )
        MetropolisHastings(n_samples=20, burn_in=5, compiled=True).infer(program)
        plan = weakref.ref(compile_program(program).cone_plan())
        clear_compile_cache()
        gc.collect()
        assert plan() is None

    def test_plans_stay_within_the_compile_cache_bound(self, monkeypatch):
        monkeypatch.setattr(compiled_module, "_COMPILE_CACHE_MAX", 8)
        clear_compile_cache()
        plans = []
        for i in range(40):
            program = parse(
                f"x ~ Gaussian({i}.0, 1.0); observe(Gaussian(x, 1.0), 0.5); return x;"
            )
            MetropolisHastings(n_samples=5, burn_in=0, compiled=True).infer(program)
            plans.append(weakref.ref(compile_program(program).cone_plan()))
            del program
        gc.collect()
        assert sum(ref() is not None for ref in plans) <= 8
        clear_compile_cache()

    def test_pickle_rebuilds_the_plan(self):
        import pickle

        program = parse("x ~ Gaussian(0.0, 1.0); return x;")
        compiled = compile_program(program)
        compiled.cone_plan()
        assert "_plan" not in compiled.__getstate__()
        clone = pickle.loads(pickle.dumps(compiled))
        assert clone._plan is None
        assert clone.cone_plan().addrs == compiled.cone_plan().addrs

    def test_pickle_from_an_older_codegen_regenerates(self):
        import pickle

        program = parse("x ~ Gaussian(0.0, 1.0); observe(Gaussian(x, 1.0), 0.2); return x;")
        state = compile_program(program).__getstate__()
        state.pop("codegen")
        state["source"] = "this source is stale"
        stale = compiled_module.CompiledProgram.__new__(compiled_module.CompiledProgram)
        stale.__setstate__(state)
        assert stale.source == compile_program(program).source
        assert stale.cone_plan().run(random.Random(0), None, ExecutorOptions()).env
