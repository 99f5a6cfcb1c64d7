"""Distribution-equivalence and differential oracles.

Theorem 1 guarantees ``P`` and ``SLI(P)`` have identical normalized
output distributions.  The oracles here turn that guarantee (and the
repository's backend-equivalence guarantees) into executable checks a
fuzz campaign can run at scale:

* :class:`ExactEquivalenceOracle` — for finite programs, the
  enumeration engine computes the exact output distribution of the
  original and of every distribution-preserving pipeline variant
  (``sli``, ``sli --simplify``, ``sli`` without OBS, ``nt_slice``);
  total-variation distance must be zero (up to float tolerance).
  ``naive_slice`` is *excluded* from this check on purpose: it is the
  paper's known-unsound baseline (Example 4 — it drops observes).
* :class:`BackendEquivalenceOracle` — the interpreter and the compiled
  executor must produce *bit-identical* runs (value, likelihood,
  trace, statement count) from the same RNG stream, on the original
  and on every pipeline variant (``naive_slice`` included: unsound as
  a slicer, its output is still a program both backends must agree on).
  Vectorizable variants get the third backend locked in as well: every
  interpreter run must replay bit-exactly through the array backend
  (:mod:`repro.semantics.vectorized`) at batch 1, and every lane of a
  fresh vectorized batch must replay bit-exactly through *both* scalar
  backends — trace replay is the cross-backend equivalence mechanism,
  since the PCG64 and Mersenne streams can never bit-match.
* :class:`BayesNetOracle` — for loop-free compilable programs,
  Bayes-net compilation + variable elimination must match enumeration.
* :class:`SamplerEquivalenceOracle` — every sampling engine, run with
  a fixed derived seed stream on the original and on the ``sli``
  slice, must pass a chi-square goodness-of-fit test against the
  exact distribution (Bonferroni-corrected so a campaign of thousands
  of programs keeps a bounded family-wise false-alarm rate).  Weighted
  samplers (likelihood weighting, SMC) are tested at their Kish
  effective sample size.
* :class:`FactorizationOracle` — the factorisation pass
  (``sli --factorize``) must be exact: the product of the per-factor
  posteriors recombined through the original return expression matches
  the monolithic exact posterior with zero TV distance, and the factor
  bodies partition the sliced program.
* :class:`SlicerArbitrationOracle` — both slicing *theories*
  (``svf``, the paper's OBS→SVF→SSA composition, and ``ab``, the
  Amtoft–Banerjee CFG slicer) must each be distribution-equivalent to
  the original: exact TV (float-)zero where the enumerator reaches,
  and a two-sample chi-square homogeneity test on likelihood-weighted
  sample streams otherwise.  Slice-*size* divergence between the two
  theories is expected (they keep different node sets) and is
  *recorded*, never failed — the arbitration record is the
  experiment's data, surfaced via ``qa.slicers.*`` counters and
  :attr:`SlicerArbitrationOracle.size_records`.

Every oracle reports :class:`Disagreement` records and never raises
on *expected* inapplicability (continuous programs, zero normalizers,
unsupported features) — those are skips, counted by the campaign.  An
unexpected exception inside an engine or transform *is* reported as a
disagreement of kind ``crash``: the fuzzer's job is exactly to find
those.
"""

from __future__ import annotations

import math
import random
import traceback
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.ast import Program
from ..core.fingerprint import program_fingerprint
from ..core.printer import pretty
from ..inference import (
    ChurchTraceMH,
    GibbsSampler,
    InferenceError,
    LikelihoodWeighting,
    MetropolisHastings,
    RejectionSampler,
    SMCSampler,
    UnsupportedProgramError,
    has_loop,
    has_soft_conditioning,
)
from ..metrics.online import ChainSummary
from ..semantics.distribution import FiniteDist
from ..semantics.exact import ExactEngineError, ExactResult, exact_inference
from ..semantics.executor import NonTerminatingRun, run_program
from ..obs.recorder import current_recorder
from ..semantics.factored import factored_exact
from ..transforms import naive_slice, node_class_counts, nt_slice, sli

__all__ = [
    "Disagreement",
    "OracleConfig",
    "Oracle",
    "ExactEquivalenceOracle",
    "BackendEquivalenceOracle",
    "BayesNetOracle",
    "SamplerEquivalenceOracle",
    "FactorizationOracle",
    "SlicerArbitrationOracle",
    "ORACLE_TYPES",
    "default_oracle_names",
    "make_oracles",
    "run_oracles",
    "format_report",
    "chi_square_gof",
    "chi_square_homogeneity",
    "chi2_sf",
]


@dataclass(frozen=True)
class Disagreement:
    """One oracle violation.

    ``kind`` is ``"distribution"`` (normalized output distributions
    differ), ``"backend"`` (interpreter and compiled executor
    diverged), ``"statistical"`` (a sampler failed its goodness-of-fit
    test beyond the corrected threshold), or ``"crash"`` (an engine or
    transform raised an unexpected exception).  ``subject`` and
    ``reference`` name the two sides that were compared; ``metric`` is
    the oracle's distance/p-value when one exists.
    """

    oracle: str
    kind: str
    subject: str
    reference: str
    detail: str
    metric: Optional[float] = None

    def describe(self) -> str:
        m = "" if self.metric is None else f" (metric={self.metric:.3g})"
        return (
            f"[{self.oracle}] {self.kind}: {self.subject} vs "
            f"{self.reference}{m}: {self.detail}"
        )


@dataclass(frozen=True)
class OracleConfig:
    """Shared oracle tuning.

    ``alpha`` is the *family-wise* false-alarm budget of the whole
    campaign for the statistical oracle; each individual test runs at
    ``alpha / max(1, n_comparisons)`` (Bonferroni).  The campaign
    driver sets ``n_comparisons`` to its total planned test count.
    Fixed seeds make every check deterministic: a passing campaign
    passes forever.
    """

    #: RNG seeds for the backend trace-equality runs.
    seeds: Tuple[int, ...] = (0, 1, 2)
    #: Draws per sampling engine in the statistical oracle.
    n_samples: int = 1200
    #: Family-wise false-alarm budget for the statistical oracle.
    alpha: float = 1e-4
    #: Bonferroni divisor (number of statistical tests in the family).
    n_comparisons: int = 1
    #: Absolute tolerance for the exact-distribution comparison.
    atol: float = 1e-9
    #: Sampling engines exercised by the statistical oracle.  The
    #: ``-numpy`` variants run the same engines on the array backend
    #: (``compiled="numpy"``), falling back to the closure backend on
    #: non-vectorizable programs — either way the sampled stream must
    #: fit the exact distribution.
    engines: Tuple[str, ...] = (
        "rejection",
        "importance",
        "mh",
        "church",
        "gibbs",
        "smc",
        "rejection-numpy",
        "importance-numpy",
        "mh-numpy",
        "smc-numpy",
    )
    #: MH burn-in (kept small — QA programs are tiny).
    burn_in: int = 200
    #: Attempt budget multiplier for rejection sampling.
    max_attempts_factor: int = 400

    @property
    def corrected_alpha(self) -> float:
        return self.alpha / max(1, self.n_comparisons)


# ---------------------------------------------------------------------------
# Pipeline variants under test
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Variant:
    """One transformed version of the program under test."""

    name: str
    program: Program
    #: Whether Theorem 1 applies (``naive_slice`` is the known-unsound
    #: baseline, so only backend self-consistency is checked on it).
    distribution_preserving: bool


def program_variants(program: Program) -> Tuple[List[Variant], List[Disagreement]]:
    """All pipeline variants of ``program``, plus crash reports for
    any pipeline that failed to run at all."""
    variants = [Variant("original", program, True)]
    crashes: List[Disagreement] = []
    builders: List[Tuple[str, bool, Callable[[Program], Program]]] = [
        ("sli", True, lambda p: sli(p).sliced),
        ("sli+simplify", True, lambda p: sli(p, simplify=True).sliced),
        ("sli-no-obs", True, lambda p: sli(p, use_obs=False).sliced),
        ("sli-ab", True, lambda p: sli(p, slicer="ab").sliced),
        ("nt_slice", True, lambda p: nt_slice(p).sliced),
        ("naive_slice", False, lambda p: naive_slice(p).sliced),
    ]
    for name, preserving, build in builders:
        try:
            variants.append(Variant(name, build(program), preserving))
        except Exception:
            crashes.append(
                Disagreement(
                    oracle="transform",
                    kind="crash",
                    subject=name,
                    reference="original",
                    detail=traceback.format_exc(limit=6),
                )
            )
    return variants, crashes


# ---------------------------------------------------------------------------
# Chi-square machinery (scipy-gated with a pure-python fallback)
# ---------------------------------------------------------------------------


def chi2_sf(stat: float, dof: int) -> float:
    """Chi-square survival function ``P(X >= stat)``.

    Uses scipy when available; otherwise the regularized upper
    incomplete gamma function ``Q(dof/2, stat/2)`` via the standard
    series / continued-fraction split (Numerical Recipes ``gammq``).
    """
    if stat <= 0.0:
        return 1.0
    if dof <= 0:
        return 1.0
    try:
        from scipy.stats import chi2

        return float(chi2.sf(stat, dof))
    except ImportError:  # pragma: no cover - exercised without scipy only
        return _gammq(dof / 2.0, stat / 2.0)


def _gammq(a: float, x: float) -> float:  # pragma: no cover - scipy fallback
    """Regularized upper incomplete gamma ``Q(a, x)``."""
    if x < a + 1.0:
        # Series for P(a, x); Q = 1 - P.
        term = 1.0 / a
        total = term
        n = a
        for _ in range(500):
            n += 1.0
            term *= x / n
            total += term
            if abs(term) < abs(total) * 1e-15:
                break
        p = total * math.exp(-x + a * math.log(x) - math.lgamma(a))
        return max(0.0, 1.0 - p)
    # Continued fraction for Q(a, x) (modified Lentz).
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 500):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def chi_square_gof(
    empirical: FiniteDist,
    expected: FiniteDist,
    n_effective: float,
) -> Tuple[float, float, int]:
    """Pearson goodness-of-fit of ``empirical`` against ``expected``.

    Returns ``(p_value, statistic, dof)``.  Bins with expected count
    below 5 are pooled into one (standard Cochran guard); observing a
    value *outside* the expected support is an immediate fail
    (``p = 0``) — a sampler must never emit an impossible value.
    """
    support = expected.support()
    outside = sum(
        empirical.prob(v) for v in empirical.support() if v not in set(support)
    )
    if outside > 0.0:
        return 0.0, math.inf, max(1, len(support) - 1)
    pooled_obs = 0.0
    pooled_exp = 0.0
    stat = 0.0
    bins = 0
    for v in support:
        e = expected.prob(v) * n_effective
        o = empirical.prob(v) * n_effective
        if e < 5.0:
            pooled_obs += o
            pooled_exp += e
            continue
        stat += (o - e) ** 2 / e
        bins += 1
    if pooled_exp > 0.0:
        stat += (pooled_obs - pooled_exp) ** 2 / pooled_exp
        bins += 1
    dof = bins - 1
    if dof <= 0:
        # Single-bin support: the outside-support check above is the
        # whole test.
        return 1.0, stat, 0
    return chi2_sf(stat, dof), stat, dof


def chi_square_homogeneity(
    dist_a: FiniteDist,
    n_a: float,
    dist_b: FiniteDist,
    n_b: float,
) -> Tuple[float, float, int]:
    """Two-sample Pearson homogeneity test: could ``dist_a`` (observed
    with ``n_a`` effective draws) and ``dist_b`` (``n_b`` draws) have
    come from the same underlying distribution?

    Expected counts come from the *pooled* empirical proportions, so
    neither side is privileged — this is the right shape when no exact
    reference exists and both sides are noisy.  Bins whose expected
    count falls below 5 in either sample are pooled into one (Cochran
    guard).  Returns ``(p_value, statistic, dof)`` with
    ``dof = bins - 1`` (two samples).
    """
    support = sorted(
        set(dist_a.support()) | set(dist_b.support()), key=repr
    )
    total = n_a + n_b
    if total <= 0.0:
        return 1.0, 0.0, 0
    stat = 0.0
    bins = 0
    pooled_obs = [0.0, 0.0]
    pooled_exp = [0.0, 0.0]
    for v in support:
        p = (dist_a.prob(v) * n_a + dist_b.prob(v) * n_b) / total
        expected = (p * n_a, p * n_b)
        observed = (dist_a.prob(v) * n_a, dist_b.prob(v) * n_b)
        if min(expected) < 5.0:
            for i in range(2):
                pooled_obs[i] += observed[i]
                pooled_exp[i] += expected[i]
            continue
        for o, e in zip(observed, expected):
            stat += (o - e) ** 2 / e
        bins += 1
    if min(pooled_exp) > 0.0:
        for o, e in zip(pooled_obs, pooled_exp):
            stat += (o - e) ** 2 / e
        bins += 1
    dof = bins - 1
    if dof <= 0:
        return 1.0, stat, 0
    return chi2_sf(stat, dof), stat, dof


# ---------------------------------------------------------------------------
# The oracles
# ---------------------------------------------------------------------------


class Oracle:
    """Interface: ``check(program)`` returns disagreements (empty =
    agreement), ``applicable(program)`` gates expensive checks."""

    name: str = "oracle"

    def __init__(self, config: OracleConfig = OracleConfig()) -> None:
        self.config = config

    def applicable(self, program: Program) -> bool:
        return True

    def check(self, program: Program) -> List[Disagreement]:
        raise NotImplementedError


def _try_exact(program: Program) -> Optional[ExactResult]:
    """Exact result, or ``None`` for degenerate/out-of-reach programs."""
    try:
        return exact_inference(program)
    except (ValueError, ExactEngineError):
        return None


class ExactEquivalenceOracle(Oracle):
    """TV distance between the original's and every preserving
    variant's exact output distribution must be (float-)zero."""

    name = "exact"

    def check(self, program: Program) -> List[Disagreement]:
        base = _try_exact(program)
        if base is None:
            return []
        variants, out = program_variants(program)
        for variant in variants[1:]:
            if not variant.distribution_preserving:
                continue
            try:
                got = exact_inference(variant.program)
            except (ValueError, ExactEngineError):
                out.append(
                    Disagreement(
                        oracle=self.name,
                        kind="distribution",
                        subject=variant.name,
                        reference="original",
                        detail=(
                            "variant is degenerate/unenumerable but the "
                            "original has a positive normalizer"
                        ),
                    )
                )
                continue
            except Exception:
                out.append(
                    Disagreement(
                        oracle=self.name,
                        kind="crash",
                        subject=variant.name,
                        reference="original",
                        detail=traceback.format_exc(limit=6),
                    )
                )
                continue
            tv = base.distribution.tv_distance(got.distribution)
            if not base.distribution.allclose(
                got.distribution, atol=self.config.atol
            ):
                out.append(
                    Disagreement(
                        oracle=self.name,
                        kind="distribution",
                        subject=variant.name,
                        reference="original",
                        detail=(
                            f"exact output distributions differ: "
                            f"{base.distribution!r} vs {got.distribution!r}"
                        ),
                        metric=tv,
                    )
                )
        return out


class BackendEquivalenceOracle(Oracle):
    """Interpreter vs compiled executor vs array backend.

    Interpreter and closure backend share the ``random.Random`` stream,
    so their runs compare directly.  The array backend draws from PCG64
    and is locked in by *trace replay* in both directions: interpreter
    run → batch-of-1 vectorized replay, and fresh vectorized batch →
    per-lane scalar replays through both other backends.  Programs
    outside the vectorizable fragment skip the third leg (that is the
    contract, not a bug); any other vectorization failure is a crash.
    """

    name = "backends"

    def check(self, program: Program) -> List[Disagreement]:
        from ..semantics.compiled import compile_program as compile_executable
        from ..semantics.vectorized import NotVectorizable, compile_vectorized

        variants, out = program_variants(program)
        for variant in variants:
            try:
                executable = compile_executable(variant.program)
            except Exception:
                out.append(
                    Disagreement(
                        oracle=self.name,
                        kind="crash",
                        subject=f"compiled[{variant.name}]",
                        reference=f"interp[{variant.name}]",
                        detail=traceback.format_exc(limit=6),
                    )
                )
                continue
            try:
                vectorized = compile_vectorized(variant.program)
            except NotVectorizable:
                vectorized = None
            except Exception:
                vectorized = None
                out.append(
                    Disagreement(
                        oracle=self.name,
                        kind="crash",
                        subject=f"vectorized[{variant.name}]",
                        reference=f"interp[{variant.name}]",
                        detail=traceback.format_exc(limit=6),
                    )
                )
            for seed in self.config.seeds:
                out.extend(
                    self._compare_run(variant, executable, seed, vectorized)
                )
            if vectorized is not None:
                for seed in self.config.seeds:
                    out.extend(
                        self._check_lanes(variant, executable, vectorized, seed)
                    )
        return out

    @staticmethod
    def _run_mismatches(lhs, rhs) -> List[str]:
        """Field-by-field comparison of two (scalar) run results."""
        mismatches = []
        for field_name in ("value", "log_likelihood", "statements_executed"):
            a = getattr(lhs, field_name)
            b = getattr(rhs, field_name)
            if a != b:
                mismatches.append(f"{field_name}: {a!r} != {b!r}")
        if lhs.trace != rhs.trace:
            mismatches.append("traces differ")
        return mismatches

    def _check_replay(
        self, variant, vectorized, interp, seed
    ) -> List[Disagreement]:
        """Direction 1: an interpreter run's trace must replay
        bit-exactly through the array backend at batch 1."""
        from ..runtime.parallel import numpy_generator

        where = f"{variant.name}@seed={seed}"
        try:
            batch = vectorized.run_batch(
                numpy_generator(seed, "qa", "replay"),
                1,
                base=vectorized.base_from_trace(interp.trace, 1),
            )
            lane = batch.lane_result(0)
        except Exception:
            return [
                Disagreement(
                    oracle=self.name,
                    kind="crash",
                    subject=f"vectorized[{where}]",
                    reference=f"interp[{where}]",
                    detail=traceback.format_exc(limit=6),
                )
            ]
        mismatches = self._run_mismatches(lane, interp)
        if mismatches:
            return [
                Disagreement(
                    oracle=self.name,
                    kind="backend",
                    subject=f"vectorized[{where}]",
                    reference=f"interp[{where}]",
                    detail="replayed interpreter trace diverged: "
                    + "; ".join(mismatches),
                )
            ]
        return []

    def _check_lanes(
        self, variant, executable, vectorized, seed
    ) -> List[Disagreement]:
        """Direction 2: each lane of a fresh vectorized batch must
        replay bit-exactly through both scalar backends."""
        from ..runtime.parallel import numpy_generator

        where = f"{variant.name}@seed={seed}"
        try:
            batch = vectorized.run_batch(numpy_generator(seed, "qa", "batch"), 3)
        except Exception:
            # Fresh-batch errors (e.g. a division by zero some lane
            # hit) cannot be compared across different RNG streams;
            # the same-stream comparison above owns error behaviour.
            return []
        out: List[Disagreement] = []
        for i in range(batch.batch):
            lane = batch.lane_result(i)
            for backend, run_fn in (
                ("interp", lambda t: run_program(
                    variant.program, random.Random(seed), base_trace=t
                )),
                ("compiled", lambda t: executable.run(
                    random.Random(seed), base_trace=t
                )),
            ):
                try:
                    replayed = run_fn(dict(lane.trace))
                except Exception:
                    out.append(
                        Disagreement(
                            oracle=self.name,
                            kind="backend",
                            subject=f"{backend}[{where}#lane{i}]",
                            reference=f"vectorized[{where}#lane{i}]",
                            detail="lane trace failed to replay: "
                            + traceback.format_exc(limit=6),
                        )
                    )
                    continue
                mismatches = self._run_mismatches(replayed, lane)
                if mismatches:
                    out.append(
                        Disagreement(
                            oracle=self.name,
                            kind="backend",
                            subject=f"{backend}[{where}#lane{i}]",
                            reference=f"vectorized[{where}#lane{i}]",
                            detail="replayed lane diverged: "
                            + "; ".join(mismatches),
                        )
                    )
        return out

    def _compare_run(
        self, variant, executable, seed, vectorized=None
    ) -> List[Disagreement]:
        def run(fn):
            try:
                return fn(random.Random(seed)), None
            except NonTerminatingRun:
                return None, "non-terminating"
            except Exception:
                return None, traceback.format_exc(limit=6)

        interp, interp_err = run(
            lambda rng: run_program(variant.program, rng)
        )
        compiled, compiled_err = run(lambda rng: executable.run(rng))
        where = f"{variant.name}@seed={seed}"
        if interp_err != compiled_err:
            return [
                Disagreement(
                    oracle=self.name,
                    kind="backend",
                    subject=f"compiled[{where}]",
                    reference=f"interp[{where}]",
                    detail=(
                        f"error behaviour differs: interpreter "
                        f"{interp_err or 'succeeded'}, compiled "
                        f"{compiled_err or 'succeeded'}"
                    ),
                )
            ]
        if interp is None:
            return []  # both raised the same way
        mismatches = self._run_mismatches(compiled, interp)
        if mismatches:
            return [
                Disagreement(
                    oracle=self.name,
                    kind="backend",
                    subject=f"compiled[{where}]",
                    reference=f"interp[{where}]",
                    detail="; ".join(mismatches),
                )
            ]
        if vectorized is not None:
            return self._check_replay(variant, vectorized, interp, seed)
        return []


class BayesNetOracle(Oracle):
    """Bayes-net compile + variable elimination vs enumeration."""

    name = "bayesnet"

    def applicable(self, program: Program) -> bool:
        return not has_loop(program)

    def check(self, program: Program) -> List[Disagreement]:
        from ..bayesnet import (
            BayesNetError,
            CompileError,
            compile_program,
            variable_elimination,
        )
        from ..transforms import preprocess

        base = _try_exact(program)
        if base is None:
            return []
        try:
            compiled = compile_program(preprocess(program))
        except CompileError:
            return []
        try:
            post = variable_elimination(
                compiled.net, compiled.query, compiled.evidence
            )
        except BayesNetError:
            # Inconsistent-evidence refusal mirrors a zero normalizer;
            # VE's evidence patterns are narrower than the executor's,
            # so a refusal here is inapplicability, not a bug.
            return []
        except Exception:
            return [
                Disagreement(
                    oracle=self.name,
                    kind="crash",
                    subject="variable-elimination",
                    reference="enumeration",
                    detail=traceback.format_exc(limit=6),
                )
            ]
        if not post.allclose(base.distribution, atol=self.config.atol):
            return [
                Disagreement(
                    oracle=self.name,
                    kind="distribution",
                    subject="variable-elimination",
                    reference="enumeration",
                    detail=(
                        f"VE posterior {post!r} != exact "
                        f"{base.distribution!r}"
                    ),
                    metric=post.tv_distance(base.distribution),
                )
            ]
        return []


class SamplerEquivalenceOracle(Oracle):
    """Every sampling engine, on the original and on the SLI slice,
    must fit the exact distribution (chi-square, Bonferroni)."""

    name = "samplers"

    def check(self, program: Program) -> List[Disagreement]:
        base = _try_exact(program)
        if base is None:
            return []
        out: List[Disagreement] = []
        try:
            sliced = sli(program).sliced
            subjects = [("original", program), ("sli", sliced)]
        except Exception:
            # The exact oracle owns transform crashes; still test the
            # original program here.
            subjects = [("original", program)]
        for engine_name in self.config.engines:
            for subject_name, subject in subjects:
                out.extend(
                    self._check_engine(engine_name, subject_name, subject, base)
                )
        return out

    def _engine(self, engine_name: str, seed: int):
        cfg = self.config
        n = cfg.n_samples
        compiled: "bool | str" = False
        if engine_name.endswith("-numpy"):
            engine_name = engine_name[: -len("-numpy")]
            compiled = "numpy"
        if engine_name == "rejection":
            return RejectionSampler(
                n_samples=n,
                seed=seed,
                max_attempts=n * cfg.max_attempts_factor,
                compiled=compiled,
            )
        if engine_name == "importance":
            return LikelihoodWeighting(n_samples=n, seed=seed, compiled=compiled)
        if engine_name == "mh":
            return MetropolisHastings(
                n_samples=n, burn_in=cfg.burn_in, seed=seed, compiled=compiled
            )
        if engine_name == "church":
            return ChurchTraceMH(
                n_samples=n, burn_in=cfg.burn_in, seed=seed, overhead=1
            )
        if engine_name == "gibbs":
            return GibbsSampler(n_samples=n, burn_in=cfg.burn_in, seed=seed)
        if engine_name == "smc":
            return SMCSampler(n_particles=n, seed=seed, compiled=compiled)
        raise ValueError(f"unknown engine {engine_name!r}")

    def _applicable(self, engine_name: str, program: Program) -> bool:
        engine_name = engine_name.removesuffix("-numpy")
        if engine_name == "rejection" and has_soft_conditioning(program):
            return False
        if engine_name == "gibbs" and has_loop(program):
            return False
        if engine_name == "smc" and has_loop(program):
            # SMC pauses at every conditioning point and a resample
            # clone replays the particle's whole prefix, so observes
            # inside loops make cloning quadratic in the iteration
            # count — far too slow for a fuzz loop.
            return False
        return True

    def _check_engine(
        self,
        engine_name: str,
        subject_name: str,
        program: Program,
        base: ExactResult,
    ) -> List[Disagreement]:
        if not self._applicable(engine_name, program):
            return []
        # A fixed seed derived from (program, engine, subject): the
        # same campaign always draws the same streams, so a passing
        # run is reproducibly passing.
        seed = int(
            program_fingerprint(
                program, engine=engine_name, subject=subject_name
            )[:12],
            16,
        )
        engine = self._engine(engine_name, seed)
        try:
            result = engine.infer(program)
        except (UnsupportedProgramError, InferenceError):
            # Legitimate refusals (unsupported features, exhausted
            # budgets on low-acceptance programs) are skips; the
            # campaign counts them.
            return []
        except Exception:
            return [
                Disagreement(
                    oracle=self.name,
                    kind="crash",
                    subject=f"{engine_name}[{subject_name}]",
                    reference="enumeration",
                    detail=traceback.format_exc(limit=6),
                )
            ]
        try:
            empirical = result.distribution()
        except InferenceError:
            return []
        n_eff = _effective_draws(
            result,
            mcmc=engine_name.removesuffix("-numpy") in ("mh", "church", "gibbs"),
        )
        if n_eff < 50.0:
            return []  # too few effective draws for a meaningful test
        p_value, stat, dof = chi_square_gof(empirical, base.distribution, n_eff)
        if p_value < self.config.corrected_alpha:
            return [
                Disagreement(
                    oracle=self.name,
                    kind="statistical",
                    subject=f"{engine_name}[{subject_name}]",
                    reference="enumeration",
                    detail=(
                        f"chi-square GOF failed: stat={stat:.2f} dof={dof} "
                        f"n_eff={n_eff:.0f} p={p_value:.3g} < "
                        f"alpha={self.config.corrected_alpha:.3g}; "
                        f"tv={empirical.tv_distance(base.distribution):.4f}"
                    ),
                    metric=p_value,
                )
            ]
        return []


def _effective_draws(result, mcmc: bool = False) -> float:
    """The draw count a chi-square test may trust: the raw count for
    i.i.d. unweighted draws, otherwise :class:`ChainSummary`'s ESS.

    For MCMC chains that is the autocorrelation ESS: single-site
    kernels update the returned variable only a fraction of the steps,
    so treating the chain as ``n`` independent draws makes the test
    reject correct engines — the fuzzer found exactly that.  For
    weighted draws it is the Kish ESS capped by the surviving lineages:
    resampling after a rare hard observe can leave thousands of
    particles descending from a handful of ancestors (the burglar-alarm
    model collapses ~1200 particles to ~10 genealogies), and treating
    those as independent draws rejects a correct, merely high-variance
    engine."""
    if result.weights is None and not mcmc:
        return float(len(result.samples))
    return ChainSummary.of(result).ess


class FactorizationOracle(Oracle):
    """Product of per-factor exact posteriors == monolithic posterior.

    Runs ``sli(P, factorize=True)`` and checks that
    :func:`repro.semantics.factored.factored_exact` over the resulting
    :class:`~repro.transforms.factorize.FactorSet` matches
    ``exact_inference(P)`` with TV distance (float-)zero, and that the
    factor bodies partition the sliced program (sizes sum to the slice
    size when nothing was dropped, and never exceed it).
    """

    name = "factorization"

    def check(self, program: Program) -> List[Disagreement]:
        base = _try_exact(program)
        if base is None:
            return []
        out: List[Disagreement] = []
        try:
            result = sli(program, factorize=True)
            factors = result.factors
            assert factors is not None
            product = factored_exact(factors)
        except (ValueError, ExactEngineError):
            out.append(
                Disagreement(
                    oracle=self.name,
                    kind="distribution",
                    subject="factored",
                    reference="original",
                    detail=(
                        "factorized pipeline is degenerate/unenumerable "
                        "but the original has a positive normalizer"
                    ),
                )
            )
            return out
        except Exception:
            out.append(
                Disagreement(
                    oracle=self.name,
                    kind="crash",
                    subject="factored",
                    reference="original",
                    detail=traceback.format_exc(limit=6),
                )
            )
            return out
        total = sum(f.size for f in factors.factors)
        if total > result.sliced_size or (
            factors.dropped == 0 and total != result.sliced_size
        ):
            out.append(
                Disagreement(
                    oracle=self.name,
                    kind="invariant",
                    subject="factored",
                    reference="sli",
                    detail=(
                        f"factor bodies do not partition the slice: "
                        f"sizes {[f.size for f in factors.factors]} sum to "
                        f"{total}, slice has {result.sliced_size} "
                        f"statements, {factors.dropped} dropped"
                    ),
                )
            )
        tv = base.distribution.tv_distance(product.distribution)
        if not base.distribution.allclose(
            product.distribution, atol=self.config.atol
        ):
            out.append(
                Disagreement(
                    oracle=self.name,
                    kind="distribution",
                    subject="factored",
                    reference="original",
                    detail=(
                        f"product of {len(factors)} factor posteriors "
                        f"differs from monolithic: {base.distribution!r} "
                        f"vs {product.distribution!r}"
                    ),
                    metric=tv,
                )
            )
        return out


class SlicerArbitrationOracle(Oracle):
    """Arbitrate the two slicing theories against the original.

    Both ``sli(P, slicer="svf")`` and ``sli(P, slicer="ab")`` claim
    Theorem-1-style distribution preservation, via very different
    arguments (d-separation on the single-variable-form dependence
    graph vs weak slice sets on the CFG).  This oracle holds each to
    the claim independently:

    * where the enumerator reaches the original, each slice's exact
      posterior must match with TV (float-)zero — and a slice must
      never be degenerate/unenumerable when the original has a
      positive normalizer;
    * otherwise, likelihood-weighted sample streams from the original
      and from each slice (fixed fingerprint-derived seeds) must pass
      a two-sample chi-square homogeneity test at the campaign's
      Bonferroni-corrected level — applied only to discrete,
      small-support outputs, where the pooled-count test is meaningful.

    The theories legitimately keep *different node sets* (SSA helper
    variables on one side, source-level cones on the other), so
    slice-size divergence is data, not failure: every program where
    both pipelines ran gets a record in :attr:`size_records` and bumps
    one of the ``qa.slicers.{equal_size,svf_tighter,ab_tighter}``
    counters.
    """

    name = "slicers"
    slicer_names: Tuple[str, ...] = ("svf", "ab")
    #: Largest joint support the sampler fallback will test; beyond
    #: this the output is effectively continuous and per-value pooled
    #: counts carry no power.
    max_support: int = 40

    def __init__(self, config: OracleConfig = OracleConfig()) -> None:
        super().__init__(config)
        #: One record per program where *both* pipelines succeeded:
        #: fingerprint, per-theory sizes and kept node-class counts,
        #: and the ab-minus-svf statement delta.
        self.size_records: List[Dict[str, object]] = []

    def check(self, program: Program) -> List[Disagreement]:
        out: List[Disagreement] = []
        results = {}
        for slicer in self.slicer_names:
            try:
                results[slicer] = sli(program, slicer=slicer)
            except Exception:
                out.append(
                    Disagreement(
                        oracle=self.name,
                        kind="crash",
                        subject=f"sli[{slicer}]",
                        reference="original",
                        detail=traceback.format_exc(limit=6),
                    )
                )
        if len(results) == len(self.slicer_names):
            self._record_sizes(program, results)
        base = _try_exact(program)
        for slicer, result in results.items():
            if base is not None:
                out.extend(self._check_exact(slicer, result, base))
            else:
                out.extend(self._check_sampled(slicer, program, result))
        return out

    def _record_sizes(self, program: Program, results) -> None:
        record: Dict[str, object] = {
            "fingerprint": program_fingerprint(program)[:16],
            "original_stmts": results["svf"].original_size,
        }
        for slicer, result in results.items():
            record[slicer] = {
                "transformed_stmts": result.transformed_size,
                "sliced_stmts": result.sliced_size,
                "kept": node_class_counts(result.sliced.body),
            }
        delta = results["ab"].sliced_size - results["svf"].sliced_size
        record["delta"] = delta
        self.size_records.append(record)
        rec = current_recorder()
        if delta == 0:
            rec.counter("qa.slicers.equal_size")
        elif delta < 0:
            rec.counter("qa.slicers.ab_tighter")
        else:
            rec.counter("qa.slicers.svf_tighter")

    def _check_exact(
        self, slicer: str, result, base: ExactResult
    ) -> List[Disagreement]:
        try:
            got = exact_inference(result.sliced)
        except (ValueError, ExactEngineError):
            return [
                Disagreement(
                    oracle=self.name,
                    kind="distribution",
                    subject=f"sli[{slicer}]",
                    reference="original",
                    detail=(
                        "slice is degenerate/unenumerable but the "
                        "original has a positive normalizer"
                    ),
                )
            ]
        except Exception:
            return [
                Disagreement(
                    oracle=self.name,
                    kind="crash",
                    subject=f"sli[{slicer}]",
                    reference="original",
                    detail=traceback.format_exc(limit=6),
                )
            ]
        tv = base.distribution.tv_distance(got.distribution)
        if not base.distribution.allclose(
            got.distribution, atol=self.config.atol
        ):
            return [
                Disagreement(
                    oracle=self.name,
                    kind="distribution",
                    subject=f"sli[{slicer}]",
                    reference="original",
                    detail=(
                        f"exact output distributions differ: "
                        f"{base.distribution!r} vs {got.distribution!r}"
                    ),
                    metric=tv,
                )
            ]
        return []

    def _check_sampled(
        self, slicer: str, program: Program, result
    ) -> List[Disagreement]:
        """Sampler fallback for programs the enumerator cannot reach:
        likelihood-weighted streams from the original and the slice
        must be homogeneous."""
        seed = int(
            program_fingerprint(program, oracle=self.name, slicer=slicer)[
                :12
            ],
            16,
        )
        sides = []
        for offset, (side_name, side) in enumerate(
            [("original", program), (f"sli[{slicer}]", result.sliced)]
        ):
            engine = LikelihoodWeighting(
                n_samples=self.config.n_samples, seed=seed + offset
            )
            try:
                res = engine.infer(side)
                dist = res.distribution()
            except (UnsupportedProgramError, InferenceError):
                return []  # legitimate refusal — a skip, not a bug
            except Exception:
                return [
                    Disagreement(
                        oracle=self.name,
                        kind="crash",
                        subject=side_name,
                        reference="importance",
                        detail=traceback.format_exc(limit=6),
                    )
                ]
            n_eff = _effective_draws(res)
            if n_eff < 50.0:
                return []  # too few effective draws to compare
            sides.append((side_name, dist, n_eff))
        (_, dist_a, n_a), (subject_name, dist_b, n_b) = sides
        if len(set(dist_a.support()) | set(dist_b.support())) > self.max_support:
            return []  # effectively continuous output
        p_value, stat, dof = chi_square_homogeneity(dist_a, n_a, dist_b, n_b)
        if p_value < self.config.corrected_alpha:
            return [
                Disagreement(
                    oracle=self.name,
                    kind="statistical",
                    subject=subject_name,
                    reference="original",
                    detail=(
                        f"two-sample chi-square homogeneity failed: "
                        f"stat={stat:.2f} dof={dof} n_eff="
                        f"({n_a:.0f}, {n_b:.0f}) p={p_value:.3g} < "
                        f"alpha={self.config.corrected_alpha:.3g}; "
                        f"tv={dist_a.tv_distance(dist_b):.4f}"
                    ),
                    metric=p_value,
                )
            ]
        return []


# ---------------------------------------------------------------------------
# Registry and campaign helpers
# ---------------------------------------------------------------------------


ORACLE_TYPES: Dict[str, type] = {
    "backends": BackendEquivalenceOracle,
    "exact": ExactEquivalenceOracle,
    "bayesnet": BayesNetOracle,
    "samplers": SamplerEquivalenceOracle,
    "factorization": FactorizationOracle,
    "slicers": SlicerArbitrationOracle,
}


def default_oracle_names() -> Tuple[str, ...]:
    return (
        "backends",
        "exact",
        "bayesnet",
        "samplers",
        "factorization",
        "slicers",
    )


def make_oracles(
    names: Optional[Sequence[str]] = None,
    config: OracleConfig = OracleConfig(),
) -> List[Oracle]:
    """Instantiate oracles by name (all six by default)."""
    chosen = tuple(names) if names else default_oracle_names()
    oracles = []
    for name in chosen:
        try:
            oracle_type = ORACLE_TYPES[name]
        except KeyError:
            raise ValueError(
                f"unknown oracle {name!r}; known: {', '.join(ORACLE_TYPES)}"
            ) from None
        oracles.append(oracle_type(config))
    return oracles


def run_oracles(
    program: Program, oracles: Sequence[Oracle]
) -> List[Disagreement]:
    """Run every applicable oracle on ``program``."""
    out: List[Disagreement] = []
    for oracle in oracles:
        if oracle.applicable(program):
            out.extend(oracle.check(program))
    return out


def format_report(
    program: Program,
    disagreements: Sequence[Disagreement],
    shrunk: Optional[Program] = None,
    seed: Optional[int] = None,
) -> str:
    """Human-readable disagreement report for the crash corpus."""
    lines = ["oracle disagreement report", "=" * 60]
    if seed is not None:
        lines.append(f"generator seed: {seed}")
    lines.append(f"fingerprint: {program_fingerprint(program)[:16]}")
    lines.append("")
    for d in disagreements:
        lines.append(d.describe())
    lines.append("")
    lines.append("original program:")
    lines.append(pretty(program).rstrip())
    if shrunk is not None:
        lines.append("")
        lines.append("shrunk counterexample:")
        lines.append(pretty(shrunk).rstrip())
    lines.append("")
    return "\n".join(lines)


# Re-exported convenience: a config tuned for quick smoke runs.
def smoke_config(n_comparisons: int = 1) -> OracleConfig:
    """A cheaper configuration for CI smoke campaigns."""
    return replace(
        OracleConfig(),
        n_samples=600,
        seeds=(0, 1),
        n_comparisons=n_comparisons,
    )
