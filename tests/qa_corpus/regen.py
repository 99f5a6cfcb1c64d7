"""Regenerate the checked-in QA seed corpus.

Run from the repository root::

    PYTHONPATH=src python tests/qa_corpus/regen.py

The corpus has two kinds of entries, both replayed through the full
oracle stack by ``tests/qa/test_corpus.py`` (and in CI by
``python -m repro.qa replay tests/qa_corpus``):

* **Benchmark programs** — the finite/discrete Table-1 models and the
  paper's worked examples, emitted from :mod:`repro.models` so the
  files can never drift from the registry.  The continuous Table-1
  rows (linear regression, HIV, TrueSkill) are deliberately absent:
  the exact-enumeration reference does not exist for them and the
  hard-constraint chains make single-run backend comparison
  uninformative.
* **Shrunk counterexamples** — minimal witnesses of real bugs the
  fuzzer found, kept as standing regressions.  These are literal
  sources here (they were minimized by ``repro.qa.shrink``, not
  generated), with the bug they witnessed in the header.
"""

from __future__ import annotations

from pathlib import Path

from repro.models import (
    burglar_alarm_model,
    example2,
    example3,
    example4,
    example5,
    example6,
)
from repro.models.noisy_or import noisy_or_model
from repro.qa.generate import save_program

CORPUS = Path(__file__).resolve().parent

BENCHMARKS = [
    (
        "paper-ex2.prob",
        example2,
        "Example 2 (Figure 1): observe after sampling, return c1.",
    ),
    (
        "table1-ex3-student.prob",
        example3,
        "Table 1 'Ex3' (Figure 2): student model, return s.",
    ),
    (
        "paper-ex4.prob",
        example4,
        "Example 4: the program naive_slice miscompiles "
        "(its observe is control-dependent on the sliced-away part).",
    ),
    (
        "table1-ex5.prob",
        example5,
        "Table 1 'Ex5' (Figure 4a): observe g, return l.",
    ),
    (
        "paper-ex6.prob",
        example6,
        "Example 6 (Figure 5): loop with resampled condition.",
    ),
    (
        "table1-burglar-alarm.prob",
        burglar_alarm_model,
        "Table 1 'BurglarAlarm': Pearl's burglary model, "
        "observed alarm and radio.",
    ),
    (
        "table1-noisy-or.prob",
        lambda: noisy_or_model(n_layers=3, width=3, seed=1),
        "Table 1 'NoisyOR' at bench scale (3 layers x 3): too wide for "
        "enumeration, exercises the backend/bayesnet oracles.",
    ),
]

# Minimal counterexamples found (and then fixed) by the differential
# fuzzer, or written by hand where the generator cannot reach the
# shape.  Sources are kept literal: they document the failing shape.
COUNTEREXAMPLES = [
    (
        "mh-support-loss.prob",
        """
n ~ DiscreteUniform(1, 4);
k ~ DiscreteUniform(0, n);
return n;
""",
        "hand-written: the generator only gives DiscreteUniform constant "
        "bounds, so fuzzing cannot reach a support that depends on an "
        "earlier draw.\n"
        "When a proposed n left the replayed k without mass, every MH "
        "path drew k afresh outside the Hastings ratio (interpreter MH, "
        "seed 1, read mean 2.17 against the exact 2.5).\n"
        "Fixed by blocking a run whose replayed value lost its support.",
    ),
    (
        "crash-smc-branch-observe.prob",
        """
b2 ~ Bernoulli(0.5);
if (b2) {
  skip;
} else {
  b0 ~ Bernoulli(0.7);
  observe(b0);
}
return b2;
""",
        "fuzzer counterexample (campaign seed 0, program 75; shrunk by "
        "hand from 10 to 3 statements).\n"
        "SMC resampled only still-running particles: once the then-"
        "branch finished, the else-branch (paused at its observe) was "
        "replenished to the full population size, inflating its "
        "posterior mass (TV 0.26 vs exact at any particle count).\n"
        "Fixed by keeping finished particles in the resampling pool.",
    ),
    (
        "crash-mh-ess-calibration.prob",
        """
b0 ~ Bernoulli(0.3);
b1 ~ Bernoulli(0.5);
b2 ~ Bernoulli(0.7);
b3 ~ Bernoulli(0.3);
n0 ~ DiscreteUniform(0, 2);
n1 ~ DiscreteUniform(0, 1);
n2 ~ DiscreteUniform(1, 3);
return n0 + n1;
""",
        "fuzzer false positive (campaign seed 0, program 69; "
        "re-created minimally).\n"
        "Single-site MH updates the returned variables only ~2 of "
        "every 7 steps, so the chain's raw length vastly overstates "
        "its information; the chi-square oracle rejected a correct "
        "engine at p=5e-17.  The statistical oracle now discounts "
        "MCMC chains by autocorrelation ESS.",
    ),
]


def main() -> None:
    for filename, make, note in BENCHMARKS:
        save_program(CORPUS / filename, make(), header=note)
        print(f"wrote {filename}")
    for filename, source, note in COUNTEREXAMPLES:
        from repro.core.parser import parse

        save_program(CORPUS / filename, parse(source), header=note)
        print(f"wrote {filename}")


if __name__ == "__main__":
    main()
