"""Interpreter SMC against the reference particle it replaced.

SMC's interpreter particles run on :mod:`repro.semantics.executor`'s
particle shape.  Driven by the verbatim ``_Run`` of
``reference_smc_run.py`` instead, SMC must give the same population,
bit for bit, on Table 1 and the qa corpus: samples, weights, work,
lineages and survivors.
"""

from pathlib import Path

import pytest

from repro.core.parser import parse
from repro.inference import SMCSampler
from repro.inference.base import InferenceError
from repro.models.registry import TABLE1
from repro.qa.generate import iter_corpus
from repro.semantics.executor import NonTerminatingRun
from repro.transforms.pipeline import sli

from tests.inference.reference_smc_run import _NonTerminating, _Run

CORPUS = Path(__file__).resolve().parent.parent / "qa_corpus"


class _ReferenceRun(_Run):
    """The reference particle, its loop cap raised as the one exception
    SMC catches."""

    def advance(self):
        try:
            return super().advance()
        except _NonTerminating:
            raise NonTerminatingRun("reference loop cap") from None


class _ReferenceSMC(SMCSampler):
    def _new_run(self, program, rng, base_trace):
        return _ReferenceRun(program, rng, base_trace, self.max_loop_iterations)


def _cells():
    cells = []
    for spec in TABLE1:
        program = spec.bench()
        variants = {
            "original": program,
            "svf": sli(program, slicer="svf").sliced,
            "ab": sli(program, slicer="ab").sliced,
        }
        for variant, p in variants.items():
            big = variant == "original" and spec.name in ("Chess", "Halo")
            cells.append(pytest.param(p, 100 if big else 300, id=f"{spec.name}-{variant}"))
    for path, p in iter_corpus(CORPUS):
        cells.append(pytest.param(p, 300, id=f"corpus-{path.stem}"))
    return cells


def _population(engine, program):
    """The final population, or the error SMC stopped with (a
    population that dies out)."""
    try:
        r = engine.infer(program)
    except InferenceError as exc:
        return repr(exc)
    # ``repr``: the same bits, NaN and the sign of zero included.
    return (repr(r.samples), repr(r.weights), r.statements_executed,
            r.lineages, r.n_accepted)


@pytest.mark.parametrize("program, particles", _cells())
@pytest.mark.parametrize("seed", [0, 1])
def test_interpreter_smc_equals_the_reference(program, particles, seed):
    assert _population(SMCSampler(particles, seed=seed), program) == _population(
        _ReferenceSMC(particles, seed=seed), program
    )


def test_underflowed_draw_is_the_one_difference():
    # Gamma(0.001, 1.0) underflows to 0.0, whose log density is -inf.
    # The reference redraws that value when a clone replays it; the
    # interpreter replays it, so here the populations differ (at seed
    # 0 no particle holding 0.0 survives to be cloned).
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
    assert _population(SMCSampler(200, seed=1), program) != _population(
        _ReferenceSMC(200, seed=1), program
    )
