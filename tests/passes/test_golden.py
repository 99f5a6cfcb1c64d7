"""Golden byte-identity: the pass-manager pipelines must reproduce the
checked-in sliced outputs for every Table-1 benchmark, character for
character.

The goldens (``tests/golden/*.prob``, regenerated by
``tests/golden/regen.py``) pin the slicer outputs across refactors:
a diff is either a deliberate output change (regenerate and review) or
a regression.
"""

import hashlib
import os

import pytest

from repro.core.printer import pretty
from repro.models.registry import TABLE1
from repro.obs import TraceRecorder, use_recorder
from repro.transforms.pipeline import naive_slice, nt_slice, sli

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "golden")

SLICERS = {
    "sli": lambda p: sli(p).sliced,
    "sli-simplify": lambda p: sli(p, simplify=True).sliced,
    "ab": lambda p: sli(p, slicer="ab").sliced,
    "naive": lambda p: naive_slice(p).sliced,
    "nt": lambda p: nt_slice(p).sliced,
}

SPECS = {spec.name: spec for spec in TABLE1}


def golden_path(benchmark: str, tag: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{benchmark}.{tag}.prob")


def test_every_golden_file_is_covered():
    expected = {
        f"{name}.{tag}.prob" for name in SPECS for tag in SLICERS
    }
    present = {n for n in os.listdir(GOLDEN_DIR) if n.endswith(".prob")}
    assert present == expected


@pytest.mark.parametrize("name", sorted(SPECS))
@pytest.mark.parametrize("tag", sorted(SLICERS))
def test_golden_output(name, tag):
    program = SPECS[name].bench()
    with open(golden_path(name, tag)) as f:
        expected = f.read()
    assert pretty(SLICERS[tag](program)) == expected


#: The pass whose seeded-equivalence check each slicer's pipeline ends with.
SLICE_PASS = {"svf": "slice", "ab": "cfgslice"}


@pytest.mark.parametrize(
    "name, slicer",
    # The default slicer's cells keep the bare benchmark name as id.
    [pytest.param(name, "svf", id=name) for name in sorted(SPECS)]
    + [pytest.param(name, "ab", id=f"{name}-ab") for name in sorted(SPECS)],
)
def test_one_lowering_per_sli_run(name, slicer):
    # The analysis cache must prove its keep: either slicer's pipeline
    # lowers the program to a CFG exactly once (slice + dependence
    # analysis + influencer closure all share the cached Lowered), and
    # verification as the CLI's --verify-each runs it checks the final
    # slice against the original.
    program = SPECS[name].bench()
    rec = TraceRecorder()
    with use_recorder(rec):
        sli(program, slicer=slicer, verify=True, spot_check_seeds=(0, 1, 2))
    assert rec.counters["passes.analysis.computed.lowered"] == 1
    assert rec.counters.get("passes.analysis.reused.lowered", 0) >= 1
    assert rec.counters[f"passes.verified.{SLICE_PASS[slicer]}"] == 1


#: sha256 of ``pretty(sli(p, slicer="ab").sliced)`` on the paper-scale
#: programs, recorded before reaching definitions went block-level.  At
#: this scale the AB slicer's cost was quadratic; its output must not
#: have moved with the speed-up.
PAPER_AB_SHA256 = {
    "Chess": "74a636a896155a9b0fee007ff2ab5d3f1a1cf9b43fd20235702f7195dbb2e58e",
    "Halo": "05e2856c245dda1794276d41c158b4445972f6134ce4d2631ea62c29c745f956",
}


def _paper_ab_sha256(name):
    sliced = sli(SPECS[name].paper(), slicer="ab").sliced
    return hashlib.sha256(pretty(sliced).encode()).hexdigest()


def test_paper_scale_chess_ab_slice_is_pinned():
    assert _paper_ab_sha256("Chess") == PAPER_AB_SHA256["Chess"]


def test_paper_scale_halo_ab_slice_is_pinned():
    assert _paper_ab_sha256("Halo") == PAPER_AB_SHA256["Halo"]
