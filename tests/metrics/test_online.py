"""Kish effective sample size, and the estimators' numpy-free import.

The autocorrelation ESS, autocorrelation and split-R-hat of
``repro.metrics.online`` are pinned to verbatim copies of the loop
estimators they replaced in ``test_reference_ess.py``."""

import pytest

from repro.metrics import kish_ess


class TestKishEss:
    def test_uniform_weights_full_ess(self):
        assert kish_ess([2.0] * 50) == pytest.approx(50.0)

    def test_single_dominant_weight(self):
        assert kish_ess([100.0, 1e-9, 1e-9]) == pytest.approx(1.0, rel=1e-6)

    def test_empty_and_zero(self):
        assert kish_ess([]) == 0.0
        assert kish_ess([0.0, 0.0]) == 0.0

    def test_matches_formula(self):
        w = [1.0, 2.0, 3.0, 4.0]
        expected = sum(w) ** 2 / sum(x * x for x in w)
        assert kish_ess(w) == pytest.approx(expected)


def test_estimators_import_without_numpy():
    # numpy loads inside the estimator functions: importing either
    # package (in either order) must not pay its import cost.
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for first, second in (("repro.inference", "repro.metrics"),
                          ("repro.metrics", "repro.inference")):
        code = f"import sys, {first}, {second}; assert 'numpy' not in sys.modules"
        subprocess.run([sys.executable, "-c", code], check=True, env=env)
