"""Metrics: KL/TV divergences, convergence curves, and the ESS /
R-hat estimators (:mod:`repro.metrics.online`, re-exported by
:mod:`repro.inference`)."""

from .convergence import (
    ConvergenceCurve,
    convergence_curve,
    geometric_checkpoints,
)
from .divergence import kl_divergence, running_kl, tv_distance
from .online import kish_ess

__all__ = [
    "ConvergenceCurve",
    "convergence_curve",
    "geometric_checkpoints",
    "kl_divergence",
    "running_kl",
    "tv_distance",
    "kish_ess",
]
