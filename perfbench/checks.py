"""Posterior checks: every posterior the benchmark produces is compared
with a reference, and a miss counts as a failed job.

A reference is a posterior mean and standard deviation of the
program's return value, plus the standard error of the reference mean
itself (0 for exact references).  A posterior passes when its mean
``m`` and, for continuous references, its standard deviation ``s``
agree with the reference:

    |m - mean| <= Z * sqrt(sd^2 / ESS + se^2) + SLACK * sd
    |s - sd|   <= Z * sqrt(sd^2 / (2 ESS) + se^2) + SLACK * sd

with ESS from :mod:`perfbench.ess` (for MCMC chains divided by
:data:`perfbench.common.MCMC_ESS_DISCOUNT`, since the estimator is
optimistic on short chains that are still leaving their start).  The
spread test catches a posterior that kept the prior's mean but not its
spread (HIV: dropping every observe leaves the mean, 8.0, and triples
the sd).  The exact references are all of 0/1-valued returns, whose sd
follows from the mean, so they test the mean only.  References always describe the
*unsliced* program (or, for TrueSkill, the tournament restricted to
the returned division by construction, independently of either
slicer), so each passing check is one instance of Theorem 1: the
sliced program has the posterior of the original.

Methods, by model:

* Ex3, Ex5, BurglarAlarm, NoisyOR — exact enumeration of the unsliced
  program (``EnumerationEngine``);
* HIV — closed-form conjugate Gaussian posterior from the data;
* BayesianLinearRegression — the Gaussian posterior of the weights
  given the noise precision, integrated over the Gamma prior of the
  precision on a 1-D grid;
* Chess, Halo — importance sampling from the skill prior with the
  performances integrated out analytically, over the games of the
  returned division (the other divisions share no variable with it).

The fixed Table-1 programs of ``warm-sample`` and ``serve-open`` use
the same methods on their bench-scale data; the results are stored in
``perfbench/reference.json`` (``perfbench/make_reference.py`` rebuilds
it).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Z",
    "Reference",
    "check_posterior",
    "enumeration_reference",
    "hiv_reference",
    "linreg_reference",
    "comparison_reference",
    "table1_references",
]

#: Standard errors a correct estimate may stray from its reference.
Z = 5.0
#: Allowance for MCMC start-up bias, as a share of the posterior
#: standard deviation.
SLACK = 0.1

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"


@dataclass(frozen=True)
class Reference:
    mean: float
    sd: float
    se: float = 0.0
    method: str = ""


def check_posterior(mean: float, sd: float, ess: float, ref: Reference) -> Optional[str]:
    """``None`` when a posterior with this ``mean`` and ``sd``, backed
    by ``ess`` effective draws, agrees with ``ref``, else a one-line
    reason."""
    if not (math.isfinite(mean) and math.isfinite(sd)):
        return f"non-finite estimate: mean {mean}, sd {sd}"
    ess = max(ess, 1.0)
    tol = Z * math.sqrt(ref.sd ** 2 / ess + ref.se ** 2) + SLACK * ref.sd
    tol += 1e-9 * (1.0 + abs(ref.mean))
    if abs(mean - ref.mean) > tol:
        return (
            f"mean {mean:.4g} vs reference {ref.mean:.4g} "
            f"({ref.method}), tolerance {tol:.3g} at ESS {ess:.1f}"
        )
    if ref.method != "enumeration":
        tol = Z * math.sqrt(ref.sd ** 2 / (2.0 * ess) + ref.se ** 2) + SLACK * ref.sd
        if abs(sd - ref.sd) > tol:
            return (
                f"sd {sd:.4g} vs reference {ref.sd:.4g} "
                f"({ref.method}), tolerance {tol:.3g} at ESS {ess:.1f}"
            )
    return None


# -- references ---------------------------------------------------------------


def enumeration_reference(program) -> Reference:
    """Exact posterior of a discrete program by enumeration."""
    from repro.inference.enumeration import EnumerationEngine

    exact = EnumerationEngine().infer(program)
    return Reference(
        exact.mean(), math.sqrt(max(exact.variance(), 0.0)), 0.0, "enumeration"
    )


def hiv_reference(data, n_returned: int) -> Reference:
    """Closed form for ``repro.models.hiv_model``: each person's
    ``(a, b)`` has prior N([4, -0.5], diag(1, 0.0625)) and measurements
    ``y ~ N(a + b t, 0.25)``; persons are independent, and the program
    returns the sum of the first ``n_returned`` intercepts."""
    prior_prec = np.diag([1.0, 1.0 / 0.0625])
    prior_mean = np.array([4.0, -0.5])
    rows: Dict[int, list] = {}
    for person, t, y in data.measurements:
        rows.setdefault(person, []).append((t, y))
    mean = 0.0
    var = 0.0
    for person in range(n_returned):
        obs = rows.get(person, [])
        X = np.array([[1.0, t] for t, _ in obs]).reshape(-1, 2)
        y = np.array([y for _, y in obs])
        prec = prior_prec + X.T @ X / 0.25
        cov = np.linalg.inv(prec)
        mu = cov @ (prior_prec @ prior_mean + X.T @ y / 0.25)
        mean += float(mu[0])
        var += float(cov[0, 0])
    return Reference(mean, math.sqrt(var), 0.0, "conjugate")


def linreg_reference(data, n_observed: int) -> Reference:
    """``repro.models.linreg_model`` returns ``w1`` with ``w0, w1 ~
    N(0, 10)``, noise precision ``~ Gamma(2, rate 2)`` and the first
    ``n_observed`` points observed.  Given the precision the weights are
    Gaussian; the precision is integrated out on a log-spaced grid."""
    x = np.asarray(data.xs[:n_observed])
    y = np.asarray(data.ys[:n_observed])
    n = x.size
    lam = np.geomspace(1e-3, 1e3, 4000)
    # Posterior precision of (w0, w1) given lam: I/10 + lam X^T X, with
    # X = [1, x]; its 2x2 inverse and the mean are written out per lam.
    a = 0.1 + lam * n
    b = lam * x.sum()
    d = 0.1 + lam * float(x @ x)
    det = a * d - b * b
    r0, r1 = lam * y.sum(), lam * float(x @ y)
    mu0 = (d * r0 - b * r1) / det
    mu1 = (a * r1 - b * r0) / det
    log_marginal = (
        0.5 * n * np.log(lam)
        - 0.5 * lam * float(y @ y)
        + 0.5 * (mu0 * r0 + mu1 * r1)
        - 0.5 * np.log(det)
    )
    # Gamma(2, rate 2) prior up to a constant, times d(lam) = lam d(log lam).
    logw = log_marginal + np.log(lam) - 2.0 * lam + np.log(lam)
    means = mu1
    second = a / det + mu1 ** 2
    w = np.exp(logw - logw.max())
    w /= w.sum()
    mean = float(w @ means)
    var = float(w @ second) - mean ** 2
    return Reference(mean, math.sqrt(max(var, 0.0)), 0.0, "grid-quadrature")


def comparison_reference(
    games: Sequence[Tuple[Sequence[int], Sequence[int]]],
    returned: Sequence[int],
    draws: int = 20_000,
) -> Reference:
    """TrueSkill (``repro.models.chess_model`` / ``halo_model``): skills
    ``~ N(25, 64)``, each player's performance ``~ N(skill, 16)``, and a
    game observes that the winning side's summed performance beat the
    losing side's.  With performances integrated out, a game's
    likelihood is ``Phi(sum skill_w - sum skill_l) / sqrt(16 (n_w + n_l)))``.
    Self-normalised importance sampling from the skill prior over the
    players of ``games`` (plus ``returned``) gives the posterior of the
    returned players' summed skill; its standard error is the reference
    ``se``."""
    from scipy.special import log_ndtr

    players = sorted({p for w, l in games for p in (*w, *l)} | set(returned))
    column = {p: i for i, p in enumerate(players)}
    rng = np.random.default_rng(0)
    skills = rng.normal(25.0, 8.0, size=(draws, len(players)))
    loglik = np.zeros(draws)
    for winners, losers in games:
        diff = skills[:, [column[p] for p in winners]].sum(axis=1)
        diff -= skills[:, [column[p] for p in losers]].sum(axis=1)
        loglik += log_ndtr(diff / math.sqrt(16.0 * (len(winners) + len(losers))))
    w = np.exp(loglik - loglik.max())
    w /= w.sum()
    value = skills[:, [column[p] for p in returned]].sum(axis=1)
    mean = float(w @ value)
    var = float(w @ (value - mean) ** 2)
    ess = 1.0 / float(w @ w)
    return Reference(mean, math.sqrt(var), math.sqrt(var / ess), "importance-sampling")


def table1_references() -> Dict[str, Reference]:
    """The stored references for the Table-1 programs at bench scale."""
    table = json.loads(REFERENCE_FILE.read_text())
    return {
        name: Reference(row["mean"], row["sd"], row["se"], row["method"])
        for name, row in table["models"].items()
    }
