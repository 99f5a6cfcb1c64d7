"""The library's one ESS / R-hat estimator module.

Every convergence number the library reports comes from here: the
CLI's ``// cross-chain:`` line and ``// health:`` block, the health
report ``repro.serve`` returns, and the qa sampler oracle's chi-square
calibration.  They all read :meth:`ChainSummary.of` on the same result,
so they print the same ESS.

* :func:`autocorrelation` — normalized autocorrelation by numpy FFT;
* :func:`effective_sample_size` — initial-positive-sequence ESS of one
  chain: ``n / (1 + 2 (ρ₁ + … + ρₖ))`` over lags ``1 … min(max_lag,
  n−1)−1``, stopping before the first ``ρ ≤ 0``, clamped to
  ``[1, n]``; ``n`` itself for fewer than 3 draws or a constant chain;
* :func:`split_r_hat` — Gelman–Rubin split-R-hat;
* :func:`kish_ess` — Kish's ``(Σw)² / Σw²`` for weighted draws;
* :class:`ChainSummary` — the result-level reading, with a typed
  ``reason`` for every degenerate case.

numpy is imported inside the functions so that ``import
repro.inference``, which re-exports these names, does not load it.
The module keeps its name because the benchmark's pin tests import
:func:`kish_ess` from ``repro.metrics.online``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, List, Literal, Optional, Sequence

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "autocorrelation",
    "effective_sample_size",
    "split_r_hat",
    "kish_ess",
    "ChainSummary",
    "Reason",
    "cross_chain_diagnostics",
]

#: Why a :class:`ChainSummary` reading is degenerate.  A constant chain
#: reads ESS ``n`` because the draws alone cannot tell a point mass
#: from a stuck chain.
Reason = Literal["zero-variance", "single-chain", "short-chains", "stuck-chains"]

#: What each reason means, as :func:`cross_chain_diagnostics` warns it.
_WARNINGS = {
    "zero-variance": "all samples identical (zero variance); R-hat is "
    "undefined and ESS is the draw count",
    "single-chain": "single chain; cross-chain R-hat is undefined (run "
    "with n_workers > 1 for a genuine multi-chain diagnostic)",
    "short-chains": "split R-hat unavailable (chains must have at least "
    "4 samples)",
    "stuck-chains": "every half-chain is constant but the chains "
    "disagree; R-hat is infinite",
}


def _acf(x: "np.ndarray", n_lags: int) -> "np.ndarray":
    """ρ₀ … ρ_{n_lags−1} of a non-constant chain.  The FFT is zero-padded
    to a power of two of at least ``2n``, so the circular correlation
    equals the linear one."""
    import numpy as np

    n = x.size
    centered = x - x.sum() / n
    var = float(np.dot(centered, centered)) / n
    size = 1 << (2 * n - 1).bit_length()
    spectrum = np.fft.rfft(centered, size)
    acov = np.fft.irfft(spectrum * np.conj(spectrum), size)[: max(n_lags, 0)] / n
    return acov / var


def _is_constant(x: "np.ndarray") -> bool:
    return bool(x.min() == x.max())


def autocorrelation(samples: Sequence[float], max_lag: int = 50) -> List[float]:
    """Normalized autocorrelation at lags ``0 … min(max_lag, n−1)``
    (``[1, 0, 0, …]`` for a constant chain)."""
    import numpy as np

    x = np.asarray(samples, dtype=np.float64)
    n = x.size
    if n < 2:
        raise ValueError("need at least two samples")
    n_lags = min(max_lag, n - 1) + 1
    if _is_constant(x):
        return [1.0] + [0.0] * (n_lags - 1)
    return _acf(x, n_lags).tolist()


def effective_sample_size(samples: Sequence[float], max_lag: int = 200) -> float:
    """ESS of one chain via the initial positive sequence (see the
    module docstring for the exact definition)."""
    import numpy as np

    x = np.asarray(samples, dtype=np.float64)
    n = x.size
    if n < 3 or _is_constant(x):
        return float(n)
    rho = _acf(x, min(max_lag, n - 1))[1:]
    nonpositive = np.flatnonzero(rho <= 0.0)
    stop = int(nonpositive[0]) if nonpositive.size else rho.size
    ess = n / (1.0 + 2.0 * float(rho[:stop].sum()))
    return max(1.0, min(float(n), ess))


def split_r_hat(chains: Sequence[Sequence[float]]) -> float:
    """Gelman–Rubin split-R-hat over one or more chains.

    Each chain is split in half (catching within-chain drift), every
    half truncated to the shortest, then the classic between/within
    variance ratio is taken.  Near 1 means converged; above 1.05 is the
    usual alarm.  nan when every draw is equal, ∞ when every half-chain
    is constant but the halves disagree.
    """
    import numpy as np

    if len(chains) < 1:
        raise ValueError("need at least one chain")
    arrays = [np.asarray(chain, dtype=np.float64) for chain in chains]
    shortest = min(a.size for a in arrays)
    if shortest < 4:
        raise ValueError("chains must have at least 4 samples")
    n = shortest // 2
    halves = np.stack(
        [h for a in arrays for h in (a[:n], a[a.size // 2 : a.size // 2 + n])]
    )
    lo, hi = halves.min(axis=1), halves.max(axis=1)
    if lo.min() == hi.max():
        return math.nan
    if np.array_equal(lo, hi):
        return math.inf
    means = halves.mean(axis=1)
    b = n / (len(halves) - 1) * float(((means - means.mean()) ** 2).sum())
    w = float(halves.var(axis=1, ddof=1).mean())
    var_plus = (n - 1) / n * w + b / n
    return math.sqrt(var_plus / w)


def kish_ess(weights: Sequence[float]) -> float:
    """Kish effective sample size ``(sum w)^2 / sum w^2``.

    Zero or empty weight vectors give 0.0 (no effective draws) rather
    than raising — callers feed raw importance weights straight in.
    """
    total = 0.0
    total_sq = 0.0
    for w in weights:
        total += w
        total_sq += w * w
    if total_sq <= 0.0:
        return 0.0
    return (total * total) / total_sq


def _floats(values: Sequence[Any]) -> "np.ndarray":
    """Scalar draws as float64 (booleans as 0/1); ValueError otherwise."""
    import numpy as np

    try:
        x = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError):
        raise ValueError("samples are not numeric") from None
    if x.ndim != 1:
        raise ValueError("samples are not scalar")
    return x


@dataclass(frozen=True)
class ChainSummary:
    """One result's convergence reading.

    ``mean`` and ``sd`` are over the pooled draws.  ``ess`` is the
    autocorrelation ESS of the pooled draws in chain order; for a
    weighted result it is the Kish ESS of the weights, capped by the
    surviving SMC lineages when the result records them.  ``r_hat`` is
    split-R-hat over ``result.chains``; ``reason`` says why a reading
    is degenerate (see :data:`Reason`), ``None`` when none is.
    """

    mean: float
    sd: float
    ess: float
    r_hat: float
    n_chains: int
    n_samples: int
    reason: Optional[Reason] = None

    def converged(self, threshold: float = 1.05) -> bool:
        return self.r_hat < threshold

    @classmethod
    def of(cls, result: Any) -> "ChainSummary":
        """Read an ``InferenceResult`` (or anything with ``samples`` and
        optional ``chains``, ``weights`` and ``lineages``).  Raises
        ValueError when it has no draws or its draws are not scalars."""
        import numpy as np

        chains = [_floats(c) for c in getattr(result, "chains", None) or [result.samples]]
        pooled = np.concatenate(chains)
        if pooled.size == 0:
            raise ValueError("no samples")
        weights = getattr(result, "weights", None)
        if weights is None:
            ess = effective_sample_size(pooled)
        else:
            ess = kish_ess(weights)
            lineages = getattr(result, "lineages", None)
            if lineages is not None:
                ess = min(ess, float(lineages))
        constant = _is_constant(pooled)
        r_hat = math.nan
        reason: Optional[Reason] = None
        if constant:
            reason = "zero-variance"
        elif len(chains) < 2:
            reason = "single-chain"
        elif min(c.size for c in chains) < 4:
            reason = "short-chains"
        else:
            r_hat = split_r_hat(chains)
            if r_hat == math.inf:
                reason = "stuck-chains"
        return cls(
            mean=float(pooled.mean()),
            sd=0.0 if constant else float(pooled.std(ddof=1)),
            ess=float(ess),
            r_hat=r_hat,
            n_chains=len(chains),
            n_samples=int(pooled.size),
            reason=reason,
        )


def cross_chain_diagnostics(result: Any) -> ChainSummary:
    """:meth:`ChainSummary.of` for report code: a degenerate reading
    also emits a :class:`RuntimeWarning` saying why."""
    summary = ChainSummary.of(result)
    if summary.reason is not None:
        warnings.warn(
            f"cross_chain_diagnostics: {_WARNINGS[summary.reason]}",
            RuntimeWarning,
            stacklevel=2,
        )
    return summary
