"""The benchmark's own effective-sample-size estimators.

``ess_per_s`` must mean the same thing across commits, so the
benchmark does not call the library's ESS code to compute it.  This
module holds the two estimators it uses:

* :func:`autocorr_ess` — numpy FFT autocorrelation with the initial
  positive sequence (sum lag-k autocorrelations until the first one
  that is not positive, capped at ``max_lag``).  Its definition is the
  one :func:`repro.inference.base.effective_sample_size` uses today;
  ``perfbench/test_perfbench.py`` pins the two together on fixed chains.
* :func:`kish_ess` — Kish's ``(sum w)^2 / sum w^2`` for weighted draws.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

__all__ = ["autocorr_ess", "kish_ess", "chains_ess"]

MAX_LAG = 200


def autocorr_ess(samples: Sequence[float], max_lag: int = MAX_LAG) -> float:
    """ESS of one chain, in ``[1, n]`` (``n`` itself for fewer than 3
    draws or a constant chain)."""
    x = np.asarray(samples, dtype=np.float64)
    n = x.size
    if n < 3:
        return float(n)
    centered = x - x.sum() / n
    var = float(np.dot(centered, centered)) / n
    if var == 0.0:
        return float(n)
    size = 1 << (2 * n - 1).bit_length()
    spectrum = np.fft.rfft(centered, size)
    acov = np.fft.irfft(spectrum * np.conj(spectrum), size)[: min(max_lag, n - 1)] / n
    rho = acov[1:] / var
    nonpositive = np.flatnonzero(rho <= 0.0)
    stop = int(nonpositive[0]) if nonpositive.size else rho.size
    ess = n / (1.0 + 2.0 * float(rho[:stop].sum()))
    return max(1.0, min(float(n), ess))


def kish_ess(weights: Sequence[float]) -> float:
    """Kish's effective sample size of importance weights (0 when every
    weight is zero)."""
    w = np.asarray(weights, dtype=np.float64)
    total_sq = float(np.dot(w, w))
    if total_sq <= 0.0:
        return 0.0
    return float(w.sum()) ** 2 / total_sq


def chains_ess(
    samples: Sequence[float],
    weights: Optional[Sequence[float]] = None,
    chains: Optional[Sequence[Sequence[float]]] = None,
    lineages: Optional[int] = None,
) -> float:
    """ESS of one inference result: Kish for weighted draws (capped by
    the surviving SMC lineages when known), otherwise the sum of the
    per-chain autocorrelation ESS."""
    if weights is not None:
        ess = kish_ess(weights)
        return min(ess, float(lineages)) if lineages else ess
    if chains:
        return sum(autocorr_ess(c) for c in chains if len(c))
    return autocorr_ess(samples)
