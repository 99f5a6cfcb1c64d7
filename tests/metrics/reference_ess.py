"""Reference estimators: the pure-Python loops, kept verbatim.

These are the implementations the library had before
:mod:`repro.metrics.online` replaced them with numpy FFT versions:
``effective_sample_size`` from ``repro.inference.base``,
``split_r_hat`` and ``autocorrelation`` from the former
``repro.inference.diagnostics``.  ``tests/metrics/test_reference_ess.py``
holds the library to them.  Only the imports differ from the originals.
"""

from __future__ import annotations

import math
from typing import List, Sequence

__all__ = ["split_r_hat", "autocorrelation", "effective_sample_size"]


def split_r_hat(chains: Sequence[Sequence[float]]) -> float:
    """Gelman–Rubin split-R̂ over two or more chains.

    Each chain is split in half (catching within-chain drift), then
    the classic between/within variance ratio is computed.  Values
    near 1 indicate convergence; > 1.05 is the usual alarm threshold.
    """
    if len(chains) < 1:
        raise ValueError("need at least one chain")
    halves: List[List[float]] = []
    for chain in chains:
        n = len(chain)
        if n < 4:
            raise ValueError("chains must have at least 4 samples")
        mid = n // 2
        halves.append(list(chain[:mid]))
        halves.append(list(chain[mid : 2 * mid]))
    m = len(halves)
    n = min(len(h) for h in halves)
    halves = [h[:n] for h in halves]
    means = [sum(h) / n for h in halves]
    grand = sum(means) / m
    b = n / (m - 1) * sum((mu - grand) ** 2 for mu in means)
    w = (
        sum(sum((x - mu) ** 2 for x in h) / (n - 1) for h, mu in zip(halves, means))
        / m
    )
    if w == 0.0:
        return 1.0
    var_plus = (n - 1) / n * w + b / n
    return math.sqrt(var_plus / w)


def autocorrelation(samples: Sequence[float], max_lag: int = 50) -> List[float]:
    """Normalized autocorrelation at lags ``0..max_lag``."""
    n = len(samples)
    if n < 2:
        raise ValueError("need at least two samples")
    mean = sum(samples) / n
    centered = [s - mean for s in samples]
    var = sum(c * c for c in centered) / n
    if var == 0.0:
        return [1.0] + [0.0] * min(max_lag, n - 1)
    out = []
    for lag in range(min(max_lag, n - 1) + 1):
        acov = sum(centered[i] * centered[i + lag] for i in range(n - lag)) / n
        out.append(acov / var)
    return out


def effective_sample_size(samples: Sequence[float], max_lag: int = 200) -> float:
    """ESS via the initial-positive-sequence autocorrelation estimator.

    Used by diagnostics and by the convergence benchmark to compare
    chains on original vs sliced programs.
    """
    n = len(samples)
    if n < 3:
        return float(n)
    mean = sum(samples) / n
    centered = [s - mean for s in samples]
    var = sum(c * c for c in centered) / n
    if var == 0.0:
        return float(n)
    rho_sum = 0.0
    for lag in range(1, min(max_lag, n - 1)):
        acov = sum(centered[i] * centered[i + lag] for i in range(n - lag)) / n
        rho = acov / var
        if rho <= 0.0:
            break
        rho_sum += rho
    ess = n / (1.0 + 2.0 * rho_sum)
    return max(1.0, min(float(n), ess))
