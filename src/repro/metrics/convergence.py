"""Convergence-curve helpers for the Figure-19 reproduction."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Sequence, Tuple

from .divergence import running_kl

if TYPE_CHECKING:  # annotations only: repro.inference imports repro.metrics
    from ..core.ast import Program
    from ..inference.base import Engine
    from ..semantics.distribution import FiniteDist

__all__ = ["ConvergenceCurve", "convergence_curve", "geometric_checkpoints"]


@dataclass(frozen=True)
class ConvergenceCurve:
    """A labelled (n_samples, KL) series."""

    label: str
    points: Tuple[Tuple[int, float], ...]

    def final_kl(self) -> float:
        if not self.points:
            raise ValueError("empty curve")
        return self.points[-1][1]

    def kl_at(self, n: int) -> float:
        for count, kl in self.points:
            if count == n:
                return kl
        raise KeyError(f"no checkpoint at {n}")


def geometric_checkpoints(n_max: int, n_points: int = 20) -> List[int]:
    """Roughly geometric sample-count checkpoints in ``[10, n_max]``."""
    if n_max < 10:
        return [n_max] if n_max > 0 else []
    out: List[int] = []
    value = 10.0
    ratio = (n_max / 10.0) ** (1.0 / max(1, n_points - 1))
    for _ in range(n_points):
        n = int(round(value))
        if not out or n > out[-1]:
            out.append(min(n, n_max))
        value *= ratio
    if out[-1] != n_max:
        out.append(n_max)
    return out


def convergence_curve(
    engine: Engine,
    program: Program,
    exact: FiniteDist,
    label: str,
    checkpoints: Sequence[int] = (),
) -> ConvergenceCurve:
    """Run a sampling engine once and evaluate the running KL to the
    exact posterior at each checkpoint."""
    result = engine.infer(program)
    if not checkpoints:
        checkpoints = geometric_checkpoints(len(result.samples))
    points = running_kl(result.samples, exact, checkpoints)
    return ConvergenceCurve(label, tuple(points))
