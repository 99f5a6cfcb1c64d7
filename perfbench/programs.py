"""Seeded program generators for the workloads.

Every generated program comes from a data seed drawn from the workload
seed, so each one is new to the process under test (fresh
fingerprints: no module-level compile, vectorize or free-vars memo can
serve it).  The program under test only ever receives the printed
source text; the benchmark keeps the data to compute the reference
posterior for the check (see :mod:`perfbench.checks`).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Tuple

from repro.core.printer import pretty
from repro.models import (
    chess_model,
    halo_model,
    hiv_data,
    hiv_model,
    linreg_model,
    noisy_or_model,
    regression_data,
    team_tournament_data,
    tournament_data,
)

from .checks import (
    Reference,
    comparison_reference,
    enumeration_reference,
    hiv_reference,
    linreg_reference,
)

__all__ = ["GENERATORS", "Generated", "generate", "chess_reference", "halo_reference"]


def chess_reference(data, n_returned: int, draws: int = 20_000) -> Reference:
    """Reference for ``chess_model(n_returned, data=data)``: the
    returned players' division only (no game links divisions)."""
    returned = [p for p in range(data.n_players) if data.division_of(p) == 0]
    games = [((w,), (l,)) for w, l in data.games if data.division_of(w) == 0]
    return comparison_reference(games, returned[:n_returned], draws)


def halo_reference(data, n_returned: int, draws: int = 20_000) -> Reference:
    """Reference for ``halo_model(n_returned, data=data)``: the games of
    the first group-0 team's group only (no game links groups)."""
    first = next(t for t in range(len(data.rosters)) if data.group_of(t) == 0)
    games = [
        (data.rosters[w], data.rosters[l])
        for w, l in data.games
        if data.group_of(w) == 0
    ]
    return comparison_reference(games, list(data.rosters[first])[:n_returned], draws)


#: Size jitter around a stratum's point, as a share of the log size range.
JITTER = 0.03

#: The cold-slice job mix, one generator per Table-1 family with data.
GENERATORS = ("NoisyOR", "BayesianLinearRegression", "HIV", "Halo", "Chess")


@dataclass(frozen=True)
class Generated:
    model: str
    source: str
    #: Computes the reference posterior (outside any timed region).
    reference: Callable[[], Reference]


def generate(model: str, rng: random.Random, small: bool = False,
             stratum: Tuple[int, int] = (0, 1)) -> Generated:
    """One fresh program of family ``model``.

    Sizes are log-scaled between the Table-1 bench scale and the top of
    the cold-slice range (Chess at 800 games; ``small=True`` keeps
    every family near bench scale).  Stratum ``i`` of ``n > 1``
    (``stratum=(i, n)``) sits at the ``i``-th of ``n`` log-evenly spaced
    points from the bottom to the top of that range, jittered by
    :data:`JITTER` of the log range, so a block of jobs covering every
    stratum has nearly the same sizes in every run (with three strata,
    Chess runs ~36, ~170 and ~800 games); a single stratum draws from
    the middle fifth of the range.  The TrueSkill tournaments get more
    divisions as they grow, so the slice stays near bench size while
    the program the slicers analyse grows.
    """
    index, count = stratum

    def size(lo: int, hi: int) -> int:
        span = math.log(hi) - math.log(lo)
        if count > 1:
            u = index / (count - 1) + rng.uniform(-JITTER, JITTER)
            u = min(1.0, max(0.0, u))
        else:
            u = rng.uniform(0.4, 0.6)
        return int(round(lo * math.exp(u * span)))

    seed = rng.randrange(1 << 30)
    if model == "NoisyOR":
        width = size(3, 4)
        program = noisy_or_model(n_layers=3, width=width, seed=seed)
        reference = lambda: enumeration_reference(program)  # noqa: E731
    elif model == "BayesianLinearRegression":
        n_points = size(120, 200 if small else 600)
        n_observed = n_points // 10
        data = regression_data(n_points, seed)
        program = linreg_model(n_points, n_observed, data=data)
        reference = lambda: linreg_reference(data, n_observed)  # noqa: E731
    elif model == "HIV":
        n_persons = size(12, 20 if small else 60)
        n_returned = rng.randint(2, 4)
        data = hiv_data(n_persons, round(n_persons * 4.4), seed)
        program = hiv_model(n_persons, len(data.measurements), n_returned, data=data)
        reference = lambda: hiv_reference(data, n_returned)  # noqa: E731
    elif model == "Chess":
        n_games = size(36, 72 if small else 800)
        n_divisions = max(3, n_games // 12)
        data = tournament_data(3 * n_divisions, n_games, n_divisions, seed)
        program = chess_model(n_returned=2, data=data)
        reference = lambda: chess_reference(data, 2)  # noqa: E731
    elif model == "Halo":
        n_games = size(16, 32 if small else 150)
        n_groups = max(4, n_games // 4)
        data = team_tournament_data(2 * n_groups, 3, n_games, n_groups, seed)
        program = halo_model(n_returned=4, data=data)
        reference = lambda: halo_reference(data, 4)  # noqa: E731
    else:
        raise ValueError(f"unknown generator {model!r}")
    return Generated(model, pretty(program), reference)
