"""Rebuild ``perfbench/reference.json``: the reference posteriors of the
eight Table-1 programs at bench scale, for the posterior checks of the
``warm-sample`` and ``serve-open`` workloads.

Every reference describes the *unsliced* program and is computed
without the library's slicers or samplers (see
:mod:`perfbench.checks` for the methods)::

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def references() -> dict:
    from repro.core.fingerprint import program_fingerprint
    from repro.models import (
        benchmark,
        chess_model,
        halo_model,
        hiv_data,
        hiv_model,
        linreg_model,
        regression_data,
        team_tournament_data,
        tournament_data,
    )

    from perfbench.checks import enumeration_reference, hiv_reference, linreg_reference
    from perfbench.programs import chess_reference, halo_reference

    out = {}
    for name in ("Ex3", "Ex5", "BurglarAlarm", "NoisyOR"):
        out[name] = enumeration_reference(benchmark(name).bench())

    # The data behind each continuous model's bench() program, rebuilt
    # here and checked against the registry by fingerprint.
    hiv = hiv_data(12, 60, 0)
    regression = regression_data(120, 0)
    chess = tournament_data(12, 36, 3, 0)
    halo = team_tournament_data(8, 3, 16, 4, 0)
    rebuilt = {
        "HIV": hiv_model(12, 60, 2, data=hiv),
        "BayesianLinearRegression": linreg_model(120, 12, data=regression),
        "Chess": chess_model(n_returned=2, data=chess),
        "Halo": halo_model(n_returned=4, data=halo),
    }
    for name, program in rebuilt.items():
        if program_fingerprint(program) != program_fingerprint(benchmark(name).bench()):
            raise SystemExit(f"{name}: rebuilt program differs from the registry's")
    out["HIV"] = hiv_reference(hiv, 2)
    out["BayesianLinearRegression"] = linreg_reference(regression, 12)
    out["Chess"] = chess_reference(chess, 2, draws=2_000_000)
    out["Halo"] = halo_reference(halo, 4, draws=2_000_000)
    return {
        name: {"mean": r.mean, "sd": r.sd, "se": r.se, "method": r.method}
        for name, r in out.items()
    }


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    table = {
        "about": (
            "Posterior mean and sd of the return value of each Table-1 "
            "program at bench scale (repro.models.benchmark(name).bench()), "
            "computed on the unsliced program; se is the reference's own "
            "standard error (0 when exact). Rebuild with "
            "python3 perfbench/make_reference.py."
        ),
        "models": references(),
    }
    path = ROOT / "perfbench" / "reference.json"
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    for name, row in table["models"].items():
        print(f"{name:<26} mean={row['mean']:.6g} sd={row['sd']:.4g} "
              f"se={row['se']:.3g} ({row['method']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
