"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload cold-slice --seed 1 --seconds 35 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs with
per-job trace recorders and prints the per-layer table instead.  Every
metric goes to stdout as ``name value unit``; the last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The exit
status is 0 whenever a result was printed, and 2 when the package
under test is missing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HASH_SEED = "0"
WORKLOADS = ("cold-slice", "warm-sample", "serve-open")
END_TO_END_UNITS = {
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "jobs_per_s": "1/s",
    "samples_per_s": "1/s",
    "ess_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no package under {ROOT / 'src'}; run from a full checkout",
            file=sys.stderr,
        )
        return 2
    # String hashing is randomized per process, and the layout it gives
    # the program's dicts and sets moves its speed by up to a third from
    # one process to the next.  Pin it (children inherit it), so runs
    # differ only by their inputs.
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench.common import PER_LAYER

    module = importlib.import_module("perfbench." + args.workload.replace("-", "_"))
    out = module.run(args.seed, args.seconds, bool(args.trace))

    failures = out["failures"]
    attempted = out["attempted"]
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: {len(out['jobs'])} jobs completed")
    print(f"failed_frac {len(failures) / max(1, attempted):.4f} "
          f"({len(failures)} of {attempted} attempted)")
    for reason in failures[:10]:
        print(f"  failed: {reason}")
    if args.trace:
        units = dict(PER_LAYER)
        metrics = {name: {"value": out["per_layer"][name], "unit": units[name]}
                   for name, _ in PER_LAYER}
    else:
        metrics = {name: {"value": out["end_to_end"][name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    width = max(len(name) for name in metrics)
    for name, m in metrics.items():
        print(f"{name:<{width}}  {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
