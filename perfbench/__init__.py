"""The repository's benchmark: slice → compile → infer and ``repro.serve``.

Run it from the repository root::

    python3 perfbench/run.py --workload cold-slice --seed 1 --seconds 35 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics, and what
each per-layer metric is expected to move.
"""
