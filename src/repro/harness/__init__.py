"""Benchmark harness: engine runners, speedup measurement, reports."""

from .report import format_convergence_table, format_speedup_table, format_table
from .sweep import SweepPoint, format_sweep, sweep_speedup
from .runner import (
    EngineRun,
    RunStatus,
    SpeedupRow,
    measure_speedup,
    run_engine,
)

__all__ = [
    "format_convergence_table",
    "format_speedup_table",
    "format_table",
    "EngineRun",
    "RunStatus",
    "SpeedupRow",
    "measure_speedup",
    "run_engine",
    "SweepPoint",
    "format_sweep",
    "sweep_speedup",
]
