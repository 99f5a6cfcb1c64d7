"""Inference-health monitors over the live snapshot stream.

The compiled-MH snapshot ``BENCH_pr3.json`` (last in the tree at
commit ``e4048bf``) showed why raw samples/sec is not the whole story:
sliced BayesianLinearRegression runs 9.5x faster but its MH acceptance
collapses from 0.928 to 0.206, so much of that speed buys correlated
samples.  The monitors here watch the :class:`~repro.obs.live.Snapshot`
stream *during* a run and turn pathologies into structured
:class:`HealthWarning` records:

* :class:`AcceptanceCollapseMonitor` — windowed MH acceptance rate
  below a calibrated threshold (0.25 separates the BLR collapse from
  every healthy Table-1 run; HIV, the next-lowest, sits at 0.32).
* :class:`WeightDegeneracyMonitor` — likelihood-weighting Kish ESS
  collapsing relative to draws (a few heavy weights dominating).
* :class:`ResampleStormMonitor` — SMC resampling at nearly every
  barrier, the classic weight-degeneracy signature.
* :class:`StallMonitor` — a source that stops reporting progress for
  longer than a deadline while other activity continues.
* :class:`ConvergenceMonitor` — finalize-time ESS/sec and split-R-hat
  of the merged result, read from :mod:`repro.metrics.online`.

A :class:`HealthTracker` is the whole panel as one subscriber of a
:class:`~repro.obs.recorder.TraceRecorder`, and renders a
:class:`HealthReport` (machine-readable via :meth:`HealthReport.to_dict`,
human-readable via :meth:`HealthReport.summary`) that run drivers
attach to ``InferenceResult.health``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from .export import _jsonable
from .live import Snapshot

__all__ = [
    "HealthWarning",
    "HealthReport",
    "HealthMonitor",
    "AcceptanceCollapseMonitor",
    "WeightDegeneracyMonitor",
    "ResampleStormMonitor",
    "StallMonitor",
    "ConvergenceMonitor",
    "HealthTracker",
    "default_monitors",
]

#: Engines whose ``accept_rate`` progress metric is an MH acceptance
#: probability.  The rejection sampler also reports ``accept_rate``,
#: but a tiny rejection acceptance is the *expected* cost of the
#: method, not a pathology, so it is excluded.
MH_SOURCES = ("r2-mh", "church-mh", "gibbs")


def _chain_key(snapshot: Snapshot, source: str) -> Tuple[Optional[int], str]:
    """``(worker, source)`` with the ``w<i>/`` merge prefix read back
    into the worker index, so a worker's in-flight snapshot and the
    parent's merged one name the same chain alike."""
    if snapshot.worker is None:
        head, _, base = source.partition("/")
        if base and head[:1] == "w" and head[1:].isdigit():
            return int(head[1:]), base
    return snapshot.worker, source


@dataclass(frozen=True)
class HealthWarning:
    """One structured monitor finding."""

    kind: str
    source: str
    message: str
    severity: str = "warning"
    value: Optional[float] = None
    threshold: Optional[float] = None
    t: float = 0.0
    worker: Optional[int] = None
    data: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "source": self.source,
            "message": self.message,
            "severity": self.severity,
            "value": _jsonable(self.value),
            "threshold": self.threshold,
            "t": self.t,
            "worker": self.worker,
            "data": dict(self.data),
        }


@dataclass
class HealthReport:
    """Everything the monitor panel concluded about one run."""

    warnings: List[HealthWarning] = field(default_factory=list)
    info: Dict[str, Any] = field(default_factory=dict)
    n_snapshots: int = 0

    @property
    def clean(self) -> bool:
        return not self.warnings

    def has(self, kind: str) -> bool:
        return any(w.kind == kind for w in self.warnings)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "clean": self.clean,
            "n_snapshots": self.n_snapshots,
            "warnings": [w.to_dict() for w in self.warnings],
            "info": dict(self.info),
        }

    def summary(self) -> str:
        """Human summary printed at run end."""
        if self.clean:
            lines = [f"health: ok ({self.n_snapshots} snapshots, 0 warnings)"]
        else:
            lines = [
                f"health: {len(self.warnings)} warning(s) "
                f"over {self.n_snapshots} snapshots"
            ]
            for w in self.warnings:
                where = w.source if w.worker is None else f"w{w.worker}/{w.source}"
                lines.append(f"  [{w.severity}] {w.kind} {where}: {w.message}")
        for key in sorted(self.info):
            lines.append(f"  {key} = {self.info[key]}")
        return "\n".join(lines)


class HealthMonitor:
    """Base monitor: observe snapshots in flight, finalize on result."""

    kind = "generic"

    def observe(self, snapshot: Snapshot) -> Iterable[HealthWarning]:
        return ()

    def finalize(
        self, result: Any = None, elapsed: Optional[float] = None
    ) -> Iterable[HealthWarning]:
        return ()

    def info(self) -> Dict[str, Any]:
        return {}


class AcceptanceCollapseMonitor(HealthMonitor):
    """Flag MH sources whose acceptance rate collapses.

    Fires once per (worker, source) when, after ``min_proposals``
    proposals, either the cumulative acceptance or the rate over the
    window since the previous snapshot (when the window holds at least
    ``min_window`` proposals) drops below ``threshold``.
    """

    kind = "acceptance-collapse"

    def __init__(
        self,
        threshold: float = 0.25,
        min_proposals: int = 200,
        min_window: int = 100,
        sources: Tuple[str, ...] = MH_SOURCES,
    ) -> None:
        self.threshold = threshold
        self.min_proposals = min_proposals
        self.min_window = min_window
        self.sources = sources
        self._state: Dict[Tuple[Optional[int], str], Dict[str, float]] = {}

    def observe(self, snapshot: Snapshot) -> Iterable[HealthWarning]:
        warnings: List[HealthWarning] = []
        for source, st in snapshot.progress.items():
            metrics = st.get("metrics", {})
            rate = metrics.get("accept_rate")
            key = _chain_key(snapshot, source)
            if rate is None or key[1] not in self.sources:
                continue
            done = int(st.get("done", 0))
            accepted = float(rate) * done
            prev = self._state.setdefault(
                key, {"done": 0.0, "accepted": 0.0, "warned": 0.0}
            )
            window_done = done - prev["done"]
            window_accepted = accepted - prev["accepted"]
            prev["done"], prev["accepted"] = float(done), accepted
            if prev["warned"] or done < self.min_proposals:
                continue
            collapsed = None
            if float(rate) < self.threshold:
                collapsed = ("cumulative", float(rate))
            elif window_done >= self.min_window:
                windowed = window_accepted / window_done
                if windowed < self.threshold:
                    collapsed = ("windowed", windowed)
            if collapsed is None:
                continue
            prev["warned"] = 1.0
            mode, value = collapsed
            warnings.append(
                HealthWarning(
                    kind=self.kind,
                    source=source,
                    severity="critical",
                    message=(
                        f"{mode} acceptance {value:.3f} < "
                        f"{self.threshold} after {done} proposals"
                    ),
                    value=value,
                    threshold=self.threshold,
                    t=snapshot.t,
                    worker=snapshot.worker,
                    data={"done": done, "mode": mode},
                )
            )
        return warnings


class WeightDegeneracyMonitor(HealthMonitor):
    """Flag importance sampling whose Kish ESS collapses vs draw count."""

    kind = "weight-degeneracy"

    def __init__(self, min_ratio: float = 0.05, min_draws: int = 200) -> None:
        self.min_ratio = min_ratio
        self.min_draws = min_draws
        self._warned: set = set()

    def observe(self, snapshot: Snapshot) -> Iterable[HealthWarning]:
        warnings: List[HealthWarning] = []
        for source, st in snapshot.progress.items():
            ess = st.get("metrics", {}).get("ess")
            if ess is None:
                continue
            done = int(st.get("done", 0))
            key = _chain_key(snapshot, source)
            if key in self._warned or done < self.min_draws:
                continue
            ratio = float(ess) / done if done else 1.0
            if ratio >= self.min_ratio:
                continue
            self._warned.add(key)
            warnings.append(
                HealthWarning(
                    kind=self.kind,
                    source=source,
                    message=(
                        f"Kish ESS {float(ess):.1f} of {done} draws "
                        f"(ratio {ratio:.3f} < {self.min_ratio})"
                    ),
                    value=ratio,
                    threshold=self.min_ratio,
                    t=snapshot.t,
                    worker=snapshot.worker,
                    data={"ess": float(ess), "done": done},
                )
            )
        return warnings


class ResampleStormMonitor(HealthMonitor):
    """Flag SMC runs that resample at (nearly) every barrier."""

    kind = "resample-storm"

    def __init__(self, max_rate: float = 0.9, min_barriers: int = 8) -> None:
        self.max_rate = max_rate
        self.min_barriers = min_barriers
        self._warned: set = set()

    def observe(self, snapshot: Snapshot) -> Iterable[HealthWarning]:
        warnings: List[HealthWarning] = []
        for source, st in snapshot.progress.items():
            metrics = st.get("metrics", {})
            barriers = metrics.get("barriers")
            resamples = metrics.get("resamples")
            if barriers is None or resamples is None:
                continue
            key = _chain_key(snapshot, source)
            if key in self._warned or barriers < self.min_barriers:
                continue
            rate = float(resamples) / float(barriers)
            if rate <= self.max_rate:
                continue
            self._warned.add(key)
            warnings.append(
                HealthWarning(
                    kind=self.kind,
                    source=source,
                    message=(
                        f"resampled at {int(resamples)}/{int(barriers)} "
                        f"barriers (rate {rate:.2f} > {self.max_rate})"
                    ),
                    value=rate,
                    threshold=self.max_rate,
                    t=snapshot.t,
                    worker=snapshot.worker,
                    data={
                        "barriers": int(barriers),
                        "resamples": int(resamples),
                    },
                )
            )
        return warnings


class StallMonitor(HealthMonitor):
    """Flag sources that stop making progress while snapshots keep
    arriving.

    Publication is event-driven, so a *totally* dead process emits no
    snapshots and this monitor stays silent — but in the common cases
    (one stuck worker among many, one engine wedged while the pipeline
    ticks) other activity keeps the stream alive and the stalled
    source's unchanged ``done`` is visible against it.  Idle time is
    measured on the absolute ``epoch + t`` timeline, because a chain's
    snapshots come from its worker's recorder and then from the
    parent's.
    """

    kind = "stall"

    def __init__(self, deadline: float = 5.0) -> None:
        self.deadline = deadline
        self._last_change: Dict[Tuple[Optional[int], str], Dict[str, float]] = {}
        self._warned: set = set()

    def observe(self, snapshot: Snapshot) -> Iterable[HealthWarning]:
        warnings: List[HealthWarning] = []
        now = snapshot.epoch + snapshot.t
        for source, st in snapshot.progress.items():
            done = int(st.get("done", 0))
            total = st.get("total")
            key = _chain_key(snapshot, source)
            state = self._last_change.setdefault(key, {"done": -1.0, "t": now})
            if done != state["done"]:
                state["done"], state["t"] = float(done), now
                continue
            if total is not None and done >= total:
                continue  # finished, not stalled
            if key in self._warned:
                continue
            idle = now - state["t"]
            if idle < self.deadline:
                continue
            self._warned.add(key)
            warnings.append(
                HealthWarning(
                    kind=self.kind,
                    source=source,
                    message=(
                        f"no progress for {idle:.1f}s "
                        f"(stuck at {done}"
                        + (f"/{int(total)}" if total is not None else "")
                        + f", deadline {self.deadline}s)"
                    ),
                    value=idle,
                    threshold=self.deadline,
                    t=snapshot.t,
                    worker=snapshot.worker,
                    data={"done": done, "total": total},
                )
            )
        return warnings


class ConvergenceMonitor(HealthMonitor):
    """Finalize-time ESS, ESS/sec and split-R-hat of the merged result,
    as :meth:`repro.metrics.online.ChainSummary.of` reads them.

    ``info`` carries ``ess`` and ``ess_kind``, ``ess_per_sec`` when the
    run took time, ``split_r_hat`` for a multi-chain result (``"nan"``
    or ``"inf"`` when not finite, so the report stays valid JSON), and
    ``reason`` when a reading is degenerate beyond being one chain.
    """

    kind = "non-convergence"

    def __init__(self, r_hat_threshold: float = 1.1) -> None:
        self.r_hat_threshold = r_hat_threshold
        self._info: Dict[str, Any] = {}

    def finalize(
        self, result: Any = None, elapsed: Optional[float] = None
    ) -> Iterable[HealthWarning]:
        if result is None:
            return ()
        from ..metrics.online import ChainSummary

        try:
            summary = ChainSummary.of(result)
        except ValueError:
            return []  # no draws, or draws that are not scalars
        weighted = getattr(result, "weights", None) is not None
        self._info = {
            "ess_kind": "kish" if weighted else "autocorrelation",
            "ess": round(summary.ess, 2),
        }
        elapsed = elapsed if elapsed is not None else getattr(
            result, "elapsed_seconds", None
        )
        if elapsed:
            self._info["ess_per_sec"] = round(summary.ess / elapsed, 2)
        if summary.reason not in (None, "single-chain"):
            self._info["reason"] = summary.reason
        if summary.n_chains < 2:
            return []
        value = summary.r_hat
        self._info["split_r_hat"] = _jsonable(round(value, 4))
        if not value > self.r_hat_threshold:
            return []
        return [
            HealthWarning(
                kind=self.kind,
                source="chains",
                message=(
                    f"split R-hat {value:.3f} > {self.r_hat_threshold} "
                    f"over {summary.n_chains} chains"
                ),
                value=value,
                threshold=self.r_hat_threshold,
                data={"n_chains": summary.n_chains},
            )
        ]

    def info(self) -> Dict[str, Any]:
        return dict(self._info)


def default_monitors() -> List[HealthMonitor]:
    return [
        AcceptanceCollapseMonitor(),
        WeightDegeneracyMonitor(),
        ResampleStormMonitor(),
        StallMonitor(),
        ConvergenceMonitor(),
    ]


class HealthTracker:
    """The monitor panel: a subscriber of a
    :class:`~repro.obs.recorder.TraceRecorder`; :meth:`finalize` it once
    the run's ``InferenceResult`` exists."""

    def __init__(self, monitors: Optional[Iterable[HealthMonitor]] = None) -> None:
        self.monitors: List[HealthMonitor] = (
            list(monitors) if monitors is not None else default_monitors()
        )
        self.warnings: List[HealthWarning] = []
        self.n_snapshots = 0
        self._on_warning: List[Any] = []

    def on_warning(self, fn: Any) -> None:
        """Register a callback fired as each warning is raised (the
        watch dashboard uses this to surface warnings in flight)."""
        self._on_warning.append(fn)

    def __call__(self, snapshot: Snapshot) -> None:
        self.n_snapshots += 1
        for monitor in self.monitors:
            for warning in monitor.observe(snapshot):
                self.warnings.append(warning)
                for fn in self._on_warning:
                    fn(warning)

    def finalize(
        self, result: Any = None, elapsed: Optional[float] = None
    ) -> HealthReport:
        """Run the finalize-time monitors and render the report.

        Safe to call more than once; in-flight warnings accumulate
        across calls only once (monitors dedupe), finalize warnings are
        recomputed from the supplied result.
        """
        warnings = list(self.warnings)
        info: Dict[str, Any] = {}
        for monitor in self.monitors:
            for warning in monitor.finalize(result=result, elapsed=elapsed):
                warnings.append(warning)
                for fn in self._on_warning:
                    fn(warning)
            info.update(monitor.info())
        return HealthReport(
            warnings=warnings, info=info, n_snapshots=self.n_snapshots
        )
