"""The wire protocol: job-request validation and engine construction.

``POST /v1/jobs`` accepts one JSON object per job.  Validation is
hand-rolled (the server adds no hard dependency on ``jsonschema``) but
the contract is also published as machine-readable JSON Schemas next
to this module — ``job_request_schema.json`` for the request body and
``job_schema.json`` for every job representation the server returns
(poll responses and SSE ``status`` events alike).  The test suite
cross-validates both directions: hand-rolled acceptance agrees with
the schema on a corpus of good and bad payloads.

A valid payload parses into a :class:`JobSpec` — the immutable,
engine-agnostic description of one slice+infer job.  The spec carries
the parsed :class:`~repro.core.ast.Program` (parsing happens at
validation time so syntax errors surface as a 400, not as a failed
job) and knows how to build its inference engine.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

from ..core.ast import Program
from ..core.parser import ProbSyntaxError, parse

__all__ = [
    "ENGINES",
    "BACKENDS",
    "ProtocolError",
    "JobSpec",
    "validate_request",
    "build_engine",
    "load_schema",
]

#: Engine name -> (module, class); mirrors the CLI's --infer choices.
ENGINES = ("mh", "church", "importance", "rejection", "smc", "gibbs")

#: Executor backends: interpreter, Python-closure codegen, numpy array
#: backend (falls back to closures outside the vectorizable fragment).
BACKENDS = ("interp", "closure", "numpy")

_MAX_SAMPLES = 1_000_000
_MAX_PROGRAM_BYTES = 256 * 1024


class ProtocolError(ValueError):
    """A request failed validation; ``field`` names the culprit."""

    def __init__(self, field: str, message: str) -> None:
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message

    def to_dict(self) -> Dict[str, str]:
        return {"error": "invalid-request", "field": self.field,
                "message": self.message}


@dataclass(frozen=True)
class JobSpec:
    """One validated slice+infer job."""

    program: Program = field(compare=False)
    #: The program's origin: the raw source text, or the benchmark name.
    source: str = ""
    benchmark: Optional[str] = None
    tenant: str = "default"
    priority: int = 0
    slicer: str = "svf"
    engine: str = "mh"
    backend: str = "interp"
    samples: int = 1000
    seed: int = 0
    jobs: int = 1
    factorize: bool = False
    deadline_s: Optional[float] = None
    #: Minimum seconds between streamed snapshots (0 = every event).
    cadence: float = 0.25

    @property
    def compiled(self) -> "bool | str":
        """The engine's tri-state ``compiled`` flag for ``backend``."""
        return {"interp": False, "closure": True, "numpy": "numpy"}[
            self.backend
        ]

    def to_dict(self) -> Dict[str, Any]:
        """The request echo embedded in job representations."""
        return {
            "benchmark": self.benchmark,
            "tenant": self.tenant,
            "priority": self.priority,
            "slicer": self.slicer,
            "engine": self.engine,
            "backend": self.backend,
            "samples": self.samples,
            "seed": self.seed,
            "jobs": self.jobs,
            "factorize": self.factorize,
            "deadline_s": self.deadline_s,
        }


def _expect(payload: Mapping[str, Any], key: str, kind, default):
    value = payload.get(key, default)
    if value is default and key not in payload:
        return default
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ProtocolError(key, "expected a number")
        return float(value)
    if kind is int and isinstance(value, bool):
        raise ProtocolError(key, "expected an integer")
    if not isinstance(value, kind):
        raise ProtocolError(key, f"expected {kind.__name__}")
    return value


def validate_request(payload: Any) -> JobSpec:
    """Validate one ``POST /v1/jobs`` body into a :class:`JobSpec`.

    Raises :class:`ProtocolError` naming the offending field.  Exactly
    one of ``program`` (PROB source text) and ``benchmark`` (Table-1
    registry name) must be present; the program is parsed here so the
    caller can map syntax errors to a 400 response.
    """
    if not isinstance(payload, dict):
        raise ProtocolError("body", "expected a JSON object")
    known = {
        "program", "benchmark", "tenant", "priority", "slicer", "engine",
        "backend", "samples", "seed", "jobs", "factorize", "deadline_s",
        "cadence",
    }
    for key in payload:
        if key not in known:
            raise ProtocolError(key, "unknown field")

    source = payload.get("program")
    bench_name = payload.get("benchmark")
    if (source is None) == (bench_name is None):
        raise ProtocolError(
            "program", "give exactly one of 'program' and 'benchmark'"
        )
    if source is not None:
        if not isinstance(source, str):
            raise ProtocolError("program", "expected PROB source text")
        if len(source.encode()) > _MAX_PROGRAM_BYTES:
            raise ProtocolError(
                "program", f"larger than {_MAX_PROGRAM_BYTES} bytes"
            )
        try:
            program = parse(source)
        except ProbSyntaxError as exc:
            raise ProtocolError("program", f"syntax error: {exc}")
        except (ValueError, RecursionError) as exc:
            # The parser can still fail outside its own error type: a
            # non-ASCII digit reaches int(), and deep nesting exhausts
            # the stack.  Either way the request is at fault.
            raise ProtocolError("program", f"cannot parse: {exc}")
    else:
        if not isinstance(bench_name, str):
            raise ProtocolError("benchmark", "expected a benchmark name")
        from ..models import benchmark, benchmark_names

        try:
            program = benchmark(bench_name).bench()
        except KeyError:
            raise ProtocolError(
                "benchmark",
                f"unknown benchmark {bench_name!r}; one of: "
                + ", ".join(benchmark_names()),
            )
        source = ""

    tenant = _expect(payload, "tenant", str, "default")
    if not tenant or len(tenant) > 64:
        raise ProtocolError("tenant", "expected 1-64 characters")
    priority = _expect(payload, "priority", int, 0)
    if not -10 <= priority <= 10:
        raise ProtocolError("priority", "expected -10..10")

    from ..passes import SLICER_REGISTRY

    slicer = _expect(payload, "slicer", str, "svf")
    if slicer not in SLICER_REGISTRY:
        raise ProtocolError(
            "slicer", f"one of: {', '.join(sorted(SLICER_REGISTRY))}"
        )
    engine = _expect(payload, "engine", str, "mh")
    if engine not in ENGINES:
        raise ProtocolError("engine", f"one of: {', '.join(ENGINES)}")
    backend = _expect(payload, "backend", str, "interp")
    if backend not in BACKENDS:
        raise ProtocolError("backend", f"one of: {', '.join(BACKENDS)}")

    samples = _expect(payload, "samples", int, 1000)
    if not 1 <= samples <= _MAX_SAMPLES:
        raise ProtocolError("samples", f"expected 1..{_MAX_SAMPLES}")
    seed = _expect(payload, "seed", int, 0)
    jobs = _expect(payload, "jobs", int, 1)
    if not 1 <= jobs <= 16:
        raise ProtocolError("jobs", "expected 1..16")
    factorize = _expect(payload, "factorize", bool, False)
    if factorize and slicer != "svf":
        raise ProtocolError(
            "factorize", "only the 'svf' slicer supports factorization"
        )

    deadline_s = payload.get("deadline_s")
    if deadline_s is not None:
        deadline_s = _expect(payload, "deadline_s", float, None)
        if deadline_s <= 0:
            raise ProtocolError("deadline_s", "expected > 0 seconds")
    cadence = _expect(payload, "cadence", float, 0.25)
    if cadence < 0:
        raise ProtocolError("cadence", "expected >= 0 seconds")

    return JobSpec(
        program=program,
        source=source,
        benchmark=bench_name,
        tenant=tenant,
        priority=priority,
        slicer=slicer,
        engine=engine,
        backend=backend,
        samples=samples,
        seed=seed,
        jobs=jobs,
        factorize=factorize,
        deadline_s=deadline_s,
        cadence=cadence,
    )


def build_engine(spec: JobSpec):
    """The configured inference engine for ``spec``."""
    compiled = spec.compiled
    if spec.engine == "mh":
        from ..inference.mh import MetropolisHastings

        return MetropolisHastings(
            n_samples=spec.samples, seed=spec.seed, compiled=compiled
        )
    if spec.engine == "church":
        from ..inference.tracemh import ChurchTraceMH

        return ChurchTraceMH(
            n_samples=spec.samples, seed=spec.seed, compiled=compiled
        )
    if spec.engine == "importance":
        from ..inference.importance import LikelihoodWeighting

        return LikelihoodWeighting(
            n_samples=spec.samples, seed=spec.seed, compiled=compiled
        )
    if spec.engine == "rejection":
        from ..inference.rejection import RejectionSampler

        return RejectionSampler(
            n_samples=spec.samples, seed=spec.seed, compiled=compiled
        )
    if spec.engine == "smc":
        from ..inference.smc import SMCSampler

        return SMCSampler(
            n_particles=spec.samples, seed=spec.seed, compiled=compiled
        )
    if spec.engine == "gibbs":
        from ..inference.gibbs import GibbsSampler

        return GibbsSampler(n_samples=spec.samples, seed=spec.seed)
    raise ProtocolError("engine", f"unknown engine {spec.engine!r}")


def load_schema(name: str) -> Dict[str, Any]:
    """Load a published schema (``job_request`` or ``job``) by name."""
    path = os.path.join(os.path.dirname(__file__), f"{name}_schema.json")
    with open(path) as f:
        return json.load(f)
