"""Request validation, and its agreement with the published schemas."""

from __future__ import annotations

import jsonschema
import pytest

from repro.core.ast import Program
from repro.serve.protocol import (
    JobSpec,
    ProtocolError,
    build_engine,
    load_schema,
    validate_request,
)

from .conftest import TINY, payload


def err(body):
    with pytest.raises(ProtocolError) as info:
        validate_request(body)
    return info.value


class TestValidation:
    def test_minimal_program_request(self):
        spec = validate_request({"program": TINY})
        assert isinstance(spec.program, Program)
        assert spec.source == TINY
        assert spec.benchmark is None
        assert (spec.tenant, spec.priority) == ("default", 0)
        assert (spec.slicer, spec.engine, spec.backend) == (
            "svf", "mh", "interp",
        )
        assert (spec.samples, spec.seed, spec.jobs) == (1000, 0, 1)
        assert spec.deadline_s is None

    def test_benchmark_request(self):
        spec = validate_request({"benchmark": "BurglarAlarm"})
        assert spec.benchmark == "BurglarAlarm"
        assert isinstance(spec.program, Program)

    def test_unknown_benchmark_lists_names(self):
        e = err({"benchmark": "NoSuchModel"})
        assert e.field == "benchmark"
        assert "BurglarAlarm" in e.message

    def test_program_and_benchmark_exclusive(self):
        assert err(payload(benchmark="Ex3")).field == "program"
        assert err({}).field == "program"

    def test_syntax_error_is_protocol_error(self):
        e = err({"program": "bool c; c ~"})
        assert e.field == "program"
        assert "syntax" in e.message

    def test_unknown_field_rejected(self):
        assert err(payload(samplez=5)).field == "samplez"

    def test_non_object_body(self):
        assert err([1, 2]).field == "body"

    @pytest.mark.parametrize(
        "field,value",
        [
            ("priority", 11),
            ("priority", -11),
            ("samples", 0),
            ("samples", 10**9),
            ("jobs", 0),
            ("jobs", 17),
            ("engine", "hmc"),
            ("slicer", "magic"),
            ("backend", "cuda"),
            ("deadline_s", 0),
            ("deadline_s", -3),
            ("cadence", -0.1),
            ("tenant", ""),
            ("tenant", "x" * 65),
            ("samples", True),
            ("samples", "many"),
        ],
    )
    def test_bad_field_values(self, field, value):
        assert err(payload(**{field: value})).field == field

    def test_factorize_requires_svf(self):
        e = err(payload(factorize=True, slicer="ab"))
        assert e.field == "factorize"
        spec = validate_request(payload(factorize=True))
        assert spec.factorize is True

    def test_oversized_program_rejected(self):
        huge = TINY + " " * (300 * 1024)
        assert err({"program": huge}).field == "program"

    def test_error_wire_form(self):
        e = err(payload(engine="hmc"))
        d = e.to_dict()
        assert d["error"] == "invalid-request"
        assert d["field"] == "engine"

    def test_compiled_tristate(self):
        assert validate_request(payload()).compiled is False
        assert validate_request(payload(backend="closure")).compiled is True
        assert validate_request(payload(backend="numpy")).compiled == "numpy"


class TestEngines:
    @pytest.mark.parametrize(
        "engine", ["mh", "church", "importance", "rejection", "smc", "gibbs"]
    )
    def test_build_every_engine(self, engine):
        spec = validate_request(payload(engine=engine, samples=7, seed=3))
        built = build_engine(spec)
        assert getattr(built, "seed", 3) == 3
        assert built.name


class TestSchemaAgreement:
    """The hand-rolled validator and the published JSON Schema accept
    and reject the same corpus."""

    GOOD = [
        {"program": TINY},
        {"benchmark": "Ex3", "engine": "smc", "samples": 10},
        {"program": TINY, "tenant": "t1", "priority": 10,
         "deadline_s": 1.5, "cadence": 0},
        {"program": TINY, "slicer": "ab", "backend": "numpy", "jobs": 16},
    ]
    BAD = [
        {},
        {"program": TINY, "benchmark": "Ex3"},
        {"program": TINY, "priority": 99},
        {"program": TINY, "engine": "hmc"},
        {"program": TINY, "samples": 0},
        {"program": TINY, "deadline_s": 0},
        {"program": TINY, "unknown_field": 1},
    ]

    def test_request_schema_loads(self):
        schema = load_schema("job_request")
        jsonschema.Draft202012Validator.check_schema(schema)
        jsonschema.Draft202012Validator.check_schema(load_schema("job"))

    @pytest.mark.parametrize("body", GOOD)
    def test_good_agree(self, body):
        validate_request(dict(body))  # no raise
        jsonschema.validate(body, load_schema("job_request"))

    @pytest.mark.parametrize("body", BAD)
    def test_bad_agree(self, body):
        with pytest.raises(ProtocolError):
            validate_request(dict(body))
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(body, load_schema("job_request"))

    def test_spec_echo_is_schema_request_subset(self):
        spec = validate_request(payload())
        echo = spec.to_dict()
        assert set(echo) >= {"engine", "slicer", "backend", "samples", "seed"}
        assert isinstance(spec, JobSpec)
