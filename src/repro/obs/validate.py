"""Validate JSONL trace / NDJSON snapshot exports against the
checked-in schemas.

Usage::

    python -m repro.obs.validate TRACE.jsonl [...]
    python -m repro.obs.validate --schema snapshot METRICS.ndjson [...]

``--schema trace`` (the default) validates ``--trace`` JSONL exports
against ``trace_schema.json``; ``--schema snapshot`` validates
``--stream-metrics`` NDJSON streams against ``snapshot_schema.json``.

Exit status 0 when every line of every file validates, 1 otherwise.
Requires the ``jsonschema`` package (a test dependency, installed by
the ``test`` extra); a clear error is printed when it is missing rather
than an ImportError traceback.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List, Optional, Tuple

__all__ = [
    "SCHEMA_PATH",
    "SCHEMA_PATHS",
    "load_schema",
    "validate_jsonl",
    "main",
]

SCHEMA_PATHS: Dict[str, str] = {
    "trace": os.path.join(os.path.dirname(__file__), "trace_schema.json"),
    "snapshot": os.path.join(
        os.path.dirname(__file__), "snapshot_schema.json"
    ),
}

#: Back-compat alias: the PR 3 trace schema.
SCHEMA_PATH = SCHEMA_PATHS["trace"]


def load_schema(kind: str = "trace") -> dict:
    try:
        path = SCHEMA_PATHS[kind]
    except KeyError:
        raise ValueError(
            f"unknown schema {kind!r} (expected one of {sorted(SCHEMA_PATHS)})"
        ) from None
    with open(path) as f:
        return json.load(f)


def validate_jsonl(path: str, schema: str = "trace") -> List[Tuple[int, str]]:
    """Validate every line of ``path``; returns ``(lineno, error)``
    pairs (empty means the file is valid)."""
    try:
        import jsonschema
    except ImportError as exc:  # pragma: no cover - dev-dep missing
        raise RuntimeError(
            "trace validation needs the 'jsonschema' package "
            "(pip install jsonschema)"
        ) from exc

    validator = jsonschema.Draft202012Validator(load_schema(schema))
    errors: List[Tuple[int, str]] = []
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                errors.append((lineno, f"not JSON: {exc}"))
                continue
            for err in validator.iter_errors(record):
                errors.append((lineno, err.message))
    return errors


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    schema = "trace"
    if "--schema" in argv:
        at = argv.index("--schema")
        try:
            schema = argv[at + 1]
        except IndexError:
            print("--schema needs a value (trace|snapshot)", file=sys.stderr)
            return 2
        del argv[at : at + 2]
    if schema not in SCHEMA_PATHS:
        print(
            f"unknown schema {schema!r} (expected trace|snapshot)",
            file=sys.stderr,
        )
        return 2
    if not argv:
        print(
            "usage: python -m repro.obs.validate "
            "[--schema trace|snapshot] FILE [...]",
            file=sys.stderr,
        )
        return 2
    status = 0
    for path in argv:
        try:
            errors = validate_jsonl(path, schema=schema)
        except (OSError, RuntimeError) as exc:
            print(f"{path}: {exc}", file=sys.stderr)
            status = 1
            continue
        if errors:
            status = 1
            for lineno, message in errors[:20]:
                print(f"{path}:{lineno}: {message}", file=sys.stderr)
            if len(errors) > 20:
                print(f"{path}: ... {len(errors) - 20} more", file=sys.stderr)
        else:
            print(f"{path}: ok ({schema})")
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
