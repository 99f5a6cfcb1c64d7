"""Stable content fingerprints for PROB programs.

A fingerprint is the SHA-256 of the program's *canonical* concrete
syntax (``repro.core.printer.pretty`` — the same text the parser
round-trips, so structurally equal programs print identically and
``parse(pretty(p))`` fingerprints the same as ``p``) plus a sorted
rendering of whatever keyword options the caller mixes in (transform
flags, executor modes).  The runtime cache (:mod:`repro.runtime`)
keys slices and compiled executors by it, in memory and on disk.

``FINGERPRINT_VERSION`` is folded into every digest: bump it whenever
the printer's output or a cached artifact's layout changes, and every
stale on-disk entry invalidates itself.
"""

from __future__ import annotations

import hashlib
import weakref
from typing import Callable, Tuple, Union

from .ast import Expr, Program, Stmt
from .printer import pretty

__all__ = ["FINGERPRINT_VERSION", "program_fingerprint"]

#: Folded into every digest; bump on printer or cache-layout changes.
#: v2: ``SliceResult`` gained ``pass_seconds`` and slice entries are
#: keyed on the pass-pipeline fingerprint instead of option flags.
FINGERPRINT_VERSION = 2

#: A weak reference to the last object rendered, and its canonical
#: text.  A cache lookup fingerprints one program under several keys
#: (flight, get, put); the AST is frozen, so identity is enough to
#: reuse the text, and the weak reference keeps no program alive.
#: The pair is replaced whole, so concurrent callers never mix one
#: object's reference with another's text.  (``object()`` matches
#: nothing, so the first call renders.)
_LAST_RENDERED: Tuple[Callable[[], object], str] = (object, "")


def program_fingerprint(
    obj: Union[Program, Stmt, Expr], **options: object
) -> str:
    """Hex SHA-256 of ``obj``'s canonical text and the given options.

    Options are rendered with ``repr`` under sorted keys, so any
    picklable-reprable option value participates and key order never
    matters.  Distinct option sets (e.g. ``simplify=True`` vs
    ``False``) yield distinct fingerprints for the same program.
    """
    global _LAST_RENDERED
    last, text = _LAST_RENDERED
    if last() is not obj:
        text = pretty(obj)
        _LAST_RENDERED = (weakref.ref(obj), text)
    h = hashlib.sha256()
    h.update(f"repro-fingerprint-v{FINGERPRINT_VERSION}\x00".encode())
    h.update(text.encode())
    for key in sorted(options):
        h.update(f"\x00{key}={options[key]!r}".encode())
    return h.hexdigest()
