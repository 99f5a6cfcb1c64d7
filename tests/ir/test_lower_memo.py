"""The identity-keyed lowering memo is a bounded LRU: it shares one
lowering between the passes and the compiler, and it stops pinning a
program once enough newer ones have been lowered."""

from __future__ import annotations

import gc
import importlib
import sys
import threading
import weakref

from repro.core.freevars import clear_free_vars_cache
from repro.core.parser import parse
from repro.ir import lower
from repro.semantics.compiled import clear_compile_cache, compile_program
from repro.semantics.vectorized import clear_vectorized_cache
from repro.transforms.pipeline import sli

# ``repro.ir.lower`` the attribute is the function; the module holds the memo.
lower_module = importlib.import_module("repro.ir.lower")

SOURCE = """
x ~ Bernoulli(0.5);
y ~ Bernoulli(0.3);
if (x) { z = y; } else { z = false; }
observe(x || y);
return z;
"""


def _fresh_program(i):
    return parse(f"a ~ Bernoulli(0.5); b = a || {'true' if i % 2 else 'false'}; return b;")


def test_hits_share_one_lowering():
    program = parse(SOURCE)
    assert lower(program) is lower(program)


def test_least_recently_used_entry_is_evicted_first():
    lower_module.clear_lower_cache()
    bound = lower_module._LOWER_CACHE_MAX
    keep = _fresh_program(0)
    first = lower(keep)
    others = [_fresh_program(i) for i in range(bound)]
    for i, program in enumerate(others):
        lower(program)
        if i == bound // 2:
            assert lower(keep) is first  # a hit refreshes the entry
    assert len(lower_module._LOWER_CACHE) == bound
    # The oldest entry not touched since went, not the refreshed one.
    assert id(others[0]) not in lower_module._LOWER_CACHE
    assert lower(keep) is first


def test_sliced_and_compiled_programs_are_released():
    lower_module.clear_lower_cache()
    program = parse(SOURCE)
    first = weakref.ref(program)
    for slicer in ("svf", "ab"):
        compile_program(sli(program, slicer=slicer).sliced)
    pinned = [weakref.ref(src) for src, _ in lower_module._LOWER_CACHE.values()]
    assert pinned
    del program
    clear_compile_cache()
    clear_vectorized_cache()
    clear_free_vars_cache()
    gc.collect()
    # Only the lowering memo holds them now.
    assert all(ref() is not None for ref in pinned)
    for i in range(lower_module._LOWER_CACHE_MAX + 1):
        lower(_fresh_program(i))
    gc.collect()
    # Evicted one by one as the newer programs came in, not by a clear.
    assert len(lower_module._LOWER_CACHE) == lower_module._LOWER_CACHE_MAX
    assert all(ref() is None for ref in pinned)
    assert first() is None


def test_concurrent_lowering_keeps_the_memo_consistent():
    # Serve jobs lower on worker threads.  Hits refresh and misses evict
    # concurrently; no call may fail, return another program's lowering,
    # or leave the memo over its bound.
    lower_module.clear_lower_cache()
    # More shared programs than the bound, so hits race with evictions.
    shared = [_fresh_program(i) for i in range(lower_module._LOWER_CACHE_MAX + 8)]
    errors = []

    def work(seed):
        try:
            for i in range(600):
                program = shared[(seed + i) % len(shared)] if i % 3 else _fresh_program(i)
                assert lower(program).source is program
        except BaseException as exc:  # reported below, on the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(lower_module._LOWER_CACHE) <= lower_module._LOWER_CACHE_MAX
