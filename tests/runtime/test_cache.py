"""ProgramCache: memory layer, disk layer, stats, and invalidation."""

import os
import pickle

import pytest

from repro.core.fingerprint import program_fingerprint
from repro.core.parser import parse
from repro.core.printer import pretty
from repro.models import TABLE1
from repro.obs import TraceRecorder, use_recorder
from repro.runtime import ProgramCache
from repro.semantics.compiled import clear_compile_cache
from repro.transforms.pipeline import sli

from repro.passes import PassManager, sli_passes

#: The sli() defaults, as get_slice/put_slice see them: entries are
#: keyed on the pass pipeline's fingerprint plus the slicer name.
SLICE_OPTIONS = {
    "pipeline": PassManager(sli_passes()).pipeline_key,
    "slicer": "svf",
}


@pytest.fixture(autouse=True)
def _fresh_compile_cache():
    # compile_program keeps its own module-level caches; isolate them
    # so hit/miss counters here reflect this test's cache only.
    clear_compile_cache()
    yield
    clear_compile_cache()


class TestMemoryLayer:
    def test_slice_miss_then_hit(self, ex2):
        cache = ProgramCache()
        first = cache.slice(ex2)
        second = cache.slice(ex2)
        # Hits return a copy with the stale per-pass timings cleared
        # (timings describe the run that produced the entry), so the
        # assertion is equality + stats, not identity.
        assert second == first
        assert second.pass_seconds == {}
        assert cache.stats.slice_misses == 1
        assert cache.stats.slice_hits == 1

    def test_hit_across_parse_print_round_trip(self, ex2):
        cache = ProgramCache()
        first = cache.slice(ex2)
        second = cache.slice(parse(pretty(ex2)))
        assert second == first
        assert cache.stats.slice_hits == 1

    def test_option_change_invalidates(self, ex2):
        cache = ProgramCache()
        plain = cache.slice(ex2)
        simplified = cache.slice(ex2, simplify=True)
        assert simplified is not plain
        assert cache.stats.slice_misses == 2
        assert cache.stats.slice_hits == 0
        # ... and each variant is remembered under its own key.
        assert cache.slice(ex2, simplify=True) == simplified
        assert cache.slice(ex2) == plain

    def test_cached_result_matches_direct_sli(self, ex2):
        cache = ProgramCache()
        assert pretty(cache.slice(ex2).sliced) == pretty(sli(ex2).sliced)

    def test_lru_eviction(self, ex2, ex4, ex6):
        cache = ProgramCache(max_entries=2)
        cache.slice(ex2)
        cache.slice(ex4)
        cache.slice(ex6)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        cache.slice(ex2)  # evicted → recomputed
        assert cache.stats.slice_misses == 4

    def test_eviction_emits_counter(self, ex2, ex4, ex6):
        cache = ProgramCache(max_entries=2)
        recorder = TraceRecorder()
        with use_recorder(recorder):
            cache.slice(ex2)
            cache.slice(ex4)
            cache.slice(ex6)
        assert recorder.counters["cache.evict"] == 1

    def test_compiled_miss_then_hit(self, ex2):
        cache = ProgramCache()
        first = cache.compiled(ex2)
        assert cache.compiled(ex2) is first
        assert cache.stats.compile_misses == 1
        assert cache.stats.compile_hits == 1

    @pytest.mark.parametrize("spec", TABLE1, ids=lambda spec: spec.name)
    def test_slice_renders_the_program_once(self, spec, monkeypatch):
        """A ``slice`` call prints the program once, for its flight
        key, cold or warm: the lookups inside ``sli`` reuse that text
        (a warm lookup used to print it twice, a cold one three times)."""
        import repro.core.fingerprint as fingerprint

        program = spec.bench()
        twin = parse(pretty(program))  # equal, not the same object
        renders = []
        render = fingerprint.pretty
        monkeypatch.setattr(
            fingerprint, "pretty", lambda obj: renders.append(obj) or render(obj)
        )
        cache = ProgramCache()
        cache.slice(program)
        assert renders == [program]
        renders.clear()
        cache.slice(twin)
        assert renders == [twin]
        assert cache.stats.slice_hits == 1


class TestDiskLayer:
    def test_fresh_instance_warm_starts_from_disk(self, ex2, tmp_path):
        warm = ProgramCache(cache_dir=str(tmp_path))
        first = warm.slice(ex2)
        cold = ProgramCache(cache_dir=str(tmp_path))
        restored = cold.slice(ex2)
        assert restored is not first  # unpickled, not shared
        assert pretty(restored.sliced) == pretty(first.sliced)
        assert cold.stats.disk_hits == 1
        assert cold.stats.slice_hits == 1
        assert cold.stats.slice_misses == 0

    def test_compiled_round_trips_through_disk(self, ex2, tmp_path):
        warm = ProgramCache(cache_dir=str(tmp_path))
        first = warm.compiled(ex2)
        clear_compile_cache()
        cold = ProgramCache(cache_dir=str(tmp_path))
        restored = cold.compiled(ex2)
        assert cold.stats.disk_hits == 1
        assert restored.source == first.source

    def test_corrupt_entry_is_a_miss(self, ex2, tmp_path):
        cache = ProgramCache(cache_dir=str(tmp_path))
        cache.slice(ex2)
        key = program_fingerprint(ex2, kind="slice", **SLICE_OPTIONS)
        path = tmp_path / f"{key}.slice.pkl"
        assert path.exists()
        path.write_bytes(b"not a pickle")
        cold = ProgramCache(cache_dir=str(tmp_path))
        result = cold.slice(ex2)
        assert cold.stats.slice_misses == 1
        assert cold.stats.disk_hits == 0
        assert pretty(result.sliced) == pretty(sli(ex2).sliced)
        # The recompute rewrote the entry.
        with open(path, "rb") as f:
            assert pickle.load(f) is not None

    def test_corrupt_entry_counted_and_deleted(self, ex2, tmp_path):
        cache = ProgramCache(cache_dir=str(tmp_path))
        cache.slice(ex2)
        key = program_fingerprint(ex2, kind="slice", **SLICE_OPTIONS)
        path = tmp_path / f"{key}.slice.pkl"
        path.write_bytes(b"\x80\x04truncated-pickle")
        cold = ProgramCache(cache_dir=str(tmp_path))
        # Probe the disk layer directly (no recompute/rewrite): the bad
        # file must be deleted, counted, and reported as a miss.
        assert cold.get_slice(ex2, dict(SLICE_OPTIONS)) is None
        assert cold.stats.disk_load_failures == 1
        assert cold.stats.disk_hits == 0
        assert cold.stats.slice_misses == 1
        assert not path.exists()

    def test_corrupt_entry_emits_counter(self, ex2, tmp_path):
        cache = ProgramCache(cache_dir=str(tmp_path))
        cache.slice(ex2)
        key = program_fingerprint(ex2, kind="slice", **SLICE_OPTIONS)
        path = tmp_path / f"{key}.slice.pkl"
        path.write_bytes(b"not a pickle")
        cold = ProgramCache(cache_dir=str(tmp_path))
        recorder = TraceRecorder()
        with use_recorder(recorder):
            result = cold.slice(ex2)
        assert recorder.counters["cache.disk_corrupt"] == 1
        assert recorder.counters["cache.slice.miss"] == 1
        assert "cache.disk_read" not in recorder.counters
        # ... and the recompute healed the entry in place.
        assert pretty(result.sliced) == pretty(sli(ex2).sliced)
        with open(path, "rb") as f:
            assert pickle.load(f) is not None

    def test_disk_read_counter_on_clean_hit(self, ex2, tmp_path):
        ProgramCache(cache_dir=str(tmp_path)).slice(ex2)
        cold = ProgramCache(cache_dir=str(tmp_path))
        recorder = TraceRecorder()
        with use_recorder(recorder):
            cold.slice(ex2)
        assert recorder.counters["cache.disk_read"] == 1
        assert recorder.counters["cache.slice.hit"] == 1
        assert cold.stats.disk_load_failures == 0

    def test_clear_disk(self, ex2, tmp_path):
        cache = ProgramCache(cache_dir=str(tmp_path))
        cache.slice(ex2)
        assert any(n.endswith(".pkl") for n in os.listdir(tmp_path))
        cache.clear(disk=True)
        assert len(cache) == 0
        assert not any(n.endswith(".pkl") for n in os.listdir(tmp_path))


class TestValidation:
    def test_rejects_nonpositive_max_entries(self):
        with pytest.raises(ValueError):
            ProgramCache(max_entries=0)


class TestConcurrency:
    """Regressions for repro.serve's shared-cache access pattern:
    concurrent readers must not corrupt the memory LRU, and two
    in-flight requests for one fingerprint must produce once.

    Synchronization is barrier/event-based — no sleeps — so these are
    deterministic, not timing-dependent."""

    def test_simultaneous_identical_compiles_compile_once(
        self, ex2, monkeypatch
    ):
        import threading

        from repro.semantics import compiled as compiled_mod

        calls = []
        real = compiled_mod.compile_program

        def counting_compile(program):
            calls.append(threading.get_ident())
            return real(program)

        monkeypatch.setattr(compiled_mod, "compile_program", counting_compile)
        cache = ProgramCache()
        n = 8
        barrier = threading.Barrier(n)
        errors = []

        def worker():
            try:
                barrier.wait(timeout=30)
                cache.compiled(ex2)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
        # The single-flight guarantee: one compile, everybody else hit.
        assert len(calls) == 1
        assert cache.stats.compile_misses == 1
        assert cache.stats.compile_hits == n - 1
        assert len(cache) == 1

    def test_simultaneous_identical_slices_slice_once(self, ex2):
        import threading

        cache = ProgramCache()
        n = 6
        barrier = threading.Barrier(n)
        results = []
        errors = []

        def worker():
            try:
                barrier.wait(timeout=30)
                results.append(cache.slice(ex2))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
        assert cache.stats.slice_misses == 1
        assert cache.stats.slice_hits == n - 1
        assert len({pretty(r.sliced) for r in results}) == 1

    def test_waiter_blocks_then_takes_hit_deterministically(
        self, ex2, monkeypatch
    ):
        """Event-sequenced double-submit: B provably *blocks* on A's
        in-flight compile (not merely arrives later), then takes the
        cache hit; flight_waits records exactly that."""
        import threading

        from repro.semantics import compiled as compiled_mod

        entered = threading.Event()
        release = threading.Event()
        b_blocked = threading.Event()
        calls = []
        real = compiled_mod.compile_program

        def gated_compile(program):
            calls.append("compile")
            entered.set()
            assert release.wait(timeout=30)
            return real(program)

        monkeypatch.setattr(compiled_mod, "compile_program", gated_compile)
        cache = ProgramCache()
        key = program_fingerprint(ex2, kind="compiled")

        class SignallingLock:
            """A flight lock that announces blocking acquires."""

            def __init__(self):
                self._lock = threading.Lock()

            def acquire(self, blocking=True):
                if blocking:
                    b_blocked.set()
                return self._lock.acquire(blocking)

            def release(self):
                self._lock.release()

            def locked(self):
                return self._lock.locked()

        cache._flights[key] = SignallingLock()

        a = threading.Thread(target=lambda: cache.compiled(ex2))
        a.start()
        assert entered.wait(timeout=30)  # A holds the flight, compiling
        b = threading.Thread(target=lambda: cache.compiled(ex2))
        b.start()
        assert b_blocked.wait(timeout=30)  # B is in the blocking acquire
        release.set()
        a.join(timeout=60)
        b.join(timeout=60)
        assert calls == ["compile"]
        assert cache.stats.flight_waits == 1
        assert cache.stats.compile_hits == 1
        assert cache.stats.compile_misses == 1

    def test_lru_stays_consistent_under_concurrent_churn(self, monkeypatch):
        """Readers move_to_end while writers popitem: before the mutex
        this corrupted the OrderedDict (KeyError out of move_to_end).
        Hammer a 3-entry LRU from 8 threads and verify the invariants
        hold and every result is correct."""
        import threading

        from repro.semantics import compiled as compiled_mod

        monkeypatch.setattr(
            compiled_mod, "compile_program", lambda program: ("unit", id(program))
        )
        programs = [
            parse(
                "bool c; c ~ Bernoulli(0.5); "
                f"observe(c); return c{' || c' * i};"
            )
            for i in range(10)
        ]
        cache = ProgramCache(max_entries=3)
        n_threads = 8
        barrier = threading.Barrier(n_threads)
        errors = []

        def worker(offset):
            try:
                barrier.wait(timeout=30)
                for i in range(40):
                    cache.compiled(programs[(offset + i) % len(programs)])
            except Exception as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert errors == []
        assert len(cache) <= 3
        assert cache.stats.evictions > 0
        # The LRU order structure survived: clear() still works and
        # every key maps to a value.
        assert all(v is not None for v in cache._memory.values())

    def test_flight_lock_table_does_not_leak(self, ex2):
        cache = ProgramCache()
        cache.slice(ex2)
        cache.compiled(ex2)
        assert cache._flights == {}
