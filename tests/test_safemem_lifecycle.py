"""Regression tests for SafeMem lifecycle edges.

Covers the allocator-lifecycle bugs fixed alongside the fast-path work:

- detaching (or querying) a monitor that never attached,
- custom-allocator wrappers fed a failed (``None``) allocation,
- realloc's interplay with the freed-buffer watch.
"""

import pytest

from repro.core.config import (
    SafeMemConfig,
    full_config,
    leak_only_config,
)
from repro.core.safemem import SafeMem
from repro.machine.machine import Machine
from repro.machine.program import Program


def make_program(config=None):
    machine = Machine(dram_size=16 * 1024 * 1024)
    safemem = SafeMem(config)
    program = Program(machine, monitor=safemem, heap_size=4 * 1024 * 1024)
    return program, safemem


class TestDetachedMonitor:
    def test_on_exit_before_attach_does_not_crash(self):
        safemem = SafeMem()
        safemem.on_exit()  # must not raise AttributeError

    def test_telemetry_before_attach_reports_zeros(self):
        safemem = SafeMem()
        snapshot = safemem.telemetry()
        assert snapshot.get("safemem.watch.arms") == 0
        assert snapshot.get("safemem.watch.disarms") == 0
        assert snapshot.get("safemem.watch.pin_failures") == 0
        assert snapshot.get("safemem.watch.hw_repaired") == 0
        assert safemem.space_overhead_fraction() == 0.0

    def test_telemetry_after_attach_includes_machine_metrics(self):
        program, safemem = make_program(leak_only_config())
        buf = program.malloc(64)
        program.store(buf, b"x")
        program.load(buf, 1)
        snapshot = safemem.telemetry()
        for name in ("mmu.tlb.hit", "machine.load.slow",
                     "ecc.codec.lines_batched"):
            assert name in snapshot


class TestWrapAllocatorFailedAlloc:
    def _wrapped(self, safemem, alloc_results, freed):
        results = iter(alloc_results)

        def alloc_fn():
            return next(results)

        def free_fn(address):
            freed.append(address)

        return safemem.wrap_allocator(alloc_fn, free_fn, object_size=32)

    def test_failed_alloc_is_not_tracked(self):
        program, safemem = make_program(leak_only_config())
        real = program.malloc(32)
        freed = []
        alloc, free = self._wrapped(safemem, [real, None], freed)
        live_before = sum(
            g.live_count for g in safemem.leak.groups.groups()
        )
        assert alloc() == real
        assert alloc() is None  # exhausted custom pool
        live_after = sum(
            g.live_count for g in safemem.leak.groups.groups()
        )
        # Exactly one real object tracked; the None alloc left no
        # phantom live object behind.
        assert live_after == live_before + 1

    def test_free_none_is_a_noop(self):
        program, safemem = make_program(leak_only_config())
        freed = []
        _alloc, free = self._wrapped(safemem, [], freed)
        assert free(None) is None
        # The underlying free function never saw the call -- mirroring
        # libc free(NULL).
        assert freed == []

    def test_free_none_after_failed_alloc_roundtrip(self):
        program, safemem = make_program(leak_only_config())
        real = program.malloc(32)
        freed = []
        alloc, free = self._wrapped(safemem, [real, None], freed)
        for _ in range(2):
            free(alloc())
        assert freed == [real]


class TestReallocFreedWatchInterplay:
    """The freed-buffer watch armed by realloc's internal free must not
    corrupt the copied data or produce spurious access-to-freed reports."""

    def test_realloc_grow_preserves_data(self):
        program, safemem = make_program(full_config())
        buf = program.malloc(48)
        program.store(buf, b"0123456789abcdef" * 3)
        new = program.realloc(buf, 160)
        assert program.load(new, 48) == b"0123456789abcdef" * 3
        assert safemem.corruption_reports == []

    def test_realloc_shrink_preserves_prefix(self):
        program, safemem = make_program(full_config())
        buf = program.malloc(128)
        program.store(buf, bytes(range(128)))
        new = program.realloc(buf, 16)
        assert program.load(new, 16) == bytes(range(16))
        assert safemem.corruption_reports == []

    def test_realloc_chain_under_quarantine_pressure(self):
        # A small quarantine forces freed (watched) blocks to recycle
        # while realloc keeps allocating -- the allocator may hand the
        # drained lines right back.
        config = SafeMemConfig(
            detect_leaks=True,
            detect_corruption=True,
            freed_quarantine_bytes=1024,
        )
        program, safemem = make_program(config)
        buf = program.malloc(64)
        payload = b"live!"
        program.store(buf, payload)
        for size in (128, 256, 512, 640, 96, 1024):
            buf = program.realloc(buf, size)
            assert program.load(buf, len(payload)) == payload
        assert safemem.corruption_reports == []

    def test_realloc_leak_only_mode(self):
        program, safemem = make_program(leak_only_config())
        buf = program.malloc(40)
        program.store(buf, b"leakonly")
        new = program.realloc(buf, 200)
        assert program.load(new, 8) == b"leakonly"
        program.free(new)
        program.exit()
