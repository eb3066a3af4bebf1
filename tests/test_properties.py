"""Property-based tests (hypothesis) for core invariants.

These check the simulated machine against simple reference models:
memory behaves like a byte array regardless of cache/paging/ECC
activity, watchpoints never corrupt data, and the allocator never
hands out overlapping or out-of-arena blocks, and a monitoring stack
rebuilt from what a run records is wired exactly like the original.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.runner import make_monitor
from repro.common.constants import CACHE_LINE_SIZE, PAGE_SIZE
from repro.core.config import full_config
from repro.core.safemem import SafeMem
from repro.core.watcher import EccWatchManager, WatchTag
from repro.ecc.codec import SecDedCodec, DecodeStatus
from repro.heap.allocator import Allocator
from repro.machine.machine import Machine
from repro.machine.program import Program
from repro.obs.stack import (
    MonitorStackConfig,
    assemble_monitor_stack,
    build_monitor_stack,
)
from repro.obs.trend import DETECTORS, MIN_SLOPE_POINTS

BASE = 0x4000_0000
REGION_PAGES = 8
REGION = REGION_PAGES * PAGE_SIZE

settings.register_profile(
    "repro",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


# ----------------------------------------------------------------------
# machine memory vs. a flat byte-array reference model
# ----------------------------------------------------------------------
write_ops = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=REGION - 1),
        st.binary(min_size=1, max_size=200),
    ),
    min_size=1,
    max_size=40,
)


class TestMemoryModel:
    @given(write_ops)
    @settings(max_examples=40)
    def test_store_load_matches_reference(self, operations):
        machine = Machine(dram_size=4 * 1024 * 1024, cache_size=8 * 1024)
        machine.kernel.mmap(BASE, REGION)
        reference = bytearray(REGION)
        for offset, data in operations:
            data = data[: REGION - offset]
            if not data:
                continue
            machine.store(BASE + offset, data)
            reference[offset:offset + len(data)] = data
        assert machine.load(BASE, REGION) == bytes(reference)

    @given(write_ops)
    @settings(max_examples=20)
    def test_reference_holds_under_swap_pressure(self, operations):
        """Tiny DRAM: every access path includes evictions/swap-ins."""
        machine = Machine(dram_size=4 * PAGE_SIZE, cache_size=4 * 1024)
        machine.kernel.mmap(BASE, REGION)
        reference = bytearray(REGION)
        for offset, data in operations:
            data = data[: REGION - offset]
            if not data:
                continue
            machine.store(BASE + offset, data)
            reference[offset:offset + len(data)] = data
        for page in range(REGION_PAGES):
            start = page * PAGE_SIZE
            assert machine.load(BASE + start, PAGE_SIZE) == \
                bytes(reference[start:start + PAGE_SIZE])

    @given(write_ops)
    @settings(max_examples=20)
    def test_flush_all_never_changes_contents(self, operations):
        machine = Machine(dram_size=4 * 1024 * 1024, cache_size=8 * 1024)
        machine.kernel.mmap(BASE, REGION)
        for offset, data in operations:
            data = data[: REGION - offset]
            if data:
                machine.store(BASE + offset, data)
        before = machine.load(BASE, REGION)
        machine.cache.flush_all()
        assert machine.load(BASE, REGION) == before


# ----------------------------------------------------------------------
# watchpoint transparency
# ----------------------------------------------------------------------
line_indices = st.lists(
    st.integers(min_value=0, max_value=31), min_size=1, max_size=12,
)


class TestWatchTransparency:
    @given(line_indices, st.binary(min_size=32 * CACHE_LINE_SIZE,
                                   max_size=32 * CACHE_LINE_SIZE))
    @settings(max_examples=25)
    def test_watch_prune_roundtrip_preserves_memory(self, lines, image):
        """Arm arbitrary watchpoints, let first accesses prune them:
        the program must observe exactly the bytes it wrote."""
        machine = Machine(dram_size=4 * 1024 * 1024)
        machine.kernel.mmap(BASE, REGION)
        machine.store(BASE, image)
        watcher = EccWatchManager(machine)

        def on_hit(watch, info):
            watcher.unwatch(watch, restore=True)
            return True

        for index in set(lines):
            watcher.watch(BASE + index * CACHE_LINE_SIZE,
                          CACHE_LINE_SIZE, WatchTag.LEAK_SUSPECT, on_hit)
        assert machine.load(BASE, len(image)) == image
        assert watcher.active_watches() == []

    @given(line_indices)
    @settings(max_examples=25)
    def test_unwatch_without_access_also_restores(self, lines):
        machine = Machine(dram_size=4 * 1024 * 1024)
        machine.kernel.mmap(BASE, REGION)
        image = bytes(i % 251 for i in range(32 * CACHE_LINE_SIZE))
        machine.store(BASE, image)
        watcher = EccWatchManager(machine)
        watches = []
        for index in set(lines):
            watch = watcher.watch(BASE + index * CACHE_LINE_SIZE,
                                  CACHE_LINE_SIZE, WatchTag.PAD,
                                  lambda w, i: True)
            watches.append(watch)
        for watch in watches:
            watcher.unwatch(watch, restore=True)
        assert machine.load(BASE, len(image)) == image

    @given(st.integers(min_value=0, max_value=31))
    @settings(max_examples=30)
    def test_pin_accounting_balances(self, index):
        machine = Machine(dram_size=4 * 1024 * 1024)
        machine.kernel.mmap(BASE, REGION)
        machine.store(BASE + index * CACHE_LINE_SIZE, b"\0")
        watcher = EccWatchManager(machine)
        watch = watcher.watch(BASE + index * CACHE_LINE_SIZE,
                              CACHE_LINE_SIZE, WatchTag.PAD,
                              lambda w, i: True)
        assert machine.kernel.pinned_pages == 1
        watcher.unwatch(watch)
        assert machine.kernel.pinned_pages == 0


# ----------------------------------------------------------------------
# SafeMem transparency on random alloc/use/free programs
# ----------------------------------------------------------------------
program_ops = st.lists(
    st.tuples(
        st.sampled_from(["alloc", "use", "free"]),
        st.integers(min_value=1, max_value=300),
    ),
    min_size=5,
    max_size=60,
)


class TestSafeMemTransparency:
    @given(program_ops)
    @settings(max_examples=25)
    def test_monitored_program_sees_its_own_data(self, operations):
        """A legal program behaves identically under SafeMem: every
        live buffer reads back exactly what was written."""
        machine = Machine(dram_size=16 * 1024 * 1024)
        safemem = SafeMem(full_config())
        program = Program(machine, monitor=safemem,
                          heap_size=4 * 1024 * 1024)
        live = {}
        counter = 0
        for op, size in operations:
            if op == "alloc":
                address = program.malloc(size)
                payload = bytes((counter + i) % 256 for i in range(size))
                program.store(address, payload)
                live[address] = payload
                counter += 1
            elif op == "use" and live:
                address = next(iter(live))
                assert program.load(address, len(live[address])) == \
                    live[address]
            elif op == "free" and live:
                address, _payload = live.popitem()
                program.free(address)
        for address, payload in live.items():
            assert program.load(address, len(payload)) == payload
        assert safemem.corruption_reports == []


# ----------------------------------------------------------------------
# codec exhaustiveness
# ----------------------------------------------------------------------
class TestCodecProperties:
    @given(st.integers(min_value=0, max_value=2 ** 64 - 1),
           st.integers(min_value=0, max_value=255))
    @settings(max_examples=150)
    def test_decode_never_crashes_and_classifies(self, word, check):
        """Any (data, check) pair decodes to one of the three states."""
        codec = SecDedCodec()
        result = codec.decode(word, check)
        assert result.status in (
            DecodeStatus.OK,
            DecodeStatus.CORRECTED,
            DecodeStatus.UNCORRECTABLE,
        )

    @given(st.integers(min_value=0, max_value=2 ** 64 - 1))
    @settings(max_examples=100)
    def test_corrected_results_reencode_cleanly(self, word):
        """After correcting a single-bit error, re-encoding the
        corrected data matches a fresh encode (idempotence)."""
        codec = SecDedCodec()
        check = codec.encode(word)
        result = codec.decode(word ^ (1 << 17), check)
        assert result.data == word
        assert codec.encode(result.data) == check


# ----------------------------------------------------------------------
# allocator against a reference interval set
# ----------------------------------------------------------------------
alloc_script = st.lists(
    st.tuples(st.booleans(), st.integers(min_value=1, max_value=4096)),
    min_size=1, max_size=80,
)


class TestAllocatorProperties:
    @given(alloc_script)
    @settings(max_examples=40)
    def test_no_overlap_and_in_arena(self, script):
        allocator = Allocator(0x1000, 1024 * 1024)
        live = []
        for do_free, size in script:
            if do_free and live:
                allocator.free(live.pop())
            else:
                address = allocator.malloc(size)
                granted = allocator.lookup(address).size
                assert 0x1000 <= address
                assert address + granted <= 0x1000 + 1024 * 1024
                live.append(address)
        spans = sorted(
            (a, a + allocator.lookup(a).size) for a in live
        )
        for (s1, e1), (s2, _e2) in zip(spans, spans[1:]):
            assert e1 <= s2


# ----------------------------------------------------------------------
# the monitoring-stack builder: recorded stack == rebuilt stack
# ----------------------------------------------------------------------
@st.composite
def stack_configs(draw):
    sample_every = draw(st.one_of(st.none(),
                                  st.integers(1, 10 ** 8)))
    rules = draw(st.sampled_from(["default", "none"]))
    if sample_every is None:
        return MonitorStackConfig(rules=rules)
    trend = draw(st.one_of(st.none(), st.sampled_from(DETECTORS)))
    trend_window = seasonal_period = None
    if trend is not None:
        trend_window = draw(st.one_of(
            st.none(), st.integers(MIN_SLOPE_POINTS, 256)))
        seasonal_period = draw(st.one_of(
            st.none(), st.integers(1, 10 ** 9)))
    return MonitorStackConfig(
        sample_every=sample_every, rules=rules, trend=trend,
        trend_window=trend_window, seasonal_period=seasonal_period,
        history=draw(st.booleans()))


def _listener_names(stack):
    if stack.sampler is None:
        return []
    return [listener.__qualname__
            for listener in stack.sampler._listeners]


class TestMonitorStackBuilder:
    @given(stack_configs())
    @settings(max_examples=40)
    def test_rebuild_from_monitoring_info_is_a_fixed_point(self, config):
        built = build_monitor_stack(
            config, machine=Machine(dram_size=4 * 1024 * 1024))
        info = built.monitoring_info()
        assert info == config.monitoring()
        rebuilt = assemble_monitor_stack(
            info, Machine(dram_size=4 * 1024 * 1024),
            make_monitor(config.monitor))
        expected = []
        if config.sample_every is not None:
            expected = (["TrendEngine.observe"] if config.trend else []) \
                + ["AlertEngine.evaluate"] \
                + (["HistoryStore.observe"] if config.history else [])
        assert _listener_names(built) == expected
        assert _listener_names(rebuilt) == expected
        assert list(rebuilt.machine.metrics.instruments()) == \
            list(built.machine.metrics.instruments())
        assert rebuilt.monitoring_info() == info
