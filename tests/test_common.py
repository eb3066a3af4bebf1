"""Unit tests for repro.common: constants, clock, costs, events."""

import pytest

from repro.common.clock import (
    VirtualClock,
    cycles_to_microseconds,
    microseconds_to_cycles,
    seconds_to_cycles,
)
from repro.common.constants import (
    CACHE_LINE_SIZE,
    CYCLES_PER_MICROSECOND,
    CYCLES_PER_SECOND,
    LINES_PER_PAGE,
    PAGE_SIZE,
    SCRAMBLE_BIT_COUNT,
    SCRAMBLE_BIT_POSITIONS,
    align_down,
    align_up,
    is_aligned,
    line_base,
    page_base,
)
from repro.common.costs import CostModel, default_cost_model, zero_cost_model
from repro.common.events import EventKind, EventLog


class TestConstants:
    def test_page_is_64_lines(self):
        # This ratio produces the paper's 64-74x space-reduction band.
        assert LINES_PER_PAGE == 64
        assert PAGE_SIZE == CACHE_LINE_SIZE * LINES_PER_PAGE

    def test_scramble_flips_three_bits(self):
        assert len(SCRAMBLE_BIT_POSITIONS) == SCRAMBLE_BIT_COUNT == 3
        assert len(set(SCRAMBLE_BIT_POSITIONS)) == 3
        assert all(0 <= p < 64 for p in SCRAMBLE_BIT_POSITIONS)

    def test_align_down_up(self):
        assert align_down(100, 64) == 64
        assert align_up(100, 64) == 128
        assert align_up(128, 64) == 128
        assert align_down(128, 64) == 128

    def test_is_aligned(self):
        assert is_aligned(0, 64)
        assert is_aligned(4096, 4096)
        assert not is_aligned(100, 64)

    def test_line_and_page_base(self):
        assert line_base(0x1234) == 0x1234 - 0x1234 % CACHE_LINE_SIZE
        assert page_base(0x1234) == 0x1000


class TestVirtualClock:
    def test_starts_at_zero(self):
        clock = VirtualClock()
        assert clock.cycles == 0
        assert clock.idle_cycles == 0

    def test_tick_accumulates_cpu_time(self):
        clock = VirtualClock()
        clock.tick(100)
        clock.tick(50)
        assert clock.cpu_time == 150
        assert clock.wall_time == 150

    def test_idle_does_not_count_as_cpu_time(self):
        clock = VirtualClock()
        clock.tick(10)
        clock.idle(1000)
        assert clock.cpu_time == 10
        assert clock.wall_time == 1010

    def test_negative_tick_rejected(self):
        clock = VirtualClock()
        with pytest.raises(ValueError):
            clock.tick(-1)
        with pytest.raises(ValueError):
            clock.idle(-5)

    def test_unit_conversions(self):
        clock = VirtualClock()
        clock.tick(CYCLES_PER_SECOND)
        assert clock.cpu_seconds == pytest.approx(1.0)
        assert clock.cpu_microseconds == pytest.approx(1_000_000.0)

    def test_conversion_helpers_roundtrip(self):
        assert microseconds_to_cycles(2.0) == 2 * CYCLES_PER_MICROSECOND
        assert cycles_to_microseconds(CYCLES_PER_MICROSECOND) == 1.0
        assert seconds_to_cycles(0.5) == CYCLES_PER_SECOND // 2

    def test_snapshot(self):
        clock = VirtualClock()
        clock.tick(5)
        clock.idle(7)
        assert clock.snapshot() == (5, 7)


class TestCostModel:
    def test_table2_watch_memory_is_2_microseconds(self):
        costs = default_cost_model()
        assert cycles_to_microseconds(costs.watch_memory_cost(1)) == \
            pytest.approx(2.0, rel=0.05)

    def test_table2_disable_watch_is_1_5_microseconds(self):
        costs = default_cost_model()
        assert cycles_to_microseconds(costs.disable_watch_cost(1)) == \
            pytest.approx(1.5, rel=0.05)

    def test_table2_mprotect_is_1_02_microseconds(self):
        costs = default_cost_model()
        assert cycles_to_microseconds(costs.mprotect_cost(1)) == \
            pytest.approx(1.02, rel=0.05)

    def test_ecc_calls_cost_more_than_mprotect(self):
        # Paper: "Ours are slightly higher than mprotect because our
        # calls need to pin (unpin) the page."
        costs = default_cost_model()
        assert costs.watch_memory_cost(1) > costs.mprotect_cost(1)
        assert costs.disable_watch_cost(1) > costs.mprotect_cost(1)

    def test_watch_cost_scales_with_lines(self):
        costs = default_cost_model()
        one = costs.watch_memory_cost(1)
        four = costs.watch_memory_cost(4)
        assert four > one
        assert four - one == 3 * (costs.scramble_line + costs.flush_line)

    def test_zero_cost_model_is_free(self):
        costs = zero_cost_model()
        assert costs.watch_memory_cost(10) == 0
        assert costs.mprotect_cost(10) == 0
        assert costs.instruction == 0

    def test_purify_dilates_instructions(self):
        costs = CostModel()
        assert costs.purify_instruction_cost() > costs.instruction


class TestEventLog:
    def test_emit_stamps_current_cycle(self):
        clock = VirtualClock()
        log = EventLog(clock)
        clock.tick(42)
        log.emit(EventKind.WATCH, address=0x100, size=64)
        event = log.last()
        assert event.cycle == 42
        assert event.address == 0x100

    def test_query_by_kind(self):
        clock = VirtualClock()
        log = EventLog(clock)
        log.emit(EventKind.WATCH, address=1)
        log.emit(EventKind.UNWATCH, address=2)
        log.emit(EventKind.WATCH, address=3)
        assert log.count(EventKind.WATCH) == 2
        assert [e.address for e in log.of_kind(EventKind.UNWATCH)] == [2]

    def test_last_with_filter(self):
        clock = VirtualClock()
        log = EventLog(clock)
        assert log.last() is None
        log.emit(EventKind.WATCH, address=1)
        log.emit(EventKind.UNWATCH, address=2)
        assert log.last().address == 2
        assert log.last(EventKind.WATCH).address == 1
        assert log.last(EventKind.PANIC) is None

    def test_clear(self):
        clock = VirtualClock()
        log = EventLog(clock)
        log.emit(EventKind.WATCH)
        log.clear()
        assert len(log) == 0

    def test_event_str_is_informative(self):
        clock = VirtualClock()
        log = EventLog(clock)
        log.emit(EventKind.WATCH, address=0x40, size=64, who="test")
        text = str(log.last())
        assert "watch" in text
        assert "who=test" in text
