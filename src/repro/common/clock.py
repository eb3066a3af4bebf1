"""Virtual CPU clock.

The paper's leak detector reasons about *CPU time of the monitored
program*, explicitly excluding idle/IO wait (Section 3.1).  The
simulated machine therefore keeps two counters:

- ``cycles``: CPU cycles consumed by the program (and by monitoring
  work performed on its behalf -- that is exactly what shows up as
  monitoring *overhead*),
- ``idle_cycles``: wall-clock time that passed while the program was
  blocked (between server requests, waiting for IO, ...), which must
  NOT count toward object lifetimes.

The clock also hosts **periodic timers** (:meth:`VirtualClock.every`):
the continuous-monitoring layer (``repro.obs.sampler``) registers its
sampling cadence here so samples are driven by simulated CPU time, not
by wall time.  Timers are off the hot path when none are registered --
``tick`` pays one attribute comparison -- and fire on *busy* cycles
only, matching how lifetimes and overhead are accounted.
"""

from repro.common.constants import CYCLES_PER_MICROSECOND, CYCLES_PER_SECOND
from repro.common.state import integer, record, sequence


class ClockTimer:
    """One periodic callback registered with :meth:`VirtualClock.every`."""

    __slots__ = ("interval", "next_fire", "callback", "cancelled",
                 "fired")

    def __init__(self, interval, next_fire, callback):
        self.interval = interval
        self.next_fire = next_fire
        self.callback = callback
        self.cancelled = False
        self.fired = 0

    def __repr__(self):
        state = "cancelled" if self.cancelled else \
            f"next@{self.next_fire}"
        return f"ClockTimer(every {self.interval} cycles, {state})"


class VirtualClock:
    """Cycle-granularity clock with separate busy and idle accounting."""

    def __init__(self):
        self.cycles = 0
        self.idle_cycles = 0
        self._timers = []
        #: earliest pending deadline, or None with no timers -- the one
        #: value ``tick`` checks, so an idle clock stays cheap.
        self._next_fire = None
        self._firing = False

    # ------------------------------------------------------------------
    # advancing time
    # ------------------------------------------------------------------
    def tick(self, cycles):
        """Consume ``cycles`` of CPU time."""
        if cycles < 0:
            raise ValueError(f"cannot tick a negative amount: {cycles}")
        self.cycles += cycles
        if self._next_fire is not None and self.cycles >= self._next_fire:
            self._fire_due_timers()

    def idle(self, cycles):
        """Let ``cycles`` of wall-clock time pass without CPU work."""
        if cycles < 0:
            raise ValueError(f"cannot idle a negative amount: {cycles}")
        self.idle_cycles += cycles

    # ------------------------------------------------------------------
    # periodic timers
    # ------------------------------------------------------------------
    def every(self, interval_cycles, callback):
        """Call ``callback(clock)`` whenever ``interval_cycles`` of CPU
        time have passed; returns a :class:`ClockTimer` for
        :meth:`cancel`.

        One large ``tick`` that crosses several deadlines fires the
        timer **once** and reschedules relative to the current cycle --
        ticks are atomic blocks of simulated work, so there is no
        mid-block instant at which a catch-up firing could observe
        anything different.
        """
        if interval_cycles <= 0:
            raise ValueError(
                f"timer interval must be positive: {interval_cycles}"
            )
        timer = ClockTimer(interval_cycles,
                           self.cycles + interval_cycles, callback)
        self._timers.append(timer)
        self._reschedule()
        return timer

    def cancel(self, timer):
        """Cancel a timer returned by :meth:`every` (idempotent)."""
        timer.cancelled = True
        if timer in self._timers:
            self._timers.remove(timer)
        self._reschedule()

    @property
    def timer_count(self):
        """Live timers on this clock (0 on a freshly booted machine)."""
        return len(self._timers)

    def _reschedule(self):
        self._next_fire = min(
            (timer.next_fire for timer in self._timers), default=None
        )

    def _fire_due_timers(self):
        # A callback may tick the clock itself (charging modelled
        # monitoring cost); the guard keeps that from recursing into
        # another timer pass mid-delivery.
        if self._firing:
            return
        self._firing = True
        try:
            for timer in list(self._timers):
                if timer.cancelled or self.cycles < timer.next_fire:
                    continue
                timer.next_fire = self.cycles + timer.interval
                timer.fired += 1
                timer.callback(self)
        finally:
            self._firing = False
            self._reschedule()

    # ------------------------------------------------------------------
    # reading time
    # ------------------------------------------------------------------
    @property
    def cpu_time(self):
        """CPU time consumed, in cycles.  Lifetimes are measured in this."""
        return self.cycles

    @property
    def wall_time(self):
        """Wall-clock time, in cycles (busy + idle)."""
        return self.cycles + self.idle_cycles

    @property
    def cpu_seconds(self):
        """CPU time in seconds of the simulated 2.4 GHz machine."""
        return self.cycles / CYCLES_PER_SECOND

    @property
    def cpu_microseconds(self):
        """CPU time in microseconds of the simulated machine."""
        return self.cycles / CYCLES_PER_MICROSECOND

    def snapshot(self):
        """Return ``(cycles, idle_cycles)`` for later delta computation."""
        return (self.cycles, self.idle_cycles)

    # ------------------------------------------------------------------
    # durable state (repro.state/v1)
    # ------------------------------------------------------------------
    def state_dict(self):
        """Both counters plus each live timer's deadline and firings,
        in registration order (the callbacks are re-registered by
        their owners, never stored)."""
        return {
            "cycles": self.cycles,
            "idle_cycles": self.idle_cycles,
            "timers": [[timer.next_fire, timer.fired]
                       for timer in self._timers],
        }

    def load_state(self, state):
        """Restore :meth:`state_dict` output; the same timers must
        already be registered (a restored stack restarts its sampler
        before the clock loads)."""
        self.cycles = integer(state["cycles"], "cycles")
        self.idle_cycles = integer(state["idle_cycles"], "idle_cycles")
        timers = sequence(state["timers"], "timers")
        if len(timers) != len(self._timers):
            raise ValueError(
                f"{len(timers)} recorded timer(s), {len(self._timers)} "
                f"registered")
        for timer, recorded in zip(self._timers, timers):
            next_fire, fired = record(recorded, 2, "timer")
            timer.next_fire = integer(next_fire, "timer next_fire")
            timer.fired = integer(fired, "timer fired")
        self._reschedule()

    def __repr__(self):
        return (
            f"VirtualClock(cycles={self.cycles}, "
            f"idle_cycles={self.idle_cycles})"
        )


def cycles_to_microseconds(cycles):
    """Convert a cycle count to simulated microseconds."""
    return cycles / CYCLES_PER_MICROSECOND


def microseconds_to_cycles(microseconds):
    """Convert simulated microseconds to cycles."""
    return int(round(microseconds * CYCLES_PER_MICROSECOND))


def seconds_to_cycles(seconds):
    """Convert simulated seconds to cycles."""
    return int(round(seconds * CYCLES_PER_SECOND))
