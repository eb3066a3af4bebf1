"""Diurnal traffic wrappers: leak workloads under seasonal load.

Production services rarely run at constant load: a session pool swells
during the day and drains at night, so ``live_bytes`` oscillates with a
large amplitude that has nothing to do with leaking.  Flat-calibrated
trend detectors (``repro.obs.trend`` with no seasonal baseline) false-
alarm on the daily climb; the SEASON experiment scores exactly that
failure mode against the seasonal-baseline mode.

Each wrapper drives one of the paper's leak workloads and adds, on top
of the inner request stream:

- a **session pool** of 256-byte objects whose population follows a
  triangle wave over :data:`SEASON_PERIOD_REQUESTS` requests (base
  :data:`SESSION_BASE` sessions at night, base + :data:`SESSION_SWING`
  at the daily peak) -- the clean seasonal signal, and
- **fixed-cycle request slots**: every request is padded to exactly
  :data:`SEASON_REQUEST_CYCLES` CPU cycles, so a run's seasonal period
  is exactly ``SEASON_PERIOD_REQUESTS * SEASON_REQUEST_CYCLES`` cycles
  and a frozen per-phase baseline lines up period after period.

The wrapper adds no randomness of its own (the triangle is a pure
function of the request index), so the inner workload's determinism --
and therefore checkpoint/resume bit-exactness -- is preserved.

Padding ticks the clock in :data:`SEASON_PAD_CHUNK` steps rather than
one large tick: a periodic timer crossed by one big tick fires once,
so chunking keeps the sampler cadence regular through the quiet tail
of each request slot.
"""

from repro.common.errors import ConfigurationError
from repro.workloads.base import Workload, fill
from repro.workloads.proftpd import Proftpd
from repro.workloads.squid import Squid1
from repro.workloads.ypserv import Ypserv1, Ypserv2

#: fixed CPU budget of one diurnal request slot, cycles.  Sized above
#: the most expensive inner request in the corpus (proftpd under
#: always-on SafeMem peaks near 830k cycles) plus session churn.
SEASON_REQUEST_CYCLES = 1_200_000

#: requests per seasonal period (one simulated "day").
SEASON_PERIOD_REQUESTS = 50

#: the seasonal period in cycles -- pass this as ``seasonal_period``
#: when watching a diurnal workload with a :class:`TrendEngine`.
SEASON_PERIOD_CYCLES = SEASON_REQUEST_CYCLES * SEASON_PERIOD_REQUESTS

#: allocation site of the session pool (a distinct leak group).
SESSION_SITE = 0xD100

#: bytes per session object.
SESSION_SIZE = 256

#: overnight session population -- never drained below this, so the
#: ``group:256:0xd100`` series persists in the sampler's top groups
#: instead of flickering in and out.
SESSION_BASE = 32

#: peak-over-base session population at the top of the triangle.
SESSION_SWING = 192

#: first program global slot holding session pointers (the pool stays
#: reachable, so it is churn, not a leak, to every detector).
SESSION_SLOT_BASE = 1000

#: padding tick granularity, cycles.  Below the sampler cadences used
#: in experiments so timers keep firing through the padding.
SEASON_PAD_CHUNK = 100_000


def session_target(index):
    """Triangle-wave session population for request ``index``."""
    phase = index % SEASON_PERIOD_REQUESTS
    half = SEASON_PERIOD_REQUESTS // 2
    level = phase if phase <= half else SEASON_PERIOD_REQUESTS - phase
    return SESSION_BASE + level * SESSION_SWING // half


class DiurnalWorkload(Workload):
    """Wrap a leak workload in diurnal session traffic.

    Subclasses set ``inner_class``; the inner workload's bug fires (or
    not) exactly as it would standalone, and its ground truth (leaked
    addresses, detections) flows through unchanged.
    """

    inner_class = None
    #: six seasonal periods by default: two warm the baseline, four
    #: remain for detection.
    default_requests = 6 * SEASON_PERIOD_REQUESTS
    state_fields = ("_sessions",)

    def __init__(self, requests=None, seed=0):
        super().__init__(requests=requests, seed=seed)
        # The inner workload keeps its own rng stream, seeded as it
        # would be standalone, so its leak schedule is unchanged.
        self.inner = self.inner_class(requests=self.requests, seed=seed)
        self._sessions = []

    # ------------------------------------------------------------------
    # template-method hooks
    # ------------------------------------------------------------------
    def setup(self, program, truth):
        self.inner.setup(program, truth)
        self._sessions = []

    def handle_request(self, program, index, buggy, truth):
        start = program.cpu_time
        self._adjust_sessions(program, session_target(index))
        self.inner.handle_request(program, index, buggy, truth)
        used = program.cpu_time - start
        if used > SEASON_REQUEST_CYCLES:
            raise ConfigurationError(
                f"{self.name}: request {index} used {used} cycles, "
                f"over the {SEASON_REQUEST_CYCLES}-cycle diurnal slot"
            )
        deficit = SEASON_REQUEST_CYCLES - used
        while deficit > 0:
            step = min(SEASON_PAD_CHUNK, deficit)
            program.machine.clock.tick(step)
            deficit -= step

    def state_dict(self):
        return {**super().state_dict(), "inner": self.inner.state_dict()}

    def load_state(self, program, state):
        super().load_state(program, state)
        self.inner.load_state(program, state["inner"])

    def teardown(self, program, truth):
        while self._sessions:
            self._pop_session(program)
        self.inner.teardown(program, truth)

    # ------------------------------------------------------------------
    # the session pool
    # ------------------------------------------------------------------
    def _adjust_sessions(self, program, target):
        while len(self._sessions) < target:
            with program.frame(SESSION_SITE):
                session = program.malloc(SESSION_SIZE)
            fill(program, session, 16)
            program.set_global(
                SESSION_SLOT_BASE + len(self._sessions), session
            )
            self._sessions.append(session)
        while len(self._sessions) > target:
            self._pop_session(program)

    def _pop_session(self, program):
        session = self._sessions.pop()
        program.set_global(SESSION_SLOT_BASE + len(self._sessions), 0)
        program.free(session)


class Ypserv1Diurnal(DiurnalWorkload):
    name = "ypserv1-diurnal"
    description = "a NIS server under diurnal load"
    bug = "aleak"
    inner_class = Ypserv1


class ProftpdDiurnal(DiurnalWorkload):
    name = "proftpd-diurnal"
    description = "an FTP server under diurnal load"
    bug = "sleak"
    inner_class = Proftpd


class Squid1Diurnal(DiurnalWorkload):
    name = "squid1-diurnal"
    description = "a web proxy cache server under diurnal load"
    bug = "sleak"
    inner_class = Squid1


class Ypserv2Diurnal(DiurnalWorkload):
    name = "ypserv2-diurnal"
    description = "a NIS server under diurnal load"
    bug = "sleak"
    inner_class = Ypserv2


#: diurnal wrapper for each leak workload, registry order.
DIURNAL_WORKLOADS = {
    "ypserv1-diurnal": Ypserv1Diurnal,
    "proftpd-diurnal": ProftpdDiurnal,
    "squid1-diurnal": Squid1Diurnal,
    "ypserv2-diurnal": Ypserv2Diurnal,
}
