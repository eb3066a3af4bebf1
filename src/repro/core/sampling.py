"""Allocation sampling: the always-on production mode.

The paper's SafeMem monitors *every* allocation, which is what its
Table 3 overheads price.  Real production detectors in the same
lineage (GWP-ASan, LeakGuard -- see PAPERS.md) instead sample a tiny
fraction of allocations per process and recover detection probability
from fleet scale: any single machine almost never pays for monitoring,
but across N machines with distinct sample seeds the bug is caught
with probability ``1 - (1 - p)**N`` per vulnerable object.

:class:`SamplingPolicy` is the declarative knob set (rate, seed, guard
budget, backoff); :class:`AllocationSampler` is the per-monitor runtime
that makes the per-allocation decision.  The decision is entirely
host-side -- it never touches the simulated clock -- so a policy of
rate 1.0 with no budget is *bit-identical* to the classic always-on
monitor (SafeMem skips the sampler object outright in that case; a
differential twin-machine test pins the equivalence).

Three mechanisms, mirroring GWP-ASan's design:

- **rate**: allocations are sampled on a geometric schedule with mean
  interval ``1/rate``, driven by a deterministic seeded RNG so fleet
  runs are reproducible per (policy, seed).
- **guard budget**: at most ``budget`` sampled allocations are alive
  (guarded/tracked) at once -- the analogue of GWP-ASan's fixed guard
  slot pool.  Freeing a sampled allocation reclaims its slot.
- **adaptive backoff**: when an allocation comes due while the budget
  is saturated, the effective sampling interval is multiplied by
  ``backoff`` (capped at ``max_backoff``) so a workload that pins its
  sampled objects stops burning RNG draws on a full pool; each
  reclaimed slot decays the backoff one step toward 1.0.
"""

import random
from dataclasses import dataclass, replace

from repro.common.errors import ConfigurationError
from repro.common.schema import Field, Table
from repro.common.state import (
    INT,
    NULL,
    NUMBER,
    fields_state,
    load_fields,
    load_rng_state,
    number,
    rng_state,
)

#: Large odd multipliers decorrelating the per-machine sampling seed
#: stream from the (base_seed + index) workload seed stream.
_SEED_STREAM_MULTIPLIER = 0x9E3779B1  # 2**32 / golden ratio, odd
_SEED_INDEX_STRIDE = 7919            # 1000th prime


def machine_sample_seed(base_seed, index):
    """Sampling seed for fleet machine ``index`` under ``base_seed``.

    Deliberately a *different stream* from the workload seed
    (``base_seed + index``): two fleet machines replaying identical
    traffic must still sample different allocations, which is where a
    sampled fleet's detection probability comes from.  Deterministic
    and pinned by a test, so fleet runs are reproducible.
    """
    mixed = (base_seed + 1) * _SEED_STREAM_MULTIPLIER \
        + index * _SEED_INDEX_STRIDE
    return mixed & 0x7FFF_FFFF


@dataclass(frozen=True)
class SamplingPolicy:
    """Declarative sampling configuration (JSON-able, picklable)."""

    #: fraction of allocations eligible for monitoring, in [0.0, 1.0].
    #: 1.0 monitors everything (the paper's mode); 0.0 never samples.
    rate: float = 1.0
    #: RNG seed for the geometric sampling schedule.
    seed: int = 0
    #: max concurrently live sampled allocations (guard pool slots);
    #: None means unbounded.
    budget: int = None
    #: interval multiplier applied when the budget saturates.
    backoff: float = 2.0
    #: cap on the accumulated backoff factor.
    max_backoff: float = 64.0

    def validate(self):
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigurationError(
                f"sampling rate must be in [0.0, 1.0], got {self.rate}")
        if self.budget is not None and self.budget < 1:
            raise ConfigurationError(
                f"sampling budget must be >= 1 (or None), got "
                f"{self.budget}")
        if self.backoff < 1.0:
            raise ConfigurationError(
                f"sampling backoff must be >= 1.0, got {self.backoff}")
        if self.max_backoff < self.backoff:
            raise ConfigurationError(
                f"max_backoff ({self.max_backoff}) must be >= backoff "
                f"({self.backoff})")
        return self

    @property
    def always_on(self):
        """True when this policy degenerates to classic SafeMem.

        Rate 1.0 with no budget never skips an allocation, so the
        monitor bypasses the sampler entirely and the hot path is the
        historic one, instruction for instruction.
        """
        return self.rate >= 1.0 and self.budget is None

    def for_machine(self, index):
        """The per-fleet-machine policy: same knobs, derived seed."""
        return replace(self,
                       seed=machine_sample_seed(self.seed, index))

    def sampler(self):
        """Build the runtime decision state for one monitor."""
        return AllocationSampler(self)

    def to_dict(self):
        return {"rate": self.rate, "seed": self.seed,
                "budget": self.budget, "backoff": self.backoff,
                "max_backoff": self.max_backoff}

    @classmethod
    def from_dict(cls, payload):
        """Decode :meth:`to_dict` output (checked against
        :data:`SAMPLING` where its document entered)."""
        return cls(**payload).validate()


#: a recorded policy: :meth:`SamplingPolicy.to_dict`'s fields.
SAMPLING = Table("sampling", {
    "rate": Field(NUMBER, required=False),
    "seed": Field(INT, required=False),
    "budget": Field(INT | NULL, required=False, what="an integer or null"),
    "backoff": Field(NUMBER, required=False),
    "max_backoff": Field(NUMBER, required=False),
}, label="sampling policy", whole="sampling policy", closed=True)


class AllocationSampler:
    """Per-monitor sampling state: countdown, guard pool, backoff.

    ``should_sample()`` is called once per allocation *before* any
    monitoring work; everything here is host-side bookkeeping (integer
    countdown decrement on the hot path) and never ticks the simulated
    clock, so unsampled allocations cost exactly what a native run
    pays.
    """

    def __init__(self, policy):
        self.policy = policy.validate()
        self._rng = random.Random(policy.seed)
        #: decision counters, published as ``safemem.sampling.*``.
        self.sampled = 0
        self.skipped = 0
        self.budget_exhausted = 0
        #: currently occupied guard pool slots.
        self.live = 0
        #: accumulated interval multiplier (1.0 = no backoff).
        self.backoff_factor = 1.0
        self._countdown = self._draw()

    #: the integer counters :meth:`state_dict` records.
    STATE_FIELDS = ("sampled", "skipped", "budget_exhausted", "live",
                    "_countdown")

    def state_dict(self):
        """The schedule RNG, the countdown, the backoff and the
        counters (the policy comes from the monitor's config)."""
        return {"rng": rng_state(self._rng),
                "backoff_factor": self.backoff_factor,
                **fields_state(self, self.STATE_FIELDS)}

    def load_state(self, state):
        load_rng_state(self._rng, state["rng"])
        self.backoff_factor = number(state["backoff_factor"],
                                     "backoff_factor")
        load_fields(self, state, self.STATE_FIELDS)

    @property
    def base_interval(self):
        """Mean allocations between samples, or None at rate 0."""
        if self.policy.rate <= 0.0:
            return None
        return 1.0 / self.policy.rate

    @property
    def effective_interval(self):
        """Backoff-adjusted mean sampling interval (gauge value)."""
        base = self.base_interval
        if base is None:
            return None
        return base * self.backoff_factor

    def _draw(self):
        """Allocations until the next sample comes due (geometric)."""
        interval = self.effective_interval
        if interval is None:
            return -1  # rate 0.0: never due
        if interval <= 1.0:
            return 1   # rate 1.0 (no backoff): every allocation
        return max(1, int(self._rng.expovariate(1.0 / interval)) + 1)

    def should_sample(self):
        """Decide one allocation; True means it enters the guard pool."""
        countdown = self._countdown
        if countdown < 0:
            self.skipped += 1
            return False
        countdown -= 1
        if countdown > 0:
            self._countdown = countdown
            self.skipped += 1
            return False
        # This allocation is due.  A saturated guard pool skips it and
        # backs the schedule off; otherwise it takes a slot.
        if self.policy.budget is not None \
                and self.live >= self.policy.budget:
            self.budget_exhausted += 1
            self.skipped += 1
            self.backoff_factor = min(
                self.backoff_factor * self.policy.backoff,
                self.policy.max_backoff)
            self._countdown = self._draw()
            return False
        self.sampled += 1
        self.live += 1
        self._countdown = self._draw()
        return True

    def release_slot(self):
        """A sampled allocation was freed: reclaim its guard slot.

        Reclamation also decays the adaptive backoff one step, so a
        workload that churns through its pool recovers the configured
        rate instead of staying backed off forever.
        """
        if self.live > 0:
            self.live -= 1
        if self.backoff_factor > 1.0:
            self.backoff_factor = max(
                1.0, self.backoff_factor / self.policy.backoff)

    def register_metrics(self, metrics):
        """Publish ``safemem.sampling.*`` probes into a registry."""
        metrics.probe("safemem.sampling.sampled",
                      lambda: self.sampled, kind="counter",
                      description="allocations admitted to monitoring")
        metrics.probe("safemem.sampling.skipped",
                      lambda: self.skipped, kind="counter",
                      description="allocations that bypassed the "
                                  "monitor entirely")
        metrics.probe("safemem.sampling.budget_exhausted",
                      lambda: self.budget_exhausted, kind="counter",
                      description="due samples dropped on a full "
                                  "guard pool")
        metrics.probe("safemem.sampling.live_slots",
                      lambda: self.live, kind="gauge",
                      description="occupied guard pool slots")
        # Fleet merges sum gauge values, so the probe must stay
        # numeric: 0.0 stands in for "never samples" (rate 0.0).
        metrics.probe("safemem.sampling.backoff_interval",
                      lambda: self.effective_interval or 0.0,
                      kind="gauge",
                      description="current mean allocations between "
                                  "samples (base interval x backoff; "
                                  "0 = rate 0.0, never samples)")
