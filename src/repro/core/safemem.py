"""SafeMem: the monitor that implements the paper's contribution.

Attach it to a :class:`~repro.machine.program.Program` and it wraps the
allocation calls (like the preloaded shared library of Section 5.1),
arms ECC watchpoints through the kernel's three new syscalls, and
detects:

- continuous memory leaks (ALeak / SLeak) with ECC-pruned false
  positives,
- buffer overflows and accesses to freed memory via guarded padding
  and freed-buffer watches,
- optionally, uninitialized reads (the Section 4 extension).

Crucially it never intercepts individual loads/stores and never dilates
computation -- the properties that keep its overhead at production-run
levels (Table 3).
"""

from repro.common.constants import CACHE_LINE_SIZE, align_up
from repro.core.config import SafeMemConfig
from repro.core.corruption import CorruptionDetector
from repro.core.leak import LeakDetector
from repro.core.watcher import EccWatchManager
from repro.machine.monitor import Monitor
from repro.obs.metrics import MetricsRegistry

class SafeMem(Monitor):
    """Production-run leak and corruption detector."""

    name = "safemem"

    def __init__(self, config=None, /):
        super().__init__()
        self.config = (config or SafeMemConfig()).validate()
        #: allocation sampler, or None in classic always-on mode.  A
        #: rate-1.0/no-budget policy is *deliberately* mapped to None:
        #: the hot path is then the historic one, instruction for
        #: instruction, which the twin-machine equivalence test pins.
        policy = self.config.sampling
        self.sampler = (policy.sampler()
                        if policy is not None and not policy.always_on
                        else None)
        self.watcher = None
        self.leak = None
        self.corruption = None
        #: cumulative space accounting for Table 4 (alignment waste in
        #: leak-only mode; padding + alignment with corruption on).
        self.requested_bytes = 0
        self.monitor_waste_bytes = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def on_attach(self):
        machine = self.program.machine
        metrics = getattr(machine, "metrics", None)
        self.watcher = EccWatchManager(machine)
        if self.config.detect_leaks:
            self.leak = LeakDetector(
                self.program, self.watcher, self.config, machine.events
            )
            if metrics is not None:
                self.leak.register_metrics(metrics)
        if self.config.detect_corruption or self.config.detect_uninit_reads:
            self.corruption = CorruptionDetector(
                self.program, self.watcher, self.config, machine.events
            )
            if metrics is not None:
                self.corruption.register_metrics(metrics)
        if metrics is not None:
            self.register_metrics(metrics)

    def register_metrics(self, metrics):
        """Publish ``safemem.space.*`` probes into a metrics registry."""
        metrics.probe("safemem.space.requested_bytes",
                      lambda: self.requested_bytes, kind="counter")
        metrics.probe("safemem.space.waste_bytes",
                      lambda: self._total_waste_bytes(), kind="counter")
        metrics.probe("safemem.space.overhead",
                      self.space_overhead_fraction, kind="gauge",
                      description="monitoring bytes / requested bytes "
                                  "(Table 4 metric)")
        if self.sampler is not None:
            self.sampler.register_metrics(metrics)

    def on_exit(self):
        if self.leak is not None:
            self.leak.on_exit()
        if self.corruption is not None:
            self.corruption.on_exit()
        if self.watcher is not None:
            # A monitor that was never attached has no watch manager
            # (and nothing armed); exiting must not crash.
            self.watcher.unwatch_all()

    # ------------------------------------------------------------------
    # allocation interposition
    # ------------------------------------------------------------------
    def malloc(self, size, call_signature):
        if self.sampler is not None and not self.sampler.should_sample():
            # Unsampled fast path: a plain native allocation.  No
            # guards, no leak tracking, no line alignment -- and thus
            # no armed watchpoints, so the machine's zero-armed-lines
            # load/store short-circuit stays enabled.  The sampling
            # decision itself is host-side (a countdown decrement) and
            # never ticks the simulated clock.
            address = self.program.allocator.malloc(size)
            self.program.allocator.lookup(address).sampled = False
            self.requested_bytes += size
            return address
        if self.corruption is not None:
            address = self.corruption.allocate(size, call_signature)
        else:
            # Leak-only mode still needs line-aligned, line-sized
            # buffers so suspects can be ECC-watched without false
            # sharing; the rounding is the mode's only space cost.
            granted = align_up(size, CACHE_LINE_SIZE)
            address = self.program.allocator.malloc(
                granted, alignment=CACHE_LINE_SIZE
            )
            self.monitor_waste_bytes += granted - size
        self.requested_bytes += size
        if self.leak is not None:
            self.leak.on_alloc(address, size, call_signature)
        return address

    def free(self, address):
        if self.sampler is not None and not self._is_sampled(address):
            # The allocation bypassed the detectors at malloc time, so
            # its free must too: no leak bookkeeping (it was never
            # grouped), no quarantine, and the reclaimed memory goes
            # straight back to the heap.
            self.program.allocator.free(address)
            return
        if self.leak is not None:
            self.leak.on_free(address)
        if self.corruption is not None:
            self.corruption.release(address)
        else:
            self.program.allocator.free(address)
        if self.sampler is not None:
            self.sampler.release_slot()

    def _is_sampled(self, address):
        """Did the sampler admit the allocation at ``address``?

        Host-side O(1): corruption mode keys on the layout table (the
        user address of a guarded buffer is interior to its block, so
        the allocator can't resolve it); otherwise the allocation
        record carries the flag.  Unknown addresses report as sampled
        so invalid frees keep raising through the historic path.
        """
        if self.corruption is not None:
            return self.corruption.owns(address)
        allocation = self.program.allocator.lookup(address)
        return allocation is None or allocation.sampled

    def realloc(self, address, new_size, call_signature):
        if address is None:
            return self.malloc(new_size, call_signature)
        old_size = self._user_size(address)
        keep = min(old_size, new_size)
        data = self.program.load(address, keep) if keep else b""
        self.free(address)
        new_address = self.malloc(new_size, call_signature)
        if data:
            self.program.store(new_address, data)
        return new_address

    def _user_size(self, address):
        if self.corruption is not None:
            layout = self.corruption.layout_of(address)
            if layout is not None:
                return layout.user_size
        allocation = self.program.allocator.lookup(address)
        if allocation is not None:
            return allocation.requested_size
        return 0

    # ------------------------------------------------------------------
    # custom-allocator wrapping (paper Section 3.2.1: "For programs
    # that use their own memory allocators, we wrap their allocation
    # and free functions")
    # ------------------------------------------------------------------
    def wrap_allocator(self, alloc_fn, free_fn, object_size):
        """Wrap a custom allocator's alloc/free pair for leak tracking.

        Returns ``(wrapped_alloc, wrapped_free)``.  Objects handed out
        by the wrapped functions participate fully in leak detection
        (grouping, lifetime statistics, ECC suspect watching and
        pruning).  Corruption guarding stays at the granularity of the
        underlying slabs, which already flow through ``malloc``.
        """
        if self.leak is None:
            return alloc_fn, free_fn

        def wrapped_alloc(*args, **kwargs):
            address = alloc_fn(*args, **kwargs)
            if address is None:
                # Failed allocation (e.g. exhausted pool): nothing to
                # track, and the caller sees the failure unchanged.
                return None
            self.leak.on_alloc(address, object_size,
                               self.program.stack.signature())
            return address

        def wrapped_free(address, *args, **kwargs):
            if address is None:
                # Mirror libc's free(NULL): a guaranteed no-op.  Without
                # this, a failed wrapped_alloc whose None return is
                # passed back to free would register a phantom free and
                # hit the underlying allocator with an address it never
                # issued.
                return None
            self.leak.on_free(address)
            return free_fn(address, *args, **kwargs)

        return wrapped_alloc, wrapped_free

    def wrap_pool(self, pool):
        """Convenience: wrap a :class:`~repro.heap.pool.PoolAllocator`.

        Returns the wrapped ``(alloc, release)`` pair; the pool's
        line-aligned strides make its objects ECC-watchable.
        """
        return self.wrap_allocator(pool.alloc, pool.release,
                                   pool.object_size)

    # ------------------------------------------------------------------
    # results / accounting
    # ------------------------------------------------------------------
    @property
    def leak_reports(self):
        return list(self.leak.reports) if self.leak is not None else []

    @property
    def pruned_suspects(self):
        return list(self.leak.pruned) if self.leak is not None else []

    @property
    def corruption_reports(self):
        if self.corruption is not None:
            return list(self.corruption.reports)
        return []

    def _total_waste_bytes(self):
        waste = self.monitor_waste_bytes
        if self.corruption is not None:
            waste += self.corruption.monitor_waste_bytes
        return waste

    def space_overhead_fraction(self):
        """Monitoring bytes over requested bytes (Table 4's metric)."""
        requested = self.requested_bytes
        if requested == 0:
            return 0.0
        return self._total_waste_bytes() / requested

    def telemetry(self):
        """Cycle-stamped :class:`~repro.obs.metrics.Snapshot` of every
        registered metric on the attached machine.

        Read named metrics from ``snapshot.values`` (``safemem.*`` for this
        monitor's slice; the namespace is documented in
        docs/OBSERVABILITY.md).  Safe to call before attach, when it
        returns an empty snapshot.
        """
        if self.program is None:
            return MetricsRegistry().snapshot()
        return self.program.machine.metrics.snapshot()
