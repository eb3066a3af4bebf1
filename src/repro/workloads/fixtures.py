"""Reusable behavioural building blocks for the workload models."""

from repro.common.state import integer, integers


class TouchedCache:
    """Long-lived objects inside a churning object group.

    This is the structure that generates leak-detector *false
    positives* (paper Table 5): the objects share an allocation site
    and size with short-lived churn objects, so their lifetime vastly
    exceeds the group's stable maximum and they get flagged -- but the
    program still uses them, so ECC pruning clears them.

    ``touch_period`` is in requests.  Entries listed in
    ``rare_indexes`` are touched only every ``rare_period`` requests --
    long enough for the confirmation timeout to fire first, producing
    the one false positive that survives pruning (squid1 in Table 5).
    """

    def __init__(self, site, object_size, count, touch_period=8,
                 rare_indexes=(), rare_period=10_000):
        self.site = site
        self.object_size = object_size
        self.count = count
        self.touch_period = touch_period
        self.rare_indexes = set(rare_indexes)
        self.rare_period = rare_period
        self.addresses = []

    def state_dict(self):
        """Parameters and the long-lived objects' addresses."""
        return {"site": self.site, "object_size": self.object_size,
                "count": self.count, "touch_period": self.touch_period,
                "rare_indexes": sorted(self.rare_indexes),
                "rare_period": self.rare_period,
                "addresses": list(self.addresses)}

    @classmethod
    def from_state(cls, state):
        cache = cls(integer(state["site"], "site"),
                    integer(state["object_size"], "object_size"),
                    integer(state["count"], "count"),
                    integer(state["touch_period"], "touch_period"),
                    integers(state["rare_indexes"], "rare_indexes"),
                    integer(state["rare_period"], "rare_period"))
        cache.addresses = list(integers(state["addresses"], "addresses"))
        return cache

    def setup(self, program, first_global_slot):
        """Allocate the long-lived objects and root them in globals."""
        for index in range(self.count):
            with program.frame(self.site):
                address = program.malloc(self.object_size)
            program.store(address, b"\xcc" * self.object_size)
            program.set_global(first_global_slot + index, address)
            self.addresses.append(address)

    def churn(self, program):
        """One short-lived allocation from the same site and size."""
        with program.frame(self.site):
            address = program.malloc(self.object_size)
        program.store(address, b"\xdd" * min(self.object_size, 64))
        program.free(address)

    def touch(self, program, request_index):
        """Periodically use the long-lived entries."""
        for index, address in enumerate(self.addresses):
            if index in self.rare_indexes:
                period = self.rare_period
            else:
                period = self.touch_period
            if request_index % period == index % period:
                program.load(address, min(self.object_size, 32))

    def touched_now(self, program):
        """Unconditionally touch every entry (used in teardown)."""
        for address in self.addresses:
            program.load(address, 8)
