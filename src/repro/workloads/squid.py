"""squid: a web proxy cache server (~95,000 LOC in Table 1).

The paper uses two versions: squid1 carries a memory leak (an aborted
request's reply buffer is never released), squid2 carries a memory
corruption (an under-sized buffer for crafted ftp:// URLs -- the model
of the well-known squid ftpBuildTitleUrl overflow).

Behavioural model: the most copy-heavy of the seven servers -- every
request moves tens of KiB between the "origin server", the in-memory
object cache, and the "client socket".  This is the access profile
where a per-access checker like Purify is at its worst, while SafeMem's
cost stays at the (low) allocation rate.

squid1's false-positive structure is the paper's most interesting: 13
long-lived cache metadata entries get flagged, 12 are pruned by their
periodic use, and one -- touched too rarely for the confirmation
window -- survives as the single remaining false positive (Table 5:
13 before, 1 after).
"""

from repro.workloads.base import Workload, fill
from repro.workloads.fixtures import TouchedCache

REPLY_SITE = 0xC100
ENTRY_SITE = 0xC200
URL_SITE = 0xC300
PAYLOAD_SITE = 0xC400


class Squid1(Workload):
    """Web proxy with an aborted-request reply-buffer leak.

    Reply buffers are pooled (squid recycles its I/O buffers), so the
    steady-state allocation rate is low while the copied byte volume
    per request is the highest of the seven applications.
    """

    name = "squid1"
    loc = 95_000
    description = "a Web proxy cache server"
    bug = "sleak"
    default_requests = 700

    compute_per_request = 120_000
    payload_bytes = 64 * 1024
    pool_size = 8
    #: one pool buffer is rotated (freed + reallocated) this often,
    #: giving the reply group its normal lifetime statistics.
    rotate_period = 8
    churn_period = 4
    abort_rate = 0.04
    state_fields = ("pool", "cache_slots")
    fixture_fields = ("metadata",)

    def setup(self, program, truth):
        # 13 cache metadata entries; entry 0 is consulted so rarely
        # that the leak detector's confirmation timeout beats its next
        # use -- the one false positive that survives pruning.
        self.metadata = TouchedCache(
            site=ENTRY_SITE, object_size=512, count=13, touch_period=5,
            rare_indexes=(0,), rare_period=100_000,
        )
        self.metadata.setup(program, first_global_slot=0)
        # The reply-buffer pool.
        self.pool = []
        for i in range(self.pool_size):
            with program.frame(REPLY_SITE):
                buffer = program.malloc(4096)
            program.set_global(40 + i, buffer)
            self.pool.append(buffer)
        # The in-memory object cache: slots sized for a half-payload,
        # reachable via a pointer table so conservative sweeps find them.
        self.cache_slots = []
        for i in range(8):
            with program.frame(PAYLOAD_SITE):
                slot = program.malloc(self.payload_bytes // 2)
            program.store(slot, b"\x11" * 1024)
            program.set_global(20 + i, slot)
            self.cache_slots.append(slot)

    def handle_request(self, program, index, buggy, truth):
        # Take a pooled reply buffer and assemble the headers.
        reply = self.pool[index % self.pool_size]
        fill(program, reply, 512)

        # Move the object payload: cache slot -> reply path -> client.
        slot = self.cache_slots[index % len(self.cache_slots)]
        half = self.payload_bytes // 2
        program.store(slot, b"\x22" * half)
        program.load(slot, half)

        # Header parsing, ACLs, cache bookkeeping.
        program.compute(self.compute_per_request)
        if index % self.churn_period == 0:
            self.metadata.churn(program)
        self.metadata.touch(program, index)

        # Rotate one pool buffer (round robin over the whole pool):
        # the reply group's normal lifetime.
        if index % self.rotate_period == self.rotate_period - 1:
            victim = (index // self.rotate_period) % self.pool_size
            program.free(self.pool[victim])
            with program.frame(REPLY_SITE):
                self.pool[victim] = program.malloc(4096)
            program.set_global(40 + victim, self.pool[victim])

        aborted = buggy and self.rng.random() < self.abort_rate
        if aborted:
            # THE BUG: the aborted-client path builds a private copy of
            # the in-flight reply and forgets it (sometimes-leak).
            with program.frame(REPLY_SITE):
                jettison = program.malloc(4096)
            fill(program, jettison, 512)
            truth.leaked_addresses.add(jettison)


class Squid2(Workload):
    """Web proxy with a crafted-URL buffer overflow."""

    name = "squid2"
    loc = 93_000
    description = "a Web proxy cache server"
    bug = "overflow"
    default_requests = 500

    compute_per_request = 200_000
    payload_bytes = 48 * 1024
    url_buffer_size = 128
    #: request index at which the crafted ftp:// URL arrives.
    trigger_request = 350
    state_fields = ("scratch",)

    def setup(self, program, truth):
        self.scratch = []
        for i in range(4):
            with program.frame(PAYLOAD_SITE):
                slot = program.malloc(self.payload_bytes // 2)
            program.store(slot, b"\x00")
            program.set_global(20 + i, slot)
            self.scratch.append(slot)

    def handle_request(self, program, index, buggy, truth):
        with program.frame(URL_SITE):
            url = program.malloc(self.url_buffer_size)
        program.set_global(60, url)

        crafted = buggy and index == self.trigger_request
        if crafted:
            # THE BUG: the title-URL formatter writes one byte past the
            # 128-byte buffer for an over-long ftp:// URL.
            truth.corruption = ("overflow", url + self.url_buffer_size)
            program.store(url, b"f" * self.url_buffer_size)
            program.store(url + self.url_buffer_size, b"!")
        else:
            fill(program, url, self.url_buffer_size)

        slot = self.scratch[index % len(self.scratch)]
        half = self.payload_bytes // 2
        program.store(slot, b"\x33" * half)
        program.load(slot, half)
        program.compute(self.compute_per_request)

        program.free(url)
        program.set_global(60, 0)
