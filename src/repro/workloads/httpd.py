"""httpd: an apache-like server using a custom pool allocator.

**Extension workload** (not one of the paper's seven): it exists to
exercise the paper's remark that SafeMem handles programs with their
own memory allocators by wrapping their allocation functions
(Section 3.2.1).  Connection objects come from a :class:`PoolAllocator`
rather than malloc; when the attached monitor is SafeMem, the pool's
alloc/release pair is wrapped so pool objects participate in leak
detection exactly like malloc'd ones.

THE BUG (buggy mode): a keep-alive timeout path drops a connection
object without returning it to the pool -- a custom-allocator leak
that malloc-interposing tools cannot see at all.
"""

from repro.common.state import integer, record, sequence
from repro.heap.pool import PoolAllocator
from repro.workloads.base import Workload, fill

CONNECTION_SITE = 0xF100
REQUEST_SITE = 0xF200


class Httpd(Workload):
    """Pool-based HTTP server with a keep-alive connection leak."""

    name = "httpd"
    loc = 0  # extension workload: not in the paper's Table 1
    description = "an apache-like server with a pool allocator"
    bug = "sleak"
    default_requests = 500

    compute_per_request = 300_000
    connection_size = 192
    #: fraction of requests whose keep-alive times out down the leaky
    #: path (buggy mode only).
    timeout_rate = 0.03
    #: connections normally live for this many requests.
    hold_requests = 6

    def setup(self, program, truth):
        self.pool = PoolAllocator(
            program, object_size=self.connection_size,
            objects_per_slab=16, site=CONNECTION_SITE,
            root_slot=0,
        )
        self._wrap_pool(program)
        self._held = []

    def _wrap_pool(self, program):
        monitor = program.monitor
        if hasattr(monitor, "wrap_pool"):
            self.conn_alloc, self.conn_release = monitor.wrap_pool(
                self.pool
            )
        else:
            self.conn_alloc = self.pool.alloc
            self.conn_release = self.pool.release

    def state_dict(self):
        """The pool and the held ``[request, connection]`` pairs."""
        return {**super().state_dict(), "pool": self.pool.state_dict(),
                "held": [list(pair) for pair in self._held]}

    def load_state(self, program, state):
        super().load_state(program, state)
        self.pool = PoolAllocator.from_state(program, state["pool"])
        self._wrap_pool(program)
        self._held = [
            (integer(start, "held request"),
             integer(connection, "held connection"))
            for start, connection in (record(pair, 2, "held pair")
                                      for pair in sequence(state["held"],
                                                           "held"))]

    def handle_request(self, program, index, buggy, truth):
        # Accept a connection from the pool.
        with program.frame(CONNECTION_SITE):
            connection = self.conn_alloc()
        program.store(connection, b"\x1f" * self.connection_size)

        # Parse and serve the request (regular malloc for the request
        # scratch buffer, like the paper's workloads).
        with program.frame(REQUEST_SITE):
            scratch = program.malloc(512)
        fill(program, scratch, 512)
        program.compute(self.compute_per_request)
        program.free(scratch)

        self._held.append((index, connection))
        # Close connections past their keep-alive window.
        for (start, held) in list(self._held):
            if index - start >= self.hold_requests:
                self._held.remove((start, held))
                timed_out = buggy and \
                    self.rng.random() < self.timeout_rate
                if timed_out:
                    # THE BUG: the timeout path forgets the pool object.
                    truth.leaked_addresses.add(held)
                else:
                    self.conn_release(held)

    def teardown(self, program, truth):
        for (_start, held) in self._held:
            self.conn_release(held)
        self._held.clear()
