"""proftpd: an FTP server (68,700 LOC in the paper's Table 1).

Behavioural model: sessions of login / data transfer / logout.  Data
transfers move file chunks through a transfer buffer -- the moderately
copy-heavy profile that hurts per-access checkers.  THE BUG: when a
transfer aborts, the error path returns without freeing the transfer
buffer (a sometimes-leak).  Nine long-lived virtual-host configuration
blocks provide the Table 5 false positives (9 before, 0 after).
"""

from repro.workloads.base import Workload, fill
from repro.workloads.fixtures import TouchedCache

SESSION_SITE = 0xB100
TRANSFER_SITE = 0xB200
VHOST_SITE = 0xB300


class Proftpd(Workload):
    """FTP server with an abort-path transfer-buffer leak."""

    name = "proftpd"
    loc = 68_700
    description = "a ftp server"
    bug = "sleak"
    default_requests = 500

    compute_per_request = 600_000
    fixture_fields = ("vhosts",)
    transfer_chunk = 8 * 1024
    #: fraction of transfers that abort (the leaky path) in buggy mode.
    abort_rate = 0.05

    def setup(self, program, truth):
        self.vhosts = TouchedCache(
            site=TRANSFER_SITE, object_size=4096, count=9, touch_period=6
        )
        self.vhosts.setup(program, first_global_slot=0)

    #: session kinds (anonymous / user / TLS) differ in control-block
    #: size, i.e. several healthy object groups for Figure 3.
    session_sizes = (256, 320, 384)

    def handle_request(self, program, index, buggy, truth):
        # Session control block, freed at logout.
        size = self.session_sizes[index % len(self.session_sizes)]
        with program.frame(SESSION_SITE):
            session = program.malloc(size)
        fill(program, session, size)
        program.set_global(60, session)

        # Transfer buffer: filled from "disk", sent to the "socket".
        with program.frame(TRANSFER_SITE):
            buffer = program.malloc(4096)
        program.set_global(61, buffer)
        program.store(buffer, b"\x5a" * 4096)
        program.load(buffer, 4096)
        # Command processing around the transfer.
        program.compute(self.compute_per_request)
        self.vhosts.touch(program, index)

        aborted = buggy and self.rng.random() < self.abort_rate
        if aborted:
            # THE BUG: the abort path forgets the transfer buffer.
            truth.leaked_addresses.add(buffer)
        else:
            program.free(buffer)
        program.set_global(61, 0)

        program.free(session)
        program.set_global(60, 0)
