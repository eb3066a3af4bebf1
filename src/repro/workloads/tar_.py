"""tar: the archiving utility (34,000 LOC in Table 1).

Behavioural model: a streaming archiver -- for each member file,
allocate a 512-byte header block, stream the file body through a
reused copy buffer (little computation per byte, the profile where
per-access checking hurts most after squid), then release the header.
THE BUG: for long-name members the code frees the header early and
then reads it again while writing the name extension -- an access to
freed memory.
"""

from repro.workloads.base import Workload, fill

HEADER_SITE = 0xE100
COPY_SITE = 0xE200


class Tar(Workload):
    """Archiver with a use-after-free on long-name members."""

    name = "tar"
    loc = 34_000
    description = "an archiving utility"
    bug = "uaf"
    default_requests = 450

    compute_per_file = 220_000
    copy_chunk = 16 * 1024
    #: file index of the long-name member triggering the bug.
    trigger_file = 320
    #: the bytes of every streamed body chunk.
    body_chunk = b"\x24" * copy_chunk
    state_fields = ("copy_buffer",)

    def setup(self, program, truth):
        with program.frame(COPY_SITE):
            self.copy_buffer = program.malloc(self.copy_chunk)
        program.set_global(0, self.copy_buffer)

    def handle_request(self, program, index, buggy, truth):
        # Member header block.
        with program.frame(HEADER_SITE):
            header = program.malloc(512)
        fill(program, header, 512)
        program.set_global(60, header)

        # Stream the member body through the reused buffer -- one
        # bulk access plan (a store then a load, in scalar op order).
        program.run_ops([
            ("store", self.copy_buffer, self.body_chunk),
            ("load", self.copy_buffer, self.copy_chunk),
        ])
        program.compute(self.compute_per_file)

        program.free(header)
        program.set_global(60, 0)

        crafted = buggy and index == self.trigger_file
        if crafted:
            # THE BUG: the long-name path reads the freed header.
            truth.corruption = ("uaf", header)
            program.load(header, 16)
