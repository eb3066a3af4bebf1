"""gzip: the compression utility (8,900 LOC in Table 1).

Behavioural model: a block compressor -- read an input block, run a
compute-dominated compression loop over it, emit an output block.  The
compute-to-access ratio is the highest of the seven applications, so
both tools are near their floor here (the paper reports SafeMem's 3.0%
for gzip).  THE BUG: a crafted input produces an output one byte larger
than the allocated output buffer (the classic gzip .tgz-name overflow
reported against gzip 1.2.4).
"""

from repro.workloads.base import Workload, fill

INPUT_SITE = 0xD100
OUTPUT_SITE = 0xD200


class Gzip(Workload):
    """Compression run with a one-byte output-buffer overflow."""

    name = "gzip"
    loc = 8_900
    description = "a compression utility"
    bug = "overflow"
    default_requests = 400

    #: per-block compression work: gzip is compute-bound.
    compute_per_block = 1_500_000
    block_size = 4096
    #: block index at which the crafted input appears.
    trigger_block = 300
    #: the bytes of every input block and of every output block.
    input_block = b"\x42" * block_size
    output_block = b"\xab" * block_size
    state_fields = ("input_buffer",)

    def setup(self, program, truth):
        # One reused input staging buffer, rooted for the sweeps.
        with program.frame(INPUT_SITE):
            self.input_buffer = program.malloc(self.block_size)
        program.set_global(0, self.input_buffer)

    def handle_request(self, program, index, buggy, truth):
        # Read the next input block (a bulk op: one plan, one call).
        program.run_ops([("store", self.input_buffer, self.input_block)])

        # Allocate this block's output buffer.
        with program.frame(OUTPUT_SITE):
            output = program.malloc(self.block_size)
        program.set_global(60, output)

        # The compression loop: re-read the input, emit the output.
        # One access plan: each op moves a whole block through one span
        # walk, in the order the scalar sequence would issue them.
        program.compute(self.compute_per_block)
        plan = [
            ("load", self.input_buffer, self.block_size),
            ("store", output, self.output_block),
        ]
        crafted = buggy and index == self.trigger_block
        if crafted:
            # THE BUG: the crafted block expands by one byte.
            truth.corruption = ("overflow", output + self.block_size)
            plan.append(("store", output + self.block_size, b"!"))
        program.run_ops(plan)

        program.free(output)
        program.set_global(60, 0)
