"""Call-stack signatures for memory object grouping.

The paper groups memory objects by ``(size, callsite)`` where the
callsite signature is "calculated by individually applying the
exclusive-or and rotate functions to the return addresses of the most
recent four functions in the current stack" (Section 3, footnote 1).
"""

from repro.common.state import integers

SIGNATURE_BITS = 32
SIGNATURE_MASK = (1 << SIGNATURE_BITS) - 1
STACK_DEPTH = 4
ROTATE_STEP = 7


def _rotate_left(value, amount):
    amount %= SIGNATURE_BITS
    value &= SIGNATURE_MASK
    return ((value << amount) | (value >> (SIGNATURE_BITS - amount))) \
        & SIGNATURE_MASK


def call_stack_signature(return_addresses):
    """XOR-and-rotate signature of the most recent four return addresses.

    Each address is rotated by a depth-dependent amount before being
    XORed in, so the signature distinguishes the same addresses in a
    different order (A calls B vs. B calls A).
    """
    signature = 0
    recent = list(return_addresses)[-STACK_DEPTH:]
    for depth, address in enumerate(recent):
        signature ^= _rotate_left(address & SIGNATURE_MASK,
                                  depth * ROTATE_STEP)
    return signature


class CallStack:
    """The simulated program's stack of return addresses."""

    def __init__(self, entry_pc=0x400000):
        self._frames = [entry_pc]

    def push(self, return_address):
        self._frames.append(return_address)

    def pop(self):
        if len(self._frames) <= 1:
            raise IndexError("cannot pop the entry frame")
        return self._frames.pop()

    @property
    def depth(self):
        return len(self._frames)

    def signature(self):
        """Signature of the current call context."""
        return call_stack_signature(self._frames)

    def frames(self):
        return tuple(self._frames)

    def state_dict(self):
        return {"frames": list(self._frames)}

    def load_state(self, state):
        frames = integers(state["frames"], "frames")
        if not frames:
            raise ValueError("a call stack keeps its entry frame")
        self._frames = list(frames)
