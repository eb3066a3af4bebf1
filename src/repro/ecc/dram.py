"""Physical DRAM model that stores data bits and ECC check bits.

The DRAM itself is dumb storage: it keeps a byte array of data and a
configurable number of check bytes per 64-bit ECC group (one for the
SEC-DED/SEC-DAEC codes, three for the chipkill-style Reed-Solomon
code).  All encoding, checking, correction and fault reporting happens
in the :mod:`repro.ecc.controller`, exactly as on real hardware where
the DIMM stores extra bits and the memory controller implements the
code.
"""

import hashlib
import mmap

from repro.common.constants import ECC_GROUP_BYTES, PAGE_SIZE, is_aligned
from repro.common.errors import BusError, ConfigurationError
from repro.common.state import (
    decode_bytes,
    encode_bytes,
    integer,
    record,
    sequence,
)


class PhysicalMemory:
    """Installed DRAM: ``size`` data bytes plus check storage.

    ``check_bytes_per_group`` is the DIMM geometry — how many check
    bytes ride alongside each 64-bit data group — and must match the
    ``check_bytes`` of the codec the memory controller runs (the
    controller validates the pairing at construction).
    """

    def __init__(self, size, check_bytes_per_group=1):
        if size <= 0 or not is_aligned(size, ECC_GROUP_BYTES):
            raise ConfigurationError(
                f"DRAM size must be a positive multiple of "
                f"{ECC_GROUP_BYTES} bytes, got {size}"
            )
        if check_bytes_per_group < 1:
            raise ConfigurationError(
                f"check storage needs at least one byte per group, got "
                f"{check_bytes_per_group}"
            )
        self.size = size
        self.check_bytes_per_group = check_bytes_per_group
        # Zero-filled on demand: a page costs host memory only once a
        # run writes it.  Private, so a forked fleet worker writes its
        # own copy.
        self._data = _zeroed(size)
        self._check = _zeroed(size // ECC_GROUP_BYTES
                              * check_bytes_per_group)

    # ------------------------------------------------------------------
    # raw data access (no ECC semantics -- controller only)
    # ------------------------------------------------------------------
    def read_raw(self, address, length):
        """Read ``length`` raw data bytes with no ECC involvement."""
        self._require_range(address, length)
        return bytes(self._data[address:address + length])

    def write_raw(self, address, data):
        """Write raw data bytes with no ECC involvement."""
        self._require_range(address, len(data))
        self._data[address:address + len(data)] = data

    # ------------------------------------------------------------------
    # group-level access used by the controller
    # ------------------------------------------------------------------
    def read_group(self, address):
        """Return ``(data_word, check_value)`` for the group at ``address``.

        ``check_value`` is the stored check bytes as one little-endian
        integer, whatever their width.
        """
        self._require_group(address)
        word = int.from_bytes(
            self._data[address:address + ECC_GROUP_BYTES], "little"
        )
        return word, self._read_check_value(address // ECC_GROUP_BYTES)

    def write_group(self, address, data_word, check_value):
        """Store a 64-bit data word and its check bits."""
        self._require_group(address)
        self._data[address:address + ECC_GROUP_BYTES] = data_word.to_bytes(
            ECC_GROUP_BYTES, "little"
        )
        self._write_check_value(address // ECC_GROUP_BYTES, check_value)

    def write_group_data_only(self, address, data_word):
        """Store data while leaving the check bytes untouched.

        This is only possible while the controller has ECC disabled; it
        is the physical effect SafeMem's scrambling trick relies on.
        """
        self._require_group(address)
        self._data[address:address + ECC_GROUP_BYTES] = data_word.to_bytes(
            ECC_GROUP_BYTES, "little"
        )

    # ------------------------------------------------------------------
    # batched group access (cache-line transfers)
    # ------------------------------------------------------------------
    def read_groups(self, address, count):
        """Return ``(data, checks)`` for ``count`` consecutive groups.

        One slice each for the data bytes and the check bytes -- the
        burst transfer a real controller performs for a cache-line fill,
        instead of ``count`` separate :meth:`read_group` calls.  The
        ``checks`` slice is ``count * check_bytes_per_group`` bytes.
        """
        self._require_group(address)
        length = count * ECC_GROUP_BYTES
        self._require_range(address, length)
        width = self.check_bytes_per_group
        first = address // ECC_GROUP_BYTES * width
        return (
            bytes(self._data[address:address + length]),
            bytes(self._check[first:first + count * width]),
        )

    def write_groups(self, address, data, checks):
        """Store consecutive groups and their check bytes in one burst."""
        self._require_group(address)
        self._require_range(address, len(data))
        width = self.check_bytes_per_group
        if len(data) * width != len(checks) * ECC_GROUP_BYTES:
            raise BusError(
                f"{len(data)} data bytes need "
                f"{len(data) // ECC_GROUP_BYTES * width} check bytes "
                f"({width} per group), got {len(checks)}"
            )
        self._data[address:address + len(data)] = data
        first = address // ECC_GROUP_BYTES * width
        self._check[first:first + len(checks)] = checks

    def write_groups_data_only(self, address, data):
        """Burst-store data while leaving all check bytes untouched.

        The batched counterpart of :meth:`write_group_data_only`; only
        reachable while the controller has ECC disabled.
        """
        self._require_group(address)
        self._require_range(address, len(data))
        if len(data) % ECC_GROUP_BYTES:
            raise BusError(
                f"data-only burst must be a multiple of {ECC_GROUP_BYTES} "
                f"bytes, got {len(data)}"
            )
        self._data[address:address + len(data)] = data

    def read_check(self, address):
        """Return the stored check bits of the group at ``address``."""
        self._require_group(address)
        return self._read_check_value(address // ECC_GROUP_BYTES)

    # ------------------------------------------------------------------
    # integrity digests (checkpoint verification)
    # ------------------------------------------------------------------
    def digest(self):
        """SHA-256 hexdigests of the data and check arrays.

        Checkpoint documents record these next to their state image
        (which carries only the non-zero pages, :meth:`state_dict`):
        resume verifies the restored or replayed memory against the
        recorded digests.
        """
        return {
            "data": hashlib.sha256(self._data).hexdigest(),
            "check": hashlib.sha256(self._check).hexdigest(),
        }

    # ------------------------------------------------------------------
    # durable state (repro.state/v1)
    # ------------------------------------------------------------------
    def state_dict(self):
        """The data and check bytes of every page that holds a non-zero
        byte in either, as ``[page, data, check]`` (base64): a run
        touches a few hundred of the installed pages, so the zero rest
        is never written out."""
        data = self._data
        check = self._check
        width = PAGE_SIZE // ECC_GROUP_BYTES * self.check_bytes_per_group
        zero_data = bytes(PAGE_SIZE)
        zero_check = bytes(width)
        pages = []
        for page in range(len(data) // PAGE_SIZE):
            start = page * PAGE_SIZE
            data_bytes = data[start:start + PAGE_SIZE]
            check_bytes = check[page * width:(page + 1) * width]
            if data_bytes != zero_data or check_bytes != zero_check:
                pages.append([page, encode_bytes(data_bytes),
                              encode_bytes(check_bytes)])
        return {"pages": pages}

    def load_state(self, state):
        """Restore :meth:`state_dict` output into zeroed (freshly
        installed) DRAM."""
        width = PAGE_SIZE // ECC_GROUP_BYTES * self.check_bytes_per_group
        for item in sequence(state["pages"], "pages"):
            page, data_text, check_text = record(item, 3, "page")
            page = integer(page, "page")
            data_bytes = decode_bytes(data_text, "page data")
            check_bytes = decode_bytes(check_text, "page check")
            if (not 0 <= page < self.size // PAGE_SIZE
                    or len(data_bytes) != PAGE_SIZE
                    or len(check_bytes) != width):
                raise ValueError(f"page {page} does not fit this DRAM")
            self._data[page * PAGE_SIZE:(page + 1) * PAGE_SIZE] = data_bytes
            self._check[page * width:(page + 1) * width] = check_bytes

    # ------------------------------------------------------------------
    # fault injection (tests / hardware-error simulation)
    # ------------------------------------------------------------------
    def flip_data_bit(self, address, bit):
        """Flip one stored data bit -- simulates a hardware memory error."""
        self._require_range(address, 1)
        if not 0 <= bit < 8:
            raise ConfigurationError(f"bit index out of range: {bit}")
        self._data[address] ^= 1 << bit

    def flip_check_bit(self, address, bit):
        """Flip one stored check bit of the group containing ``address``.

        ``bit`` ranges over the installed check width — 8 bits per
        group on SEC-DED DIMMs, 24 on chipkill DIMMs — so fault
        injection follows the codec geometry instead of assuming the
        (72,64) layout.
        """
        self._require_group(address - address % ECC_GROUP_BYTES)
        width = self.check_bytes_per_group
        if not 0 <= bit < 8 * width:
            raise ConfigurationError(
                f"check bit index out of range for {8 * width} check "
                f"bits per group: {bit}"
            )
        index = address // ECC_GROUP_BYTES * width + bit // 8
        self._check[index] ^= 1 << (bit % 8)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _read_check_value(self, group):
        width = self.check_bytes_per_group
        if width == 1:
            return self._check[group]
        first = group * width
        return int.from_bytes(self._check[first:first + width], "little")

    def _write_check_value(self, group, value):
        width = self.check_bytes_per_group
        if not 0 <= value < (1 << (8 * width)):
            raise ConfigurationError(
                f"check value out of range for {width} check byte(s): "
                f"{value:#x}"
            )
        if width == 1:
            self._check[group] = value
        else:
            first = group * width
            self._check[first:first + width] = value.to_bytes(width,
                                                              "little")

    def _require_range(self, address, length):
        if address < 0 or address + length > self.size:
            raise BusError(
                f"physical access [{address:#x}, {address + length:#x}) "
                f"outside DRAM of {self.size:#x} bytes"
            )

    def _require_group(self, address):
        if not is_aligned(address, ECC_GROUP_BYTES):
            raise BusError(
                f"group access must be {ECC_GROUP_BYTES}-byte aligned, "
                f"got {address:#x}"
            )
        self._require_range(address, ECC_GROUP_BYTES)


def _zeroed(size):
    """``size`` zero bytes in a private anonymous mapping."""
    return mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
