"""ECC memory controller.

Models an off-the-shelf controller like the Intel E7500 used in the
paper: it encodes on writes, checks/corrects on reads, supports the four
operating modes of Section 2.1 (Disabled, Check-Only, Correct-Error,
Correct-and-Scrub), and exposes exactly the narrow software interface
the paper works around:

- software cannot write check bits directly; the only way to create a
  data/code mismatch is the disable-ECC -> write -> enable-ECC window
  used by ``WatchMemory`` (with the bus locked during the window),
- uncorrectable errors are reported to the OS via an interrupt (here: a
  registered ``fault_listener`` plus an :class:`UncorrectableEccError`
  raised into the access path).
"""

from enum import Enum

from repro.common.constants import (
    CACHE_LINE_SIZE,
    ECC_GROUP_BYTES,
    GROUPS_PER_LINE,
    is_aligned,
    line_base,
)
from repro.common.errors import BusError, ConfigurationError
from repro.common.state import (
    boolean,
    fields_state,
    load_fields,
    text,
)
from repro.ecc.codec import DecodeStatus, get_codec
from repro.obs.metrics import attr_reader as _attr_reader
from repro.ecc.faults import (
    EccFault,
    FaultOrigin,
    FaultSeverity,
    UncorrectableEccError,
)


class EccMode(Enum):
    """Operating modes of the controller (paper Section 2.1)."""

    DISABLED = "disabled"
    CHECK_ONLY = "check_only"
    CORRECT_ERROR = "correct_error"
    CORRECT_AND_SCRUB = "correct_and_scrub"


class MemoryController:
    """Cache-line-granularity front end over :class:`PhysicalMemory`."""

    #: the counters :meth:`state_dict` records.
    STATE_FIELDS = ("corrected_errors", "uncorrectable_errors", "reads",
                    "writes", "clean_line_reads", "group_decodes",
                    "batched_line_writes")

    def __init__(self, dram, mode=EccMode.CORRECT_ERROR, codec=None,
                 metrics=None):
        self.dram = dram
        self.mode = mode
        self.codec = codec or get_codec("secded")
        installed = getattr(dram, "check_bytes_per_group", None)
        if installed is not None and installed != self.codec.check_bytes:
            raise ConfigurationError(
                f"codec {self.codec.name!r} needs "
                f"{self.codec.check_bytes} check byte(s) per group but "
                f"the installed DRAM stores {installed}"
            )
        #: Called with an :class:`EccFault` for every reported event
        #: (both corrected and uncorrectable).  The kernel registers
        #: itself here; ``None`` means events go unreported.
        self.fault_listener = None
        #: True while software holds the memory bus (WatchMemory window).
        self.bus_locked = False
        #: True while the ECC machinery is active.  ``WatchMemory``
        #: clears this briefly to write scrambled data under a stale code.
        self.ecc_enabled = True
        self.corrected_errors = 0
        self.uncorrectable_errors = 0
        self.reads = 0
        self.writes = 0
        #: perf counters for the batched (whole-line) codec path.
        self.clean_line_reads = 0
        self.group_decodes = 0
        self.batched_line_writes = 0
        if metrics is not None:
            self.register_metrics(metrics)

    def register_metrics(self, metrics):
        """Publish ``ecc.*`` probes into a metrics registry."""
        for name, attr in (
            ("ecc.read_lines", "reads"),
            ("ecc.write_lines", "writes"),
            ("ecc.corrected", "corrected_errors"),
            ("ecc.uncorrectable", "uncorrectable_errors"),
            ("ecc.codec.clean_line_reads", "clean_line_reads"),
            ("ecc.codec.group_decodes", "group_decodes"),
            ("ecc.codec.lines_batched", "batched_line_writes"),
        ):
            metrics.probe(name, _attr_reader(self, attr),
                          kind="counter")

    # ------------------------------------------------------------------
    # durable state (repro.state/v1)
    # ------------------------------------------------------------------
    def state_dict(self):
        """Mode, scramble-window flags and counters."""
        return {"mode": self.mode.value, "bus_locked": self.bus_locked,
                "ecc_enabled": self.ecc_enabled,
                **fields_state(self, self.STATE_FIELDS)}

    def load_state(self, state):
        """Restore :meth:`state_dict` output."""
        self.mode = EccMode(text(state["mode"], "mode"))
        self.bus_locked = boolean(state["bus_locked"], "bus_locked")
        self.ecc_enabled = boolean(state["ecc_enabled"], "ecc_enabled")
        load_fields(self, state, self.STATE_FIELDS)

    # ------------------------------------------------------------------
    # mode and window control
    # ------------------------------------------------------------------
    def set_mode(self, mode):
        """Switch operating mode (OS-level configuration)."""
        if not isinstance(mode, EccMode):
            raise ConfigurationError(f"not an EccMode: {mode!r}")
        self.mode = mode

    @property
    def checking_active(self):
        """True when reads are checked against stored codes."""
        return self.ecc_enabled and self.mode is not EccMode.DISABLED

    @property
    def correction_active(self):
        """True when single-bit errors are corrected in place."""
        return self.ecc_enabled and self.mode in (
            EccMode.CORRECT_ERROR,
            EccMode.CORRECT_AND_SCRUB,
        )

    def lock_bus(self):
        """Acquire the memory bus (blocks DMA/other processors)."""
        if self.bus_locked:
            raise BusError("memory bus is already locked")
        self.bus_locked = True

    def unlock_bus(self):
        if not self.bus_locked:
            raise BusError("memory bus is not locked")
        self.bus_locked = False

    def disable_ecc(self):
        """Open the scramble window.  Requires the bus to be locked,
        so concurrent traffic cannot slip through with ECC off."""
        if not self.bus_locked:
            raise BusError("ECC may only be disabled with the bus locked")
        self.ecc_enabled = False

    def enable_ecc(self):
        self.ecc_enabled = True

    # ------------------------------------------------------------------
    # cache-line transfer path
    # ------------------------------------------------------------------
    def read_line(self, address, origin=FaultOrigin.READ):
        """Read one cache line, performing ECC checks per current mode.

        Raises :class:`UncorrectableEccError` on a multi-bit error (the
        machine routes this through the kernel's interrupt path).
        """
        self._require_line(address)
        self.reads += 1
        data, checks = self.dram.read_groups(address, GROUPS_PER_LINE)
        if not self.checking_active:
            return data
        # Fast path: re-encode the whole line in one batched pass and
        # compare against the stored check bytes.  A clean line (the
        # overwhelmingly common case) never enters the per-group decode
        # loop below.
        if self.codec.encode_words(data) == checks:
            self.clean_line_reads += 1
            return data
        width = self.codec.check_bytes
        out = bytearray()
        for index in range(GROUPS_PER_LINE):
            offset = index * ECC_GROUP_BYTES
            group_addr = address + offset
            word = int.from_bytes(
                data[offset:offset + ECC_GROUP_BYTES], "little"
            )
            if width == 1:
                check = checks[index]
            else:
                check = int.from_bytes(
                    checks[index * width:(index + 1) * width], "little"
                )
            self.group_decodes += 1
            result = self.codec.decode(word, check)
            if result.status is DecodeStatus.CORRECTED:
                self.corrected_errors += 1
                if self.correction_active:
                    self.dram.write_group(
                        group_addr,
                        result.data,
                        self.codec.encode(result.data),
                    )
                self._report(
                    EccFault(
                        address=group_addr,
                        line_address=address,
                        severity=FaultSeverity.CORRECTED,
                        origin=origin,
                        syndrome=result.syndrome,
                        codec=self.codec.name,
                    )
                )
                word = result.data if self.correction_active else word
            elif result.status is DecodeStatus.UNCORRECTABLE:
                self.uncorrectable_errors += 1
                fault = EccFault(
                    address=group_addr,
                    line_address=address,
                    severity=FaultSeverity.UNCORRECTABLE,
                    origin=origin,
                    syndrome=result.syndrome,
                    codec=self.codec.name,
                )
                self._report(fault)
                raise UncorrectableEccError(fault)
            out += word.to_bytes(ECC_GROUP_BYTES, "little")
        return bytes(out)

    def read_lines(self, address, count):
        """Read a burst of ``count`` consecutive lines; return the
        bytes of its clean prefix.

        One DRAM read and one encode cover the whole burst.  The
        returned prefix ends before the first line whose stored check
        bytes differ from the re-encoded data, and ``reads`` and
        ``clean_line_reads`` advance once per returned line, exactly
        as that many clean :meth:`read_line` calls would.  Nothing is
        corrected or reported here: the caller reads the first unclean
        line with :meth:`read_line`, which does both.
        """
        self._require_line(address)
        data, checks = self.dram.read_groups(address,
                                             count * GROUPS_PER_LINE)
        if not self.checking_active:
            self.reads += count
            return data
        computed = self.codec.encode_words(data)
        clean = count
        if computed != checks:
            width = GROUPS_PER_LINE * self.codec.check_bytes
            clean = 0
            while (computed[clean * width:(clean + 1) * width]
                   == checks[clean * width:(clean + 1) * width]):
                clean += 1
            data = data[:clean * CACHE_LINE_SIZE]
        self.reads += clean
        self.clean_line_reads += clean
        return data

    def write_line(self, address, data):
        """Write one cache line, or a burst of consecutive lines.

        ``data`` may cover any positive whole number of lines starting
        at the line-aligned ``address``; a burst is one encode and one
        DRAM store, and leaves memory and the per-line counters exactly
        as that many one-line writes would.  With ECC enabled the
        controller encodes fresh check bits; with ECC disabled (the
        scramble window) only the data bits change and the old check
        bits go stale -- the physical effect SafeMem's ``WatchMemory``
        exploits.
        """
        self._require_line(address)
        lines, partial = divmod(len(data), CACHE_LINE_SIZE)
        if partial or not lines:
            raise BusError(
                f"line write must be a positive multiple of "
                f"{CACHE_LINE_SIZE} bytes, got {len(data)}"
            )
        self.writes += lines
        if self.ecc_enabled:
            self.dram.write_groups(address, data,
                                   self.codec.encode_words(data))
            self.batched_line_writes += lines
        else:
            self.dram.write_groups_data_only(address, data)

    # ------------------------------------------------------------------
    # scrubbing support (used by repro.ecc.scrubber)
    # ------------------------------------------------------------------
    def scrub_line(self, address):
        """Check (and correct) one line during a scrub pass.

        Unlike :meth:`read_line`, an uncorrectable error found while
        scrubbing is reported to the listener but does not raise -- the
        scrubber is not on any instruction's critical path.  Returns the
        uncorrectable :class:`EccFault` if one was found, else ``None``.
        """
        try:
            self.read_line(address, origin=FaultOrigin.SCRUB)
        except UncorrectableEccError as exc:
            return exc.fault
        return None

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _report(self, fault):
        if self.fault_listener is not None:
            self.fault_listener(fault)

    def _require_line(self, address):
        if not is_aligned(address, CACHE_LINE_SIZE):
            raise BusError(
                f"line access must be {CACHE_LINE_SIZE}-byte aligned, "
                f"got {address:#x} (line base {line_base(address):#x})"
            )
