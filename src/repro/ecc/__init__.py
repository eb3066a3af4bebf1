"""ECC memory substrate: pluggable codecs, DRAM model, controller, scrubber."""

from repro.ecc.codec import (
    CODECS,
    DATA_POSITIONS,
    ChipkillCodec,
    Codec,
    DecodeResult,
    DecodeStatus,
    SecDaecCodec,
    SecDedCodec,
    codec_names,
    get_codec,
    scramble_syndrome,
)
from repro.ecc.controller import EccMode, MemoryController
from repro.ecc.dram import PhysicalMemory
from repro.ecc.faults import (
    EccFault,
    FaultOrigin,
    FaultSeverity,
    UncorrectableEccError,
)
from repro.ecc.profile import (
    DEFAULT_PROFILE,
    PROFILES,
    ChipsetProfile,
    get_profile,
    profile_names,
)
from repro.ecc.scrubber import Scrubber

__all__ = [
    "CODECS",
    "DATA_POSITIONS",
    "ChipkillCodec",
    "Codec",
    "DecodeResult",
    "DecodeStatus",
    "SecDaecCodec",
    "SecDedCodec",
    "codec_names",
    "get_codec",
    "scramble_syndrome",
    "EccMode",
    "MemoryController",
    "PhysicalMemory",
    "EccFault",
    "FaultOrigin",
    "FaultSeverity",
    "UncorrectableEccError",
    "DEFAULT_PROFILE",
    "PROFILES",
    "ChipsetProfile",
    "get_profile",
    "profile_names",
    "Scrubber",
]
