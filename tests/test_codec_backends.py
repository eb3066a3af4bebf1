"""Per-codec backend suite: coding properties, chipset profiles, and
the watchpoint contract on every registered backend.

The tentpole contract (docs/HARDWARE.md): on *every* codec, a scrambled
write decodes as an uncorrectable fault on the next read, and a scrub
pass reports -- but never silently repairs -- an armed line.  The
property half is parameterized over the codec registry so registering a
new backend automatically buys it the whole suite.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.constants import (
    CACHE_LINE_SIZE,
    ECC_GROUP_BYTES,
    PAGE_SIZE,
    SCRAMBLE_BIT_POSITIONS,
)
from repro.common.errors import ConfigurationError, MachinePanic
from repro.ecc.codec import (
    CODECS,
    DecodeStatus,
    SecDedCodec,
    codec_names,
    get_codec,
    scramble_syndrome,
)
from repro.ecc.controller import EccMode, MemoryController
from repro.ecc.dram import PhysicalMemory
from repro.ecc.profile import (
    DEFAULT_PROFILE,
    PROFILES,
    ChipsetProfile,
    get_profile,
    profile_names,
)
from repro.machine.machine import Machine

BASE = 0x4000_0000

#: double-bit error samples per codec (deterministic).
DOUBLE_SAMPLES = 150


@pytest.fixture(params=sorted(CODECS), ids=sorted(CODECS))
def codec(request):
    return get_codec(request.param)


def _rng(codec, label):
    return random.Random(f"{label}:{codec.name}")


class TestCodecProperties:
    """Satellite 4: one parameterized fixture, every registered codec."""

    def test_clean_roundtrip_is_identity(self, codec):
        rng = _rng(codec, "clean")
        for word in [0, (1 << 64) - 1] + [rng.getrandbits(64)
                                          for _ in range(200)]:
            result = codec.decode(word, codec.encode(word))
            assert result.status is DecodeStatus.OK
            assert result.data == word
            assert result.codec == codec.name

    def test_every_single_data_bit_flip_corrected(self, codec):
        rng = _rng(codec, "single")
        for word in (0, rng.getrandbits(64)):
            check = codec.encode(word)
            for bit in range(64):
                result = codec.decode(word ^ (1 << bit), check)
                assert result.status is DecodeStatus.CORRECTED, \
                    f"data bit {bit}"
                assert result.data == word

    def test_every_single_check_bit_flip_corrected(self, codec):
        rng = _rng(codec, "check")
        word = rng.getrandbits(64)
        check = codec.encode(word)
        for bit in range(codec.check_bits):
            result = codec.decode(word, check ^ (1 << bit))
            assert result.status in (DecodeStatus.CORRECTED,
                                     DecodeStatus.OK), f"check bit {bit}"
            assert result.data == word

    def test_double_bit_flips_honor_the_codec_guarantee(self, codec):
        # SEC-DED detects all doubles; SEC-DAEC additionally *corrects*
        # adjacent pairs (and may miscorrect non-adjacent ones -- an
        # inherent limit of 8 check bits, documented in HARDWARE.md);
        # chipkill never miscorrects a double (same-symbol pairs are
        # corrected, cross-symbol pairs are flagged).
        rng = _rng(codec, "double")
        for _ in range(DOUBLE_SAMPLES):
            word = rng.getrandbits(64)
            check = codec.encode(word)
            a = rng.randrange(64)
            b = rng.randrange(64)
            while b == a:
                b = rng.randrange(64)
            corrupted = word ^ (1 << a) ^ (1 << b)
            result = codec.decode(corrupted, check)
            adjacent = abs(a - b) == 1
            same_symbol = a // 8 == b // 8
            if codec.double_bit_guarantee == "detects-all":
                assert result.status is DecodeStatus.UNCORRECTABLE
            elif codec.double_bit_guarantee == "corrects-adjacent":
                if adjacent:
                    assert result.status is DecodeStatus.CORRECTED
                    assert result.data == word
            elif codec.double_bit_guarantee == "corrects-within-symbol":
                if same_symbol:
                    assert result.status is DecodeStatus.CORRECTED
                    assert result.data == word
                else:
                    # Never a silent miscorrection across symbols.
                    assert result.status is DecodeStatus.UNCORRECTABLE
            else:
                pytest.fail(f"unknown guarantee "
                            f"{codec.double_bit_guarantee!r}")

    def test_scramble_pattern_is_always_uncorrectable(self, codec):
        rng = _rng(codec, "scramble")
        positions = codec.scramble_bit_positions
        assert len(positions) == 3
        status = codec.error_status(positions)
        assert status is DecodeStatus.UNCORRECTABLE
        for word in [0] + [rng.getrandbits(64) for _ in range(100)]:
            result = codec.decode(word ^ codec.scramble_mask,
                                  codec.encode(word))
            assert result.status is DecodeStatus.UNCORRECTABLE

    def test_scramble_bytes_is_a_groupwise_involution(self, codec):
        rng = _rng(codec, "involution")
        line = rng.randbytes(CACHE_LINE_SIZE)
        scrambled = codec.scramble_bytes(line)
        assert scrambled != line
        assert codec.scramble_bytes(scrambled) == line
        with pytest.raises(ConfigurationError):
            codec.scramble_bytes(b"odd-sized")

    @given(data=st.integers(1, 2 * PAGE_SIZE // ECC_GROUP_BYTES).flatmap(
        lambda groups: st.binary(min_size=groups * ECC_GROUP_BYTES,
                                 max_size=groups * ECC_GROUP_BYTES)))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_encode_words_matches_encode_per_group(self, codec, data):
        # The shared table encoder against the codec's own per-word
        # encode, from one group up to a two-page burst.
        checks = codec.encode_words(data)
        width = codec.check_bytes
        groups = len(data) // ECC_GROUP_BYTES
        assert len(checks) == groups * width
        for group in range(groups):
            word = int.from_bytes(
                data[group * 8:(group + 1) * 8], "little")
            expected = codec.encode(word)
            got = int.from_bytes(
                checks[group * width:(group + 1) * width], "little")
            assert got == expected, f"group {group}"

    @given(st.integers(0, 2 ** 64 - 1), st.integers(0, 2 ** 64 - 1))
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_encode_is_linear_over_gf2(self, codec, first, second):
        # The property the shared encoder rests on.
        assert codec.encode(0) == 0
        assert codec.encode(first ^ second) == \
            codec.encode(first) ^ codec.encode(second)

    def test_scramble_syndrome_rejects_out_of_range_positions(self, codec):
        # Satellite 3: fault injection is codec-width-aware -- an
        # out-of-range bit is a clean ConfigurationError on every
        # backend, not an IndexError or a silently wrapped position.
        for bad in ((-1,), (codec.group_bits,), (0, 8, 99)):
            with pytest.raises(ConfigurationError):
                codec.scramble_syndrome(bad)
        assert codec.error_status(SCRAMBLE_BIT_POSITIONS) in (
            DecodeStatus.UNCORRECTABLE, DecodeStatus.UNCORRECTABLE,
            DecodeStatus.CORRECTED)

    def test_registry_lookup(self, codec):
        assert get_codec(codec.name) is codec
        assert get_codec(codec) is codec
        assert codec.name in codec_names()


def test_module_scramble_syndrome_rejects_out_of_range():
    with pytest.raises(ConfigurationError):
        scramble_syndrome((64,))
    with pytest.raises(ConfigurationError):
        scramble_syndrome((-3,))
    assert scramble_syndrome(SCRAMBLE_BIT_POSITIONS) > 0


def test_unknown_codec_is_a_configuration_error():
    with pytest.raises(ConfigurationError):
        get_codec("hamming-7-4")


class TestNonLinearCodecRefused:
    """The shared batch encoder only holds for GF(2)-linear codes, so
    a backend whose ``encode`` is not linear must not construct."""

    def test_nonzero_encode_of_zero_refused(self):
        class Offset(SecDedCodec):
            name = "offset"

            def encode(self, data):
                return super().encode(data) ^ 0x01

        with pytest.raises(ConfigurationError, match="not linear"):
            Offset()

    def test_cross_byte_nonlinearity_refused(self):
        class Carry(SecDedCodec):
            name = "carry"

            def encode(self, data):
                # data * 3 == data + (data << 1): carries make it agree
                # with a linear map on every single-bit word (and on
                # zero) but not on words with adjacent set bits.
                return super().encode((data * 3) & (2 ** 64 - 1))

        with pytest.raises(ConfigurationError, match="not linear"):
            Carry()


class TestChipsetProfiles:
    def test_registry_profiles_validate(self):
        for name in profile_names():
            profile = get_profile(name)
            profile.validate()
            assert profile.name == name
            assert profile.codec in CODECS
            assert profile.build_codec().name == profile.codec

    def test_default_profile_is_secded(self):
        assert DEFAULT_PROFILE in PROFILES
        assert get_profile(None).name == DEFAULT_PROFILE
        assert get_profile(None).codec == "secded"

    def test_unknown_profile_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError):
            get_profile("ddr9-quantum")

    def test_bad_profile_fields_rejected(self):
        with pytest.raises(ConfigurationError):
            ChipsetProfile(name="x", codec="nope").validate()
        with pytest.raises(ConfigurationError):
            ChipsetProfile(name="x", scrub_interval_cycles=0).validate()
        with pytest.raises(ConfigurationError):
            ChipsetProfile(name="x", fault_noise=-1.0).validate()

    def test_machine_boot_config_round_trips_profile(self):
        from repro.obs.snapshot import machine_from_config
        machine = Machine(dram_size=2 * 1024 * 1024,
                          profile="chipkill-server")
        assert machine.profile.name == "chipkill-server"
        assert machine.boot_config["profile"] == "chipkill-server"
        assert machine.controller.codec.name == "chipkill"
        rebooted = machine_from_config(machine.boot_config)
        assert rebooted.boot_config == machine.boot_config
        assert rebooted.controller.codec.name == "chipkill"

    def test_profile_sizes_dram_check_storage(self):
        machine = Machine(dram_size=2 * 1024 * 1024,
                          profile="chipkill-server")
        assert machine.dram.check_bytes_per_group == 3
        default = Machine(dram_size=2 * 1024 * 1024)
        assert default.dram.check_bytes_per_group == 1

    def test_controller_rejects_mismatched_check_width(self):
        dram = PhysicalMemory(1024 * 1024, check_bytes_per_group=1)
        with pytest.raises(ConfigurationError):
            MemoryController(dram, codec=get_codec("chipkill"))

    def test_scrub_interval_reaches_the_scrubber(self):
        machine = Machine(dram_size=2 * 1024 * 1024,
                          profile="daec-server")
        scrubber = machine.kernel.scrubber
        assert scrubber.interval_cycles == \
            get_profile("daec-server").scrub_interval_cycles
        assert not scrubber.due()
        machine.clock.idle(scrubber.interval_cycles)
        assert scrubber.due()


def _machine(profile):
    machine = Machine(dram_size=2 * 1024 * 1024,
                      ecc_mode=EccMode.CORRECT_AND_SCRUB,
                      profile=profile)
    machine.kernel.mmap(BASE, 4 * PAGE_SIZE)
    return machine


@pytest.mark.parametrize("profile", sorted(PROFILES), ids=sorted(PROFILES))
class TestWatchpointContract:
    """The tentpole spine, machine-level, on every chipset profile."""

    def test_scrambled_write_faults_on_next_read(self, profile):
        machine = _machine(profile)
        original = bytes(range(CACHE_LINE_SIZE))
        machine.store(BASE, original)
        machine.load(BASE, CACHE_LINE_SIZE)
        hits = []

        def handler(info):
            hits.append(info)
            machine.kernel.disable_watch_memory(
                BASE, restore_data=original)
            return True

        machine.kernel.register_ecc_fault_handler(handler)
        machine.kernel.watch_memory(BASE, CACHE_LINE_SIZE)
        assert machine.load(BASE, CACHE_LINE_SIZE) == original
        assert len(hits) == 1
        assert hits[0].watched

    def test_unhandled_scramble_fault_panics(self, profile):
        machine = _machine(profile)
        machine.store(BASE, b"\xAA" * CACHE_LINE_SIZE)
        machine.load(BASE, CACHE_LINE_SIZE)
        machine.kernel.watch_memory(BASE, CACHE_LINE_SIZE)
        with pytest.raises(MachinePanic):
            machine.load(BASE, CACHE_LINE_SIZE)

    def test_scrubber_never_silently_repairs_an_armed_line(self, profile):
        machine = _machine(profile)
        kernel = machine.kernel
        original = b"\x5A" * CACHE_LINE_SIZE
        machine.store(BASE, original)
        machine.load(BASE, CACHE_LINE_SIZE)
        region = kernel.watch_memory(BASE, CACHE_LINE_SIZE)
        pline = next(iter(region.lines.values()))
        before = machine.dram.read_raw(pline, CACHE_LINE_SIZE)
        # No suspend hooks registered: the scrub pass walks straight
        # over the armed line.  It must report the fault, not clear it.
        faults = kernel.run_scrub_pass()
        assert any(fault.line_address == pline for fault in faults)
        assert machine.dram.read_raw(pline, CACHE_LINE_SIZE) == before
        # Still armed: the next read still faults.
        with pytest.raises(MachinePanic):
            machine.load(BASE, CACHE_LINE_SIZE)

    def test_injected_single_bit_noise_corrected(self, profile):
        machine = _machine(profile)
        payload = bytes((i * 13 + 7) & 0xFF
                        for i in range(CACHE_LINE_SIZE))
        machine.store(BASE, payload)
        paddr = machine.mmu.translate(BASE)
        machine.cache.flush_line(paddr)
        machine.dram.flip_data_bit(paddr, 5)
        before = machine.controller.corrected_errors
        assert machine.load(BASE, CACHE_LINE_SIZE) == payload
        assert machine.controller.corrected_errors == before + 1

    def test_check_bit_injection_is_width_aware(self, profile):
        # Satellite 3: flip_check_bit accepts the codec's full check
        # width and rejects bits beyond it.
        machine = _machine(profile)
        width = machine.controller.codec.check_bytes
        payload = b"\x33" * CACHE_LINE_SIZE
        machine.store(BASE, payload)
        paddr = machine.mmu.translate(BASE)
        machine.cache.flush_line(paddr)
        machine.dram.flip_check_bit(paddr, 8 * width - 1)
        assert machine.load(BASE, CACHE_LINE_SIZE) == payload
        with pytest.raises(ConfigurationError):
            machine.dram.flip_check_bit(paddr, 8 * width)

    def test_run_ops_whole_line_spans_are_batching_invariant(self, profile):
        # An access plan must produce the results of the same ops
        # issued one by one under every codec width (check storage per
        # group varies).
        plan = [("store", BASE + i * CACHE_LINE_SIZE,
                 bytes([i % 251]) * CACHE_LINE_SIZE) for i in range(48)]
        plan += [("load", BASE + i * CACHE_LINE_SIZE, CACHE_LINE_SIZE)
                 for i in range(48)]
        plan += [("store", BASE + 60, b"straddle!"),
                 ("load", BASE, 2 * PAGE_SIZE)]
        batched = _machine(profile)
        b_results = batched.run_ops(plan)
        scalar = _machine(profile)
        s_results = [scalar.load(vaddr, arg) if kind == "load"
                     else scalar.store(vaddr, arg)
                     for kind, vaddr, arg in plan]
        assert b_results == s_results
        assert batched.clock.cycles == scalar.clock.cycles


class TestStackAndFleetWiring:
    def test_stack_config_carries_profile(self):
        from repro.obs.stack import MonitorStackConfig
        config = MonitorStackConfig(profile="daec-server")
        config.validate()
        assert config.to_dict()["profile"] == "daec-server"
        restored = MonitorStackConfig.from_dict(config.to_dict())
        assert restored.profile == "daec-server"
        with pytest.raises(ConfigurationError):
            MonitorStackConfig(profile="nope").validate()

    def test_build_monitor_stack_boots_the_profile(self):
        from repro.obs.stack import MonitorStackConfig, \
            build_monitor_stack
        stack = build_monitor_stack(
            MonitorStackConfig(profile="chipkill-server"))
        try:
            assert stack.machine.profile.name == "chipkill-server"
            assert stack.machine.controller.codec.name == "chipkill"
        finally:
            stack.close()

    def test_cli_profile_flag_reaches_the_stack_config(self):
        from repro.cli import build_parser
        from repro.obs.stack import MonitorStackConfig
        parser = build_parser()
        args = parser.parse_args(
            ["run", "gzip", "--profile", "daec-server"])
        assert MonitorStackConfig.from_args(args).profile == \
            "daec-server"
        default = parser.parse_args(["run", "gzip"])
        assert MonitorStackConfig.from_args(default).profile == "e7500"

    def test_validation_enumerates_a_job_per_profile(self):
        from repro.analysis.fleet import (
            JOB_KINDS,
            enumerate_validation_jobs,
        )
        specs = enumerate_validation_jobs(requests=5)
        codec_jobs = [(kind, ident, params)
                      for kind, ident, params in specs
                      if kind == "codec-row"]
        assert [ident for _, ident, _ in codec_jobs] == \
            [f"codec:{name}" for name in profile_names()]
        assert "codec-row" in JOB_KINDS
        # Canonical-order pin: codec rows ride between figure3 and
        # sampling, and the synthetic Figure 3 closes the list.
        idents = [ident for _, ident, _ in specs]
        assert idents[-1] == "figure3-synthetic"
        assert idents.index("codec:e7500") < idents.index(
            "trend:ypserv1:buggy")
        assert idents.index("codec:e7500") > idents.index(
            "figure3:squid1")

    def test_codec_row_payload_round_trips_the_job_codec(self):
        from repro.analysis.fleet import JOB_KINDS
        kind = JOB_KINDS["codec-row"]
        row = kind.unit(profile="e7500")
        assert row.contract_ok
        assert row.false_scrub_corrections == 0
        restored = kind.decode(kind.encode(row))
        assert restored == row
