"""Fast-path memory system tests: TLB, scalar access path, batched codec.

The correctness criterion for the whole fast-path layer is that it is
*invisible*: identical data, identical simulated cycle counts, and --
crucially -- every watchpoint fault fires on the first touch of an
armed line.
"""

import pytest

from repro.common.constants import CACHE_LINE_SIZE, PAGE_SIZE
from repro.common.errors import PageFault, ProtectionFault
from repro.ecc.codec import SecDedCodec
from repro.machine.machine import Machine
from repro.mmu.pagetable import PROT_NONE, PROT_READ, PROT_RW

BASE = 0x4000_0000


@pytest.fixture
def machine():
    m = Machine(dram_size=4 * 1024 * 1024)
    m.kernel.mmap(BASE, 16 * PAGE_SIZE)
    return m


# ----------------------------------------------------------------------
# software TLB
# ----------------------------------------------------------------------
class TestTlb:
    def test_repeated_access_hits_tlb(self, machine):
        machine.store(BASE, b"warmup")
        hits_before = machine.mmu.tlb_hits
        for _ in range(10):
            machine.load(BASE, 4)
        assert machine.mmu.tlb_hits >= hits_before + 10

    def test_unmap_invalidates_tlb(self, machine):
        region = BASE + 15 * PAGE_SIZE
        machine.kernel.munmap(region, PAGE_SIZE)
        machine.kernel.mmap(region, PAGE_SIZE)
        machine.store(region, b"alive")  # TLB now warm for the page
        assert machine.mmu.tlb_lookup(region) is not None
        machine.kernel.munmap(region, PAGE_SIZE)
        assert machine.mmu.tlb_lookup(region) is None
        with pytest.raises(PageFault):
            machine.load(region, 1)

    def test_remap_after_unmap_serves_fresh_zero_page(self, machine):
        region = BASE + 15 * PAGE_SIZE
        machine.kernel.munmap(region, PAGE_SIZE)
        machine.kernel.mmap(region, PAGE_SIZE)
        machine.store(region, b"old data")
        machine.kernel.munmap(region, PAGE_SIZE)
        machine.kernel.mmap(region, PAGE_SIZE)
        assert machine.load(region, 8) == bytes(8)

    def test_mprotect_narrowing_invalidates_tlb(self, machine):
        machine.store(BASE, b"rw")  # warm the TLB with a writable entry
        machine.kernel.mprotect(BASE, PAGE_SIZE, PROT_NONE)
        with pytest.raises(ProtectionFault):
            machine.load(BASE, 1)
        machine.kernel.mprotect(BASE, PAGE_SIZE, PROT_READ)
        assert machine.load(BASE, 2) == b"rw"
        with pytest.raises(ProtectionFault):
            machine.store(BASE, b"x")
        machine.kernel.mprotect(BASE, PAGE_SIZE, PROT_RW)
        machine.store(BASE, b"y")

    def test_swap_eviction_invalidates_tlb(self):
        m = Machine(dram_size=16 * PAGE_SIZE, cache_size=4 * 1024,
                    max_pinned_pages=4)
        pages = 32
        m.kernel.mmap(BASE, pages * PAGE_SIZE)
        for i in range(pages):
            m.store(BASE + i * PAGE_SIZE, bytes([i]) * 8)
        assert m.swap.swap_outs > 0
        assert m.mmu.tlb_invalidations > 0
        # Every page still readable; stale TLB frames would serve the
        # wrong page's bytes after the frame was recycled.
        for i in range(pages):
            assert m.load(BASE + i * PAGE_SIZE, 8) == bytes([i]) * 8

    def test_tlb_hit_on_absent_line_counts_one_lookup(self, machine):
        # No line armed, page in the TLB, line not resident: the access
        # takes one translation, so the TLB counts exactly one hit.
        machine.store(BASE, b"warm")
        machine.cache.flush_all()
        assert machine.mmu.tlb_lookup(BASE) is not None
        hits, misses = machine.mmu.tlb_hits, machine.mmu.tlb_misses
        assert machine.load(BASE + 8, 4) == bytes(4)
        assert machine.mmu.tlb_hits == hits + 1
        assert machine.mmu.tlb_misses == misses

    def test_tlb_flush_drops_everything(self, machine):
        machine.store(BASE, b"x")
        assert machine.mmu.tlb_lookup(BASE) is not None
        machine.mmu.tlb_flush()
        assert machine.mmu.tlb_lookup(BASE) is None
        assert machine.mmu.tlb_flushes == 1
        # Next access misses, then re-fills.
        machine.load(BASE, 1)
        assert machine.mmu.tlb_lookup(BASE) is not None


# ----------------------------------------------------------------------
# the scalar access path: resident hits and first touch after arming
# ----------------------------------------------------------------------
class TestFastPath:
    def test_fast_stores_mark_lines_dirty(self, machine):
        machine.store(BASE, b"seed")           # line resident
        machine.store(BASE, b"dirty-data")     # resident-span write
        machine.cache.flush_line(machine.mmu.translate(BASE))
        # A dropped dirty bit would lose the data on flush.
        assert machine.load(BASE, 10) == b"dirty-data"

    def test_watch_armed_after_warm_state_still_faults_on_first_touch(
            self, machine):
        fired = []
        original = None

        def handler(info):
            fired.append(info.vaddr)
            machine.kernel.disable_watch_memory(BASE, restore_data=original)
            return True

        machine.kernel.register_ecc_fault_handler(handler)
        machine.store(BASE, b"precious data bytes")
        # Warm the TLB entry and a resident, recently-hit cache line.
        for _ in range(3):
            machine.load(BASE, 19)
        original = machine.load(BASE, CACHE_LINE_SIZE)
        machine.kernel.watch_memory(BASE, CACHE_LINE_SIZE)
        # First touch after arming must fault exactly once, despite the
        # previously warm state.
        assert machine.load(BASE, 19) == b"precious data bytes"
        assert len(fired) == 1

    def test_write_after_arming_also_faults(self, machine):
        fired = []

        def handler(info):
            fired.append(info.access)
            machine.kernel.disable_watch_memory(BASE)
            return True

        machine.kernel.register_ecc_fault_handler(handler)
        machine.store(BASE, bytes(CACHE_LINE_SIZE))
        machine.load(BASE, 8)  # warm the line and the TLB
        machine.kernel.watch_memory(BASE, CACHE_LINE_SIZE)
        machine.store(BASE, b"write through watch")
        assert fired == ["write"]
        assert machine.load(BASE, 19) == b"write through watch"


# ----------------------------------------------------------------------
# batched ECC codec
# ----------------------------------------------------------------------
class TestBatchedCodec:
    def test_encode_words_matches_per_group_encode(self):
        codec = SecDedCodec()
        data = bytes((7 * i + 3) & 0xFF for i in range(CACHE_LINE_SIZE))
        checks = codec.encode_words(data)
        for group in range(CACHE_LINE_SIZE // 8):
            word = int.from_bytes(data[group * 8:group * 8 + 8], "little")
            assert checks[group] == codec.encode(word)

    def test_line_fill_takes_clean_fast_path(self, machine):
        machine.store(BASE, b"fill me")
        machine.cache.flush_all()
        before = machine.controller.clean_line_reads
        machine.load(BASE, 7)
        assert machine.controller.clean_line_reads > before

    def test_single_bit_error_still_corrected(self, machine):
        machine.store(BASE, b"\xffrobust")
        paddr = machine.mmu.translate(BASE)
        machine.cache.flush_all()
        machine.dram.flip_data_bit(paddr, 3)
        assert machine.load(BASE, 7) == b"\xffrobust"
        assert machine.controller.corrected_errors == 1
        assert machine.controller.group_decodes > 0
