"""Tests for the flat simulated memory."""

import numpy as np
import pytest

from repro.errors import AlignmentError, SegmentationFault
from repro.mem.physmem import NULL_PTR, PhysicalMemory


def test_sbrk_returns_aligned_growing_addresses():
    mem = PhysicalMemory()
    a = mem.sbrk(100, align=64)
    b = mem.sbrk(100, align=64)
    assert a % 64 == 0 and b % 64 == 0
    assert b >= a + 100


def test_read_write_roundtrip_all_widths():
    mem = PhysicalMemory()
    base = mem.sbrk(64)
    for size, value in ((1, 0xAB), (4, 0xDEADBEEF), (8, 0x0123456789ABCDEF)):
        mem.write(base, size, value)
        assert mem.read(base, size) == value


def test_little_endian_layout():
    mem = PhysicalMemory()
    base = mem.sbrk(8)
    mem.write_u64(base, 0x1122334455667788)
    assert mem.read_u8(base) == 0x88
    assert mem.read_u32(base + 4) == 0x11223344


def test_write_truncates_to_width():
    mem = PhysicalMemory()
    base = mem.sbrk(8)
    mem.write_u32(base, 0x1_FFFF_FFFF)
    assert mem.read_u32(base) == 0xFFFF_FFFF


def test_null_dereference_faults():
    mem = PhysicalMemory()
    mem.sbrk(64)
    with pytest.raises(SegmentationFault):
        mem.read(NULL_PTR, 8)


def test_unaligned_access_faults():
    mem = PhysicalMemory()
    base = mem.sbrk(64)
    with pytest.raises(AlignmentError):
        mem.read(base + 1, 8)
    with pytest.raises(AlignmentError):
        mem.write(base + 2, 4, 1)


def test_out_of_bounds_faults():
    mem = PhysicalMemory()
    base = mem.sbrk(64)
    with pytest.raises(SegmentationFault):
        mem.read(base + 64, 8)


def test_memory_limit_enforced():
    mem = PhysicalMemory(limit_bytes=1024)
    with pytest.raises(SegmentationFault):
        mem.sbrk(2048)


def test_negative_allocation_rejected():
    with pytest.raises(ValueError):
        PhysicalMemory().sbrk(-1)


def test_bad_alignment_rejected():
    with pytest.raises(ValueError):
        PhysicalMemory().sbrk(8, align=3)


def test_fresh_memory_reads_zero():
    mem = PhysicalMemory()
    base = mem.sbrk(64)
    assert mem.read_u64(base) == 0


def test_read_bytes_debug_helper():
    mem = PhysicalMemory()
    base = mem.sbrk(16)
    mem.write_u32(base, 0x04030201)
    assert mem.read_bytes(base, 4) == b"\x01\x02\x03\x04"


def test_allocated_bytes_tracks_brk():
    mem = PhysicalMemory()
    mem.sbrk(100, align=64)
    assert mem.allocated_bytes >= 100


def test_with_arrays_writes_the_store_in_place():
    mem = PhysicalMemory()
    base = mem.sbrk(64)
    mem.write_u32(base + 8, 7)

    def edit(words, tail):
        words[1] += 1
        tail[:] = 0xAB
        return int(words.sum())

    assert mem.with_arrays(edit, (base, "<u4", 4), (base + 60, "u1", 4)) \
        == 8
    assert mem.read_u32(base + 4) == 1
    assert mem.read_u32(base + 8) == 7
    assert mem.read_bytes(base + 60, 4) == b"\xab" * 4


@pytest.mark.parametrize("span, error", [
    ((1, "<u8", 2), AlignmentError),
    ((0, "<u4", 17), SegmentationFault),
    ((NULL_PTR, "<u4", 1), SegmentationFault),
])
def test_with_arrays_checks_every_span_before_use(span, error):
    mem = PhysicalMemory()
    base = mem.sbrk(64)
    addr, dtype, count = span
    if addr != NULL_PTR:
        addr += base
    calls = []
    with pytest.raises(error):
        mem.with_arrays(calls.append, (base, "<u8", 8), (addr, dtype, count))
    assert calls == []
    mem._store.close()   # no view left behind


def test_with_arrays_refuses_a_view_that_escapes():
    mem = PhysicalMemory()
    base = mem.sbrk(64)
    kept = []
    with pytest.raises(BufferError):
        mem.with_arrays(kept.append, (base, np.uint64, 8))
    kept.clear()
    mem._store.close()
