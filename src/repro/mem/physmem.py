"""Flat byte-addressable simulated memory.

Every data structure the simulated programs touch (input key tables, hash
buckets, node lists, output regions) is laid out at real addresses inside a
single byte store.  Widx instructions and the baseline cores' probe
traces read and write these bytes, so the simulation is functionally exact:
the accelerated probe must produce byte-identical results to the software
loop.

Address 0 is reserved as the NULL pointer; the first mapped byte is at
``BASE_ADDRESS``.
"""

from __future__ import annotations

import mmap
from struct import Struct

from ..errors import AlignmentError, SegmentationFault

NULL_PTR = 0
BASE_ADDRESS = 0x1_0000

#: Width -> ``unpack_from`` of its unsigned little-endian format.
_UNPACK = {size: Struct("<" + code).unpack_from
           for size, code in ((1, "B"), (2, "H"), (4, "I"), (8, "Q"))}


class PhysicalMemory:
    """A growable, bounds-checked flat memory.

    All multi-byte accesses are little-endian and must be naturally aligned
    (the Widx datapath and the baseline cores issue only aligned accesses).
    """

    def __init__(self, limit_bytes: int = 1 << 31) -> None:
        # Private anonymous pages are zero until first touched, so the
        # store never grows, moves or sits in the malloc heap.
        self._store = mmap.mmap(-1, limit_bytes, flags=mmap.MAP_PRIVATE)
        self._limit = limit_bytes
        self._base = BASE_ADDRESS
        self._brk = BASE_ADDRESS  # next unallocated address

    @property
    def allocated_bytes(self) -> int:
        """Total bytes handed out by :meth:`sbrk`."""
        return self._brk - self._base

    def sbrk(self, nbytes: int, align: int = 64) -> int:
        """Extend the mapped region by ``nbytes`` (aligned); return its base."""
        if nbytes < 0:
            raise ValueError("cannot allocate a negative size")
        if align < 1 or (align & (align - 1)) != 0:
            raise ValueError("alignment must be a positive power of two")
        base = (self._brk + align - 1) & ~(align - 1)
        end = base + nbytes
        if end - self._base > self._limit:
            raise SegmentationFault(
                f"allocation of {nbytes} bytes exceeds the {self._limit}-byte "
                f"simulated memory limit")
        self._brk = end
        return base

    def sbrk_rewind(self, base: int) -> None:
        """Roll the break back to ``base``, undoing the latest allocations.

        The released range is zeroed so a subsequent :meth:`sbrk` hands out
        memory indistinguishable from a fresh extension — scratch buffers
        (Widx output regions) can be released and reallocated without the
        simulation observing reuse.
        """
        if not self._base <= base <= self._brk:
            raise ValueError(
                f"cannot rewind break to {base:#x}: outside "
                f"[{self._base:#x}, {self._brk:#x}]")
        start = base - self._base
        end = self._brk - self._base
        self._store[start:end] = b"\x00" * (end - start)
        self._brk = base

    def _offset(self, addr: int, size: int) -> int:
        if addr == NULL_PTR:
            raise SegmentationFault("NULL pointer dereference")
        if addr % size != 0:
            raise AlignmentError(f"unaligned {size}-byte access at {addr:#x}")
        offset = addr - self._base
        if offset < 0 or offset + size > self._brk - self._base:
            raise SegmentationFault(
                f"{size}-byte access at {addr:#x} outside mapped "
                f"[{self._base:#x}, {self._brk:#x})")
        return offset

    def read(self, addr: int, size: int) -> int:
        """Read an unsigned little-endian integer of ``size`` bytes."""
        # A valid word is one unpack; the general path raises any error.
        unpack = _UNPACK.get(size)
        if unpack is not None and addr and not addr % size:
            offset = addr - self._base
            if 0 <= offset <= self._brk - self._base - size:
                return unpack(self._store, offset)[0]
        offset = self._offset(addr, size)
        return int.from_bytes(self._store[offset:offset + size], "little")

    def write(self, addr: int, size: int, value: int) -> None:
        """Write an unsigned little-endian integer of ``size`` bytes."""
        offset = self._offset(addr, size)
        self._store[offset:offset + size] = (value & ((1 << (8 * size)) - 1)) \
            .to_bytes(size, "little")

    def read_array(self, addr: int, itemsize: int, count: int) -> bytearray:
        """Copy out ``count`` consecutive ``itemsize``-byte elements.

        Checked like :meth:`read` of each element in turn.  The copy is
        the caller's own (``np.frombuffer`` over it gives a writable
        array), so no view of the store escapes.
        """
        offset = self._array_offset(addr, itemsize, count)
        view = memoryview(self._store)[offset:offset + itemsize * count]
        return bytearray(view)

    def write_array(self, addr: int, values) -> None:
        """Write a contiguous array's raw bytes at ``addr`` in one copy.

        ``values`` is any buffer, typically a little-endian numpy array.
        Checked like :meth:`write` of each element in turn, but before
        any byte changes: the range must be mapped and ``addr`` aligned
        to the element size.  Every byte of each element is stored, the
        padding of a record dtype included.
        """
        view = memoryview(values)
        if not view.c_contiguous:
            raise ValueError("write_array needs a contiguous array")
        offset = self._array_offset(addr, view.itemsize, len(view))
        self._store[offset:offset + view.nbytes] = view.cast("B")

    def _array_offset(self, addr: int, itemsize: int, count: int) -> int:
        if count < 0:
            raise ValueError("element count must be non-negative")
        if count == 0:
            return 0
        offset = self._offset(addr, itemsize)
        end = offset + itemsize * count
        if end > self._brk - self._base:
            raise SegmentationFault(
                f"{itemsize * count}-byte array access at {addr:#x} outside "
                f"mapped [{self._base:#x}, {self._brk:#x})")
        return offset

    # Sized helpers keep call sites readable.
    def read_u8(self, addr: int) -> int:
        """Read one byte."""
        return self.read(addr, 1)

    def read_u32(self, addr: int) -> int:
        """Read an aligned 32-bit little-endian word."""
        return self.read(addr, 4)

    def read_u64(self, addr: int) -> int:
        """Read an aligned 64-bit little-endian word."""
        return self.read(addr, 8)

    def write_u8(self, addr: int, value: int) -> None:
        """Write one byte."""
        self.write(addr, 1, value)

    def write_u32(self, addr: int, value: int) -> None:
        """Write an aligned 32-bit little-endian word."""
        self.write(addr, 4, value)

    def write_u64(self, addr: int, value: int) -> None:
        """Write an aligned 64-bit little-endian word."""
        self.write(addr, 8, value)

    def read_bytes(self, addr: int, nbytes: int) -> bytes:
        """Raw byte read (no alignment requirement) for debugging/dumps."""
        if addr == NULL_PTR:
            raise SegmentationFault("NULL pointer dereference")
        offset = addr - self._base
        if offset < 0 or offset + nbytes > self._brk - self._base:
            raise SegmentationFault(f"byte read at {addr:#x} out of range")
        return bytes(self._store[offset:offset + nbytes])
