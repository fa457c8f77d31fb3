"""Differential tests: flat access path vs the composed reference path.

:class:`~repro.mem.hierarchy.MemoryPath` runs each access as one flat
pass over the TLB hit, the L1 port and the L1 tags.
:func:`~repro.mem.reference.use_reference_arrays` turns a memory into the
oracle: recency-list reference levels driven by the composed
method-per-component front half the flat one replaced.  Identical
seeded ``(op, addr, now)`` streams drive both on all three placements —
core-coupled :class:`MemoryHierarchy`, :class:`LlcSideMemory` and
:class:`PimBankMemory` — with small TLB/L1/LLC geometries, and must give
identical :class:`AccessResult` sequences, registry snapshots, resident
blocks and tracer samples (MSHR and page-walk pools traced).

The streams cover out-of-order ``now``, shared in-flight page walks and a
saturated one-walker pool, MSHR saturation, L1 and LLC combined misses
and DRAM fills, and port-count pruning past the 10,000-cycle horizon.
Directed streams pin the branches a random stream might miss.

The second half checks :meth:`PhysicalMemory.read`'s single-call word
read against ``int.from_bytes`` and its errors against the general path.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CacheConfig, PimConfig, SystemConfig, TlbConfig
from repro.errors import AlignmentError, SegmentationFault
from repro.mem.cache import CacheLevel
from repro.mem.hierarchy import AccessResult, MemoryHierarchy
from repro.mem.llcside import LlcSideMemory
from repro.mem.physmem import BASE_ADDRESS, PhysicalMemory
from repro.mem.pimside import PimBankMemory
from repro.mem.reference import use_reference_arrays
from repro.mem.tlb import Tlb
from repro.obs import StatsRegistry
from repro.obs.trace import Tracer

#: 4 x 1 KB pages, one page walk at a time.
SMALL_TLB = TlbConfig(entries=4, page_bytes=1024, in_flight=1,
                      miss_latency_cycles=35)
#: 4 sets x 2 ways, four MSHRs.
SMALL_L1 = CacheConfig(size_bytes=512, block_bytes=64, associativity=2,
                       latency_cycles=2, ports=2, mshrs=4)
#: 16 sets x 2 ways, one port, two MSHRs.
SMALL_LLC = CacheConfig(size_bytes=2048, block_bytes=64, associativity=2,
                        latency_cycles=6, ports=1, mshrs=2)
CONFIG = SystemConfig(l1d=SMALL_L1, llc=SMALL_LLC, tlb=SMALL_TLB,
                      pim=PimConfig(num_banks=2, walkers_per_bank=1))

PLACEMENTS = {"core": MemoryHierarchy, "llc": LlcSideMemory,
              "pim": PimBankMemory}

BASE = 0x4_0000
PAGES = 10          # > TLB entries: translations evict
BLOCKS_PER_PAGE = SMALL_TLB.page_bytes // SMALL_L1.block_bytes
HORIZON_JUMP = 65_000.0   # past 10,000 + 50,000: the port maps prune


def build(placement, reference):
    """A small-geometry memory of one placement, traced on every pool.

    The LLC-side and PIM paths fix their own TLB and buffer geometry, so
    the small ones are swapped in before any access (the same swap
    ``use_reference_arrays`` makes for its levels)."""
    memory = PLACEMENTS[placement](CONFIG)
    memory.tlb = Tlb(SMALL_TLB)
    memory.l1d = CacheLevel(SMALL_L1, memory.l1d.name)
    memory.stats.tlb = memory.tlb.stats
    memory.stats.l1d = memory.l1d.stats
    if reference:
        use_reference_arrays(memory)
    tracer = Tracer()
    memory.tlb.walks.set_tracer(tracer, "tlb.walks")
    memory.l1d.mshrs.set_tracer(tracer, "l1d.mshrs")
    if placement != "pim":
        memory.llc.mshrs.set_tracer(tracer, "llc.mshrs")
    return memory, tracer


def run_stream(placement, reference, stream):
    """Everything observable after driving ``stream``."""
    memory, tracer = build(placement, reference)
    ops = {"load": memory.load, "store": memory.store, "touch": memory.touch}
    results = [ops[op](addr, now) for op, addr, now in stream]
    registry = StatsRegistry()
    memory.register_into(registry, "mem")
    blocks = range(BASE // 64, BASE // 64 + PAGES * BLOCKS_PER_PAGE)
    resident = [block for block in blocks if memory.l1d.array.present(block)]
    if placement != "pim":
        resident.append(None)
        resident.extend(block for block in blocks
                        if memory.llc.array.present(block))
    return results, registry.to_dict(), resident, tracer.to_chrome()


def assert_same(placement, stream):
    flat = run_stream(placement, False, stream)
    oracle = run_stream(placement, True, stream)
    assert all(type(result) is AccessResult for result in flat[0])
    assert flat[0] == oracle[0]
    assert flat[1] == oracle[1]
    assert flat[2] == oracle[2]
    assert flat[3] == oracle[3]
    return flat


def addr_of(page, block, word=0):
    return BASE + page * SMALL_TLB.page_bytes + block * 64 + word * 8


# ---------------------------------------------------------------------------
# random streams
# ---------------------------------------------------------------------------

#: One step: (op, page, block, word, clock advance, look-back, fraction).
steps = st.tuples(
    st.sampled_from(["load", "load", "load", "store", "touch"]),
    st.integers(0, PAGES - 1),
    st.integers(0, BLOCKS_PER_PAGE - 1),
    st.integers(0, 7),
    st.one_of(st.integers(0, 12), st.integers(0, 12),
              st.just(int(HORIZON_JUMP))),
    st.one_of(st.just(0), st.integers(0, 60)),
    st.sampled_from([0.0, 0.0, 0.5, 0.25]),
)


def to_stream(raw):
    """Clocked ``(op, addr, now)`` triples; ``now`` runs up to 60 cycles
    behind the clock (out of order) and jumps past the prune horizon."""
    clock = 0.0
    stream = []
    for op, page, block, word, advance, back, fraction in raw:
        clock += advance
        now = max(0.0, clock - back) + fraction
        stream.append((op, addr_of(page, block, word), now))
    return stream


@pytest.mark.parametrize("placement", sorted(PLACEMENTS))
@settings(max_examples=60, deadline=None)
@given(raw=st.lists(steps, min_size=1, max_size=160))
def test_random_streams_match_the_composed_path(placement, raw):
    assert_same(placement, to_stream(raw))


# ---------------------------------------------------------------------------
# directed streams: every branch the exactness argument leans on
# ---------------------------------------------------------------------------

def shared_walk_stream():
    # Page 0 misses at 0 (walk until 35); the next two share the walk.
    # Page 1 then queues behind it in the one-walker pool.
    return [("load", addr_of(0, 0), 0.0), ("load", addr_of(0, 3), 10.0),
            ("touch", addr_of(0, 5), 20.0), ("load", addr_of(1, 0), 21.0),
            ("load", addr_of(1, 1), 30.0), ("load", addr_of(0, 0), 200.0)]


def combined_miss_stream():
    # X misses to DRAM at 100; same-block accesses combine at the L1
    # while the fill is in flight.  At 1000 X hits (dropping the L1's
    # in-flight entry, leaving the LLC's); two misses to its set evict
    # it; an out-of-order access back at 120 then misses the L1 and
    # combines with the LLC's still-pending fill.
    x = addr_of(0, 0)
    stream = [("load", addr_of(0, 1), 0.0), ("load", x, 100.0)]
    stream += [("load", addr_of(0, 0, word), 101.0 + word)
               for word in range(1, 4)]
    stream += [("load", x, 1000.0), ("store", addr_of(0, 4), 1001.0),
               ("load", addr_of(0, 8), 1002.0), ("load", x, 120.0)]
    return stream


def mshr_saturation_stream():
    # Distinct blocks at one instant: four MSHRs, eight misses.
    return ([("load", addr_of(0, 0), 100.0)]
            + [("load", addr_of(0, block), 140.0) for block in range(1, 9)])


def prune_stream():
    # Fill both L1 ports (and the LLC's one) over cycles 1000..1011, jump
    # the clock past the horizon, then come back to cycle 1000: the
    # pruned counts must be forgotten exactly as the resource forgets
    # them.
    stream = [("load", addr_of(0, block), 0.0) for block in range(4)]
    stream += [("load", addr_of(0, block % 4), 1000.0) for block in range(24)]
    stream += [("load", addr_of(0, 8 + k), 1000.0) for k in range(4)]
    stream += [("load", addr_of(0, 12), HORIZON_JUMP + 5_000.0),
               ("load", addr_of(0, 13), HORIZON_JUMP + 5_001.0)]
    stream += [("load", addr_of(0, block % 4), 1000.0) for block in range(6)]
    stream += [("load", addr_of(0, 14), 1000.0),
               ("load", addr_of(0, 15), 1001.0)]
    return stream


DIRECTED = {"shared-walk": shared_walk_stream,
            "combined-miss": combined_miss_stream,
            "mshr-saturation": mshr_saturation_stream,
            "prune": prune_stream}


@pytest.mark.parametrize("placement", sorted(PLACEMENTS))
@pytest.mark.parametrize("name", sorted(DIRECTED))
def test_directed_streams_match_the_composed_path(placement, name):
    assert_same(placement, DIRECTED[name]())


def test_directed_streams_reach_their_branches():
    """The directed streams exercise what their names promise (on the
    core-coupled path; the others share the front half)."""
    results, stats, _resident, trace = assert_same(
        "core", shared_walk_stream())
    assert stats["mem.tlb.stall_cycles"]["value"] > 0
    assert stats["mem.tlb.walks.wait_cycles"]["value"] > 0
    assert results[1].tlb_stall == 25.0

    _results, stats, _resident, _trace = assert_same(
        "core", combined_miss_stream())
    assert stats["mem.l1d.combined_misses"]["value"] >= 3
    assert stats["mem.llc.combined_misses"]["value"] >= 1
    assert stats["mem.dram_blocks"]["value"] >= 1

    _results, stats, _resident, trace = assert_same(
        "core", mshr_saturation_stream())
    assert stats["mem.l1d.mshrs.wait_cycles"]["value"] > 0
    assert {"name": "l1d.mshrs"} in [event["args"] for event in trace
                                     if event["ph"] == "M"]

    assert_same("core", prune_stream())
    memory, _tracer = build("core", False)
    for op, addr, now in prune_stream():
        getattr(memory, op)(addr, now)
    assert memory.l1d.ports._prune_cursor > 0
    assert memory.llc.ports._prune_cursor > 0
    # The 28 grants at 1000 filled cycles 1000..1013 before the prune;
    # the eight after it fit in 1000..1003 again.
    counts = memory.l1d.ports._cycle_counts
    assert counts.get(1000) == 2 and 1010 not in counts


def test_hierarchy_touch_and_store_count_like_loads():
    stream = [("touch", addr_of(0, 0), 0.0), ("store", addr_of(0, 1), 1.0),
              ("load", addr_of(0, 2), 2.0)]
    for placement in PLACEMENTS:
        _results, stats, _resident, _trace = assert_same(placement, stream)
        assert stats["mem.loads"]["value"] == 1
        assert stats["mem.stores"]["value"] == 1
        assert stats["mem.l1d.prefetches"]["value"] == 1


# ---------------------------------------------------------------------------
# PhysicalMemory.read: the single-call word read
# ---------------------------------------------------------------------------

def filled_memory(data: bytes) -> PhysicalMemory:
    memory = PhysicalMemory()
    base = memory.sbrk(len(data))
    memory.write_array(base, bytearray(data))
    return memory


@settings(max_examples=80, deadline=None)
@given(data=st.binary(min_size=64, max_size=64),
       size=st.integers(1, 8), slot=st.integers(0, 63))
def test_read_matches_int_from_bytes_for_every_width(data, size, slot):
    memory = filled_memory(data)
    addr = -(-(BASE_ADDRESS + slot) // size) * size   # aligned, >= slot
    if addr + size > BASE_ADDRESS + len(data):
        addr -= size * -(-(addr + size - BASE_ADDRESS - len(data)) // size)
    offset = addr - BASE_ADDRESS
    expected = int.from_bytes(data[offset:offset + size], "little")
    assert memory.read(addr, size) == expected


def test_read_widths_beyond_a_word_still_work():
    data = bytes(range(64))
    memory = filled_memory(data)
    assert memory.read(BASE_ADDRESS + 16, 16) == int.from_bytes(
        data[16:32], "little")


def _error(memory, addr, size):
    with pytest.raises((SegmentationFault, AlignmentError)) as caught:
        memory.read(addr, size)
    return type(caught.value), str(caught.value)


@pytest.mark.parametrize("size", range(1, 9))
def test_read_errors_keep_type_and_message(size):
    memory = PhysicalMemory()
    base = memory.sbrk(128)
    brk = base + 128
    window = f"[{BASE_ADDRESS:#x}, {brk:#x})"

    assert _error(memory, 0, size) == (SegmentationFault,
                                       "NULL pointer dereference")
    if size > 1:
        addr = base + 1
        assert _error(memory, addr, size) == (
            AlignmentError, f"unaligned {size}-byte access at {addr:#x}")
    past = brk + size - brk % size if brk % size else brk
    assert _error(memory, past, size) == (
        SegmentationFault,
        f"{size}-byte access at {past:#x} outside mapped {window}")
    below = (BASE_ADDRESS - 1) // size * size
    assert _error(memory, below, size) == (
        SegmentationFault,
        f"{size}-byte access at {below:#x} outside mapped {window}")


@pytest.mark.parametrize("size", [1, 2, 4, 8])
def test_read_after_sbrk_rewind_faults_like_a_fresh_break(size):
    memory = PhysicalMemory()
    keep = memory.sbrk(64)
    scratch = memory.sbrk(64)
    memory.write(scratch, size, 0xA5)
    assert memory.read(scratch, size) == 0xA5
    memory.sbrk_rewind(scratch)
    window = f"[{BASE_ADDRESS:#x}, {keep + 64:#x})"
    # The store still holds the released (zeroed) bytes; the break does not.
    assert _error(memory, scratch, size) == (
        SegmentationFault,
        f"{size}-byte access at {scratch:#x} outside mapped {window}")
    # The last mapped word still reads.
    assert memory.read(keep + 64 - size, size) == 0
