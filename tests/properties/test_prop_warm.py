"""Property-based tests: ``warm_range`` equals a per-block warm loop.

``warm_range`` installs a byte range without visiting every block (each
TLB page once; only the capacity-sized tail of a long range per cache
level).  Starting from the same state, it must leave every LRU structure
exactly as warming each block of the range one at a time does —
``Tlb.warm`` plus ``CacheLevel.warm`` on each level the warm level
names: the same resident entries with the same ticks, the same set
membership and the same tick counter.
"""

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.config import DEFAULT_CONFIG, CacheConfig, TlbConfig
from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.llcside import LlcSideMemory
from repro.mem.pimside import PIM_BUFFER, PimBankMemory

#: Tiny geometry: 3 L1 sets (not a power of two, so set indexing takes
#: the modulo path), 5 LLC sets x 4 ways and a 3-entry TLB of 256 B
#: pages, so short ranges already overflow every level.
TINY = replace(
    DEFAULT_CONFIG,
    l1d=CacheConfig(size_bytes=3 * 2 * 64, block_bytes=64, associativity=2),
    llc=CacheConfig(size_bytes=5 * 4 * 64, block_bytes=64, associativity=4),
    tlb=TlbConfig(entries=3, page_bytes=256))

#: Power-of-two geometry (masked set indexing) still small enough to
#: overflow quickly: 4 L1 sets, 16 LLC sets x 4 ways.
SMALL = replace(
    DEFAULT_CONFIG,
    l1d=CacheConfig(size_bytes=4 * 2 * 64, block_bytes=64, associativity=2),
    llc=CacheConfig(size_bytes=16 * 4 * 64, block_bytes=64, associativity=4))

MEMORIES = [MemoryHierarchy, LlcSideMemory, PimBankMemory]


def state(memory):
    """Every piece of LRU state a warm touches."""
    snapshot = [dict(memory.tlb._entries), memory.tlb._tick]
    for name in ("l1d", "llc"):
        level = getattr(memory, name, None)
        if level is not None:
            array = level.array
            snapshot += [dict(array._entries), dict(array._sets),
                         array._tick]
    return snapshot


#: Warm level -> the cache levels it fills (the PIM path has no LLC).
LEVELS = {"l1": ("l1d", "llc"), "llc": ("llc",)}


def warm_per_block(memory, base, size, level):
    """The reference: each block's page, then the block in each level."""
    step = (PIM_BUFFER.block_bytes if isinstance(memory, PimBankMemory)
            else memory.cfg.l1d.block_bytes)
    addr = base - base % step
    while addr < base + size:
        memory.tlb.warm(addr)
        for name in LEVELS[level]:
            cache = getattr(memory, name, None)
            if cache is not None:
                cache.warm(memory.l1d.block_of(addr))
        addr += step


ranges = st.tuples(st.integers(0, 1 << 16), st.integers(0, 1 << 14),
                   st.sampled_from(["l1", "llc"]))


@settings(max_examples=200, deadline=None)
@given(memory_cls=st.sampled_from(MEMORIES),
       config=st.sampled_from([TINY, SMALL]),
       earlier=st.lists(ranges, max_size=3),
       warm=ranges)
def test_warm_range_equals_per_block_loop(memory_cls, config, earlier, warm):
    reference, fast, looped = (memory_cls(config), memory_cls(config),
                               memory_cls(config))
    for base, size, level in earlier:     # caches already holding blocks
        for memory in (reference, fast, looped):
            warm_per_block(memory, base, size, level)
    base, size, level = warm
    warm_per_block(reference, base, size, level)
    fast.warm_range(base, size, level)
    assert state(fast) == state(reference)
    # The single-block entry point, called on every block, agrees too.
    step = (PIM_BUFFER.block_bytes if memory_cls is PimBankMemory
            else config.l1d.block_bytes)
    for addr in range(base - base % step, base + size, step):
        looped.warm_block(addr, level)
    assert state(looped) == state(reference)


@settings(max_examples=60, deadline=None)
@given(memory_cls=st.sampled_from(MEMORIES),
       which=st.sampled_from(["l1d", "llc"]),
       blocks_off=st.integers(-2, 2), base_off=st.integers(0, 63),
       size_off=st.integers(0, 63), level=st.sampled_from(["l1", "llc"]))
def test_ranges_around_exact_capacity(memory_cls, which, blocks_off,
                                      base_off, size_off, level):
    """Shorter than, equal to and longer than a level's capacity, with
    unaligned base and size."""
    reference, fast = memory_cls(TINY), memory_cls(TINY)
    cache = getattr(fast, which, None) or fast.l1d
    blocks = cache.cfg.num_blocks + blocks_off
    base = 0x4000 + base_off
    size = max(0, blocks * 64 - base_off - size_off)
    warm_per_block(reference, 0x9000, 4096, "l1")
    warm_per_block(fast, 0x9000, 4096, "l1")
    warm_per_block(reference, base, size, level)
    fast.warm_range(base, size, level)
    assert state(fast) == state(reference)


def test_default_llc_overflowing_range_matches():
    """The shipped geometry: a range just over the 4 MB LLC, warmed on
    top of earlier contents, with page-sized TLB runs."""
    reference, fast = MemoryHierarchy(DEFAULT_CONFIG), \
        MemoryHierarchy(DEFAULT_CONFIG)
    for memory in (reference, fast):
        warm_per_block(memory, 0x10_0000, 256 * 1024, "l1")
    base, size = 0x20_0010, 4 * 1024 * 1024 + 3 * 64 + 7
    warm_per_block(reference, base, size, "llc")
    fast.warm_range(base, size, "llc")
    assert state(fast) == state(reference)
    assert len(fast.llc.array._entries) == DEFAULT_CONFIG.llc.num_blocks


@settings(max_examples=40, deadline=None)
@given(block_bytes=st.sampled_from([32, 128]), warm=ranges,
       earlier=st.lists(ranges, max_size=2))
def test_llc_side_steps_not_matching_its_buffer_blocks(block_bytes, warm,
                                                       earlier):
    """The LLC-side path steps by the host L1 block but numbers blocks by
    its own 64 B buffer: several steps per block, or blocks skipped."""
    config = replace(
        DEFAULT_CONFIG,
        l1d=CacheConfig(size_bytes=4 * 2 * block_bytes,
                        block_bytes=block_bytes, associativity=2),
        llc=CacheConfig(size_bytes=8 * 4 * block_bytes,
                        block_bytes=block_bytes, associativity=4))
    reference, fast = LlcSideMemory(config), LlcSideMemory(config)
    for base, size, level in earlier:
        warm_per_block(reference, base, size, level)
        warm_per_block(fast, base, size, level)
    base, size, level = warm
    warm_per_block(reference, base, size, level)
    fast.warm_range(base, size, level)
    assert state(fast) == state(reference)
