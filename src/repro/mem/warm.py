"""Functional warm-up of a whole byte range, without a per-block loop.

Warmed checkpoints install every block of a data structure (and its
translation) with no timing effect.  Warming block by block
(:meth:`Tlb.warm` and :meth:`CacheLevel.warm` per block) costs one LRU
insert per block per level, which for a million-tuple index dwarfs the
simulation itself.  :func:`warm_range` leaves exactly the state that
loop would, from the range's geometry:

* the TLB installs each page once, with the tick the page's last block
  would have left: the other blocks of a page only refresh that page's
  own tick, so nothing else about the table depends on them;
* a cache level handed at least ``num_sets x associativity`` contiguous
  blocks installs only that tail (:meth:`CacheArray.warm_run`).
"""

from __future__ import annotations

from typing import Sequence, Tuple

#: Warm level -> the cache levels it fills, nearest first.  A memory path
#: without one of them (the PIM path has no LLC) fills only the others.
_LEVELS = {"l1": ("l1d", "llc"), "l1d": ("l1d", "llc"), "llc": ("llc",)}


def warm_range(memory, base: int, size: int, level: str,
               block_bytes: int) -> None:
    """Warm ``memory``'s TLB and ``level`` caches over ``[base, base+size)``.

    Identical in effect to warming, for every ``block_bytes`` step from
    ``base`` rounded down to a block, the step's page in the TLB and its
    block (numbered by the L1 geometry) in each level, in order.  The
    memory paths' ``warm_block`` and ``warm_range`` delegate here;
    ``memory`` is any path with ``tlb`` and ``l1d`` (and optionally
    ``llc``) attributes.
    """
    try:
        names = _LEVELS[level]
    except KeyError:
        raise ValueError(f"unknown warm level {level!r}") from None
    first = base - base % block_bytes
    count = -(-(base + size - first) // block_bytes)
    if count <= 0:
        return
    tlb = memory.tlb
    tlb.warm_run(*_touches(first, block_bytes, count, tlb._page_bits))
    block_bits = memory.l1d.array.block_bits
    blocks, ends = _touches(first, block_bytes, count, block_bits)
    for name in names:
        cache = getattr(memory, name, None)
        if cache is not None:
            cache.array.warm_run(blocks, ends)


def _touches(first: int, step: int, count: int,
             bits: int) -> Tuple[range, Sequence[int]]:
    """The distinct units ``addr >> bits`` that ``count`` accesses at
    ``first``, ``first + step``, ... touch, in order, and for each the
    1-based number of the access that touches it last."""
    unit = 1 << bits
    start = first >> bits
    if step >= unit:
        stride = step >> bits
        return (range(start, start + count * stride, stride),
                range(1, count + 1))
    units = range(start, ((first + (count - 1) * step) >> bits) + 1)
    per_unit = unit // step
    lead = ((start + 1) * unit - first) // step
    ends = list(range(lead, lead + per_unit * (len(units) - 1), per_unit))
    ends.append(count)
    return units, ends
