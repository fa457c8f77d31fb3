"""Every field of every fig-indexes baseline result, pinned.

The fig-indexes golden and the index-zoo CRC only cover the printed
cycles/tuple.  These CRCs cover one whole :class:`CoreTimingResult` per
baseline point — each field by ``repr`` plus the registry snapshot as
sorted JSON — so a change to the trace generators or the core models
that moves any counter, stall total, miss ratio or confidence interval
fails here even when the rounded figure does not move.
"""

from __future__ import annotations

import dataclasses
import json
import zlib

import pytest

from repro.cpu.timing import CoreTimingResult
from repro.harness.runner import (MeasurementCache, RunSettings,
                                  baseline_point, index_point)
from repro.workloads.ordered_kernel import ORDERED_CLASSES

#: CRC-32 of :func:`result_text` per fig-indexes baseline point at
#: probes=400, warmup=100, seed 42 (the hash row is the fig8 Small kernel).
PINNED = {
    ("hash", "inorder"): 0x1b2d63a5,
    ("hash", "ooo"): 0xf2d38f48,
    ("btree", "inorder"): 0x38fad74b,
    ("btree", "ooo"): 0x335cae01,
    ("trie", "inorder"): 0xbc8d84ec,
    ("trie", "ooo"): 0x46dfc440,
    ("wormhole", "inorder"): 0x57806fd6,
    ("wormhole", "ooo"): 0x13a40c88,
    ("batched", "inorder"): 0x1c17ca57,
    ("batched", "ooo"): 0xedac9f78,
}


def result_text(result: CoreTimingResult) -> str:
    """Every field by ``repr``, then the stats snapshot as sorted JSON."""
    fields = [f"{f.name}={getattr(result, f.name)!r}"
              for f in dataclasses.fields(result) if f.name != "stats"]
    return "\n".join(fields + [json.dumps(result.stats, sort_keys=True)])


@pytest.fixture(scope="module")
def cache():
    return MeasurementCache(runs=RunSettings(probes=400, warmup=100, seed=42))


def measure(cache, row: str, core: str) -> CoreTimingResult:
    if row == "hash":
        return cache.measure(baseline_point("kernel", "Small", core))
    return cache.measure(index_point(f"{row}:Small", core))


def test_every_fig_indexes_baseline_point_is_pinned():
    rows = {row for row, _core in PINNED}
    assert rows == {"hash", *ORDERED_CLASSES}


@pytest.mark.parametrize("row,core", sorted(PINNED))
def test_baseline_result_is_bit_identical(cache, row, core):
    crc = zlib.crc32(result_text(measure(cache, row, core)).encode())
    assert crc == PINNED[(row, core)], f"{row}/{core}: crc {crc:#010x}"
