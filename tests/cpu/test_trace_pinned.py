"""Every uop of every baseline trace generator's stream, pinned.

``test_timing_pinned.py`` pins what the core models make of a trace;
these CRCs pin the traces themselves, uop by uop: kind, address, deps as
distances back within the trace, latency and the mispredict flag, with
each trace's length marking where it ends.  A generator change that
drops or adds a uop, moves an address or rewires a dependency fails
here even where the timing happens not to move.
"""

from __future__ import annotations

import zlib

import pytest

from repro.cpu import TRACE_GENERATORS
from repro.harness.runner import MeasurementCache, RunSettings
from repro.workloads.ordered_kernel import ORDERED_CLASSES

#: CRC-32 of :func:`stream_crc` per generator over the first 400 probes
#: at probes=400, warmup=100, seed 42 (hash is the fig8 Small kernel).
PINNED = {
    "hash": 0x41365f68,
    "btree": 0xbeb6bb94,
    "trie": 0xa8a354eb,
    "wormhole": 0xa5537918,
    "batched": 0xa0b031c5,
}

PROBES = 400


@pytest.fixture(scope="module")
def cache():
    return MeasurementCache(runs=RunSettings(probes=PROBES, warmup=100,
                                             seed=42))


def generator_for(cache, name: str):
    if name == "hash":
        index, probes = cache.kernel_workload("Small")
    else:
        index, probes = cache.ordered_workload(f"{name}:Small")
    return TRACE_GENERATORS[name](index, probes)


def stream_crc(generator) -> int:
    """CRC-32 over every uop of ``generator.stream(range(PROBES))``."""
    crc = 0
    for trace in generator.stream(range(PROBES)):
        lines = [f"trace {len(trace)}"]
        for kind, addr, deps, latency, mispredict in trace:
            lines.append(f"{kind.value} {addr} {deps} {latency} "
                         f"{int(mispredict)}")
        crc = zlib.crc32(("\n".join(lines) + "\n").encode(), crc)
    return crc


def test_every_generator_is_pinned():
    assert set(PINNED) == set(TRACE_GENERATORS) == {"hash", *ORDERED_CLASSES}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_trace_stream_is_bit_identical(cache, name):
    crc = stream_crc(generator_for(cache, name))
    assert crc == PINNED[name], f"{name}: crc {crc:#010x}"
