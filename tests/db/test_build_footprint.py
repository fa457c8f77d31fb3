"""``HashIndex.build``'s host footprint.

The build lays the index out in place, through views of the simulated
store, a run of keys at a time: the scratch it allocates is bounded by
the run, not by the number of keys, and no view of the store outlives
the call, whether the build succeeds or fails.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest

from repro.db import hashtable
from repro.db.datagen import make_rng, unique_keys
from repro.db.hashfn import kernel_hash
from repro.db.hashtable import HashIndex, choose_num_buckets
from repro.db.node import KERNEL_LAYOUT
from repro.errors import PlanError
from repro.mem.layout import AddressSpace

RUN = 1 << 10

#: Scratch bytes per key of a run.  A build measures ~100-120; the copies
#: of the bucket array, the node heap and the payloads an out-of-place
#: build makes cost ~16 times that per run key at 64 runs.
SCRATCH_PER_RUN_KEY = 160


def _kernel(num_keys, capacity=None):
    """A kernel-layout index with the kernel's key and payload arrays:
    unique ``uint32`` keys and signed ``np.arange`` payloads."""
    index = HashIndex(AddressSpace(), KERNEL_LAYOUT,
                      choose_num_buckets(num_keys, 2.0), kernel_hash(24),
                      capacity=capacity or num_keys)
    keys = unique_keys(num_keys, KERNEL_LAYOUT.key_bytes, make_rng(7))
    return index, keys, np.arange(1, num_keys + 1)


def _build_peak(index, keys, payloads):
    """Peak bytes traced while ``build`` runs."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        index.build(keys, payloads)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("runs", [4, 64])
def test_build_scratch_is_bounded_by_the_run_not_the_keys(runs):
    index, keys, payloads = _kernel(runs * RUN)
    with mock.patch.object(hashtable, "_BUILD_RUN", RUN):
        peak = _build_peak(index, keys, payloads)
    assert peak < SCRATCH_PER_RUN_KEY * RUN
    assert index.num_keys == len(keys)


def test_heap_check_adds_one_byte_per_bucket():
    # Room for fewer nodes than keys: the check pass tracks occupied
    # buckets in a bitmap, and the build still fits.
    num_keys = 64 * RUN
    index, keys, payloads = _kernel(num_keys, capacity=num_keys - 1)
    with mock.patch.object(hashtable, "_BUILD_RUN", RUN):
        peak = _build_peak(index, keys, payloads)
    assert peak < SCRATCH_PER_RUN_KEY * RUN + index.num_buckets
    assert index.num_keys == num_keys


def test_no_view_of_the_store_outlives_a_build():
    index, keys, payloads = _kernel(4 * RUN)
    with mock.patch.object(hashtable, "_BUILD_RUN", RUN):
        index.build(keys, payloads)
    index.memory._store.close()   # BufferError while a view is exported


@pytest.mark.parametrize("failure", ["sentinel", "heap"])
def test_no_view_of_the_store_outlives_a_failed_build(failure):
    num_keys = 4 * RUN
    if failure == "sentinel":
        index, keys, payloads = _kernel(num_keys)
        keys[-1] = KERNEL_LAYOUT.empty_sentinel
        error = ValueError
    else:
        index, keys, payloads = _kernel(num_keys, capacity=RUN)
        error = PlanError
    with mock.patch.object(hashtable, "_BUILD_RUN", RUN):
        with pytest.raises(error):
            index.build(keys, payloads)
    assert index.num_keys == 0
    index.memory._store.close()
