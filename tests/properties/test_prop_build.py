"""Property-based tests: the array build equals a per-key insert loop.

``HashIndex.build`` lays an index out with numpy; ``HashIndex.insert`` is
the one-key-at-a-time reference.  Built from the same (key, payload)
stream they must leave byte-identical simulated memory, equal statistics
and equal probe results — and on bad input raise the same exception
type, with ``build`` writing nothing at all.  ``build`` is handed the
stream as a list or as a ``uint64``, ``int32`` or ``int64`` array
(negative payloads included, as the kernel's ``np.arange`` payloads are
signed); the insert loop gets the same values as Python ints.
"""

import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.db import hashtable
from repro.db.column import Column
from repro.db.hashfn import (KERNEL_HASH, MASK64, ROBUST_HASH_32,
                             ROBUST_HASH_64, HashSpec, HashStep)
from repro.db.hashtable import HashIndex
from repro.db.node import KERNEL_LAYOUT, WIDE_LAYOUT, monetdb_layout
from repro.db.types import DataType
from repro.mem.layout import AddressSpace

LAYOUTS = [KERNEL_LAYOUT, WIDE_LAYOUT, monetdb_layout(4), monetdb_layout(8)]
HASHES = [KERNEL_HASH, ROBUST_HASH_32, ROBUST_HASH_64]
#: How ``build`` receives keys or payloads: a list or a numpy dtype.
KINDS = ["list", "uint64", "int32", "int64"]
SIGNED = ("int32", "int64")


def _bounds(kind, low, high):
    """``[low, high]`` narrowed to what ``kind`` can hold."""
    if kind == "list":
        return low, high
    info = np.iinfo(kind)
    return max(low, int(info.min)), min(high, int(info.max))


def _typed(values, kind):
    """``values`` as ``kind``; a list where a value does not fit it."""
    low, high = _bounds(kind, -(1 << 64), 1 << 64)
    if kind == "list" or not all(low <= value <= high for value in values):
        return list(values)
    return np.array(values, dtype=kind)


def _index(layout, hash_spec, num_buckets, capacity, column_keys):
    """A fresh index; indirect layouts get their base column first."""
    space = AddressSpace()
    column = None
    if layout.indirect:
        column = Column("base", DataType.for_key_bytes(layout.key_bytes),
                        column_keys)
        column.materialize(space)
    return HashIndex(space, layout, num_buckets, hash_spec,
                     capacity=capacity, key_column=column)


def _digest(index):
    memory = index.memory
    return hashlib.sha1(memory.read_bytes(
        memory._base, memory.allocated_bytes)).hexdigest()


def _state(index, probe_keys):
    return (_digest(index), index.stats(), index.footprint_bytes,
            index._overflow_nodes, index.num_keys,
            [index.probe(key) for key in probe_keys])


@st.composite
def workloads(draw):
    """A layout, hash, table size and (key, payload) stream for it.

    Keys come from a small pool so duplicates are common; 1-4 buckets
    make every chain deep.  Indirect layouts store row ids: the stream
    is a permutation of some of the base column's rows.  Values fit the
    drawn key and payload kinds; signed payloads go negative.
    """
    layout = draw(st.sampled_from(LAYOUTS))
    hash_spec = draw(st.sampled_from(HASHES))
    num_buckets = draw(st.sampled_from([1, 2, 4, 16, 256]))
    kinds = draw(st.sampled_from(KINDS)), draw(st.sampled_from(KINDS))
    _, top = _bounds(kinds[0], 0, (1 << (8 * layout.key_bytes)) - 2)
    pool = draw(st.lists(st.integers(0, top), min_size=1, max_size=8))
    keys = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=80))
    if layout.indirect:
        rows = draw(st.permutations(range(len(keys))))
        column_keys = [0] * len(keys)
        for key, row in zip(keys, rows):
            column_keys[row] = key
        payloads = list(rows)
    else:
        column_keys = None
        low = -(1 << 63) if kinds[1] in SIGNED else 0
        payloads = draw(st.lists(
            st.integers(*_bounds(kinds[1], low, (1 << 64) - 1)),
            min_size=len(keys), max_size=len(keys)))
    run = draw(st.sampled_from([1, 3, 1 << 16]))
    return (layout, hash_spec, num_buckets, keys, payloads, column_keys,
            run, kinds)


@settings(max_examples=150, deadline=None)
@given(case=workloads(), split=st.floats(0.0, 1.0))
def test_build_equals_insert_loop(case, split):
    (layout, hash_spec, num_buckets, keys, payloads, column_keys, run,
     kinds) = case
    reference = _index(layout, hash_spec, num_buckets, len(keys),
                       column_keys)
    for key, payload in zip(keys, payloads):
        reference.insert(key, payload)
    built = _index(layout, hash_spec, num_buckets, len(keys), column_keys)
    # Part of the stream inserted first: build must extend existing
    # chains exactly as further inserts would.
    head = int(split * len(keys))
    for key, payload in zip(keys[:head], payloads[:head]):
        built.insert(key, payload)
    with mock.patch.object(hashtable, "_BUILD_RUN", run):
        built.build(_typed(keys[head:], kinds[0]),
                    _typed(payloads[head:], kinds[1]))
    probes = sorted(set(keys)) + [max(keys) + 1]
    assert _state(built, probes) == _state(reference, probes)


def _first_error(index, keys, payloads):
    try:
        for key, payload in zip(keys, payloads):
            index.insert(key, payload)
    except Exception as error:   # noqa: BLE001 - compared by type below
        return type(error)
    return None


@settings(max_examples=120, deadline=None)
@given(case=workloads(), capacity=st.integers(1, 80),
       poison=st.integers(0, 79), kind=st.sampled_from(
           ["sentinel", "wide", "row", "wrong-key", "negative", "none"]))
def test_build_raises_what_insert_raises_and_writes_nothing(
        case, capacity, poison, kind):
    (layout, hash_spec, num_buckets, keys, payloads, column_keys, run,
     kinds) = case
    keys, payloads = list(keys), list(payloads)
    at = poison % len(keys)
    if kind == "sentinel" and not layout.indirect:
        keys[at] = layout.empty_sentinel
    elif kind == "wide" and layout is KERNEL_LAYOUT:
        keys[at] = 1 << (8 * layout.key_bytes)
    elif kind == "row" and layout.indirect:
        payloads[at] = len(keys) + at
    elif kind == "wrong-key" and layout.indirect:
        keys[at] = column_keys[payloads[at]] ^ 1
    elif kind == "negative":
        # Signed arrays only (a list with a negative raises OverflowError
        # in build).  A negative key or row id fails both ways.
        if kinds[0] in SIGNED:
            keys[at] = -1 - poison
        if layout.indirect and kinds[1] in SIGNED:
            payloads[at] = -1 - poison
    reference = _index(layout, hash_spec, num_buckets, capacity,
                       column_keys)
    expected = _first_error(reference, keys, payloads)
    built = _index(layout, hash_spec, num_buckets, capacity, column_keys)
    before = _state(built, [])
    with mock.patch.object(hashtable, "_BUILD_RUN", run):
        typed = _typed(keys, kinds[0]), _typed(payloads, kinds[1])
        if expected is None:
            built.build(*typed)
            assert _state(built, keys) == _state(reference, keys)
        else:
            with pytest.raises(expected):
                built.build(*typed)
            assert _state(built, []) == before


@settings(max_examples=100, deadline=None)
@given(buckets=st.lists(st.integers(0, 255), min_size=1, max_size=300))
def test_composite_key_sort_is_the_stable_bucket_order(buckets):
    index = _index(KERNEL_LAYOUT, KERNEL_HASH, 256, 1, None)
    bucket = np.array(buckets, dtype=np.int32)
    order, grouped = index._group(bucket)
    stable = np.argsort(bucket, kind="stable")
    assert order.tolist() == stable.tolist()
    assert grouped.tolist() == bucket[stable].tolist()


def test_composite_key_past_int64_is_refused():
    index = _index(KERNEL_LAYOUT, KERNEL_HASH, 256, 1, None)
    index.num_buckets = 1 << 62   # 62 bucket bits + a 3-key run's 2
    with pytest.raises(AssertionError, match="overflow int64"):
        index._group(np.array([2, 1, 0], dtype=np.int32))


@pytest.mark.parametrize("layout", [KERNEL_LAYOUT, WIDE_LAYOUT])
@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_build_rejects_negative_keys_like_insert(layout, dtype):
    # Wrapped to uint64, -2 would be a valid 8-byte key.
    reference = _index(layout, KERNEL_HASH, 4, 4, None)
    with pytest.raises(ValueError):
        reference.insert(-2, 1)
    built = _index(layout, KERNEL_HASH, 4, 4, None)
    before = _state(built, [])
    with pytest.raises(ValueError, match="key -2 does not fit"):
        built.build(np.array([5, -2], dtype=dtype), np.array([1, 2]))
    assert _state(built, []) == before


def test_build_rejects_mismatched_lengths():
    index = _index(KERNEL_LAYOUT, KERNEL_HASH, 4, 4, None)
    with pytest.raises(ValueError):
        index.build([1, 2], [1])


# ----------------------------------------------------------------------
# The vectorized hash against the scalar one
# ----------------------------------------------------------------------

#: Values where uint64 shifts, adds and subtracts wrap.
EDGES = [0, 1, 2, (1 << 31) - 1, 1 << 31, (1 << 32) - 1, 1 << 32,
         (1 << 63) - 1, 1 << 63, MASK64 - 1, MASK64]

steps = st.one_of(
    st.builds(HashStep, st.sampled_from(
        ["xor_shl", "xor_shr", "add_shl", "sub_shl", "shr", "shl"]),
        st.integers(1, 63)),
    st.builds(HashStep, st.sampled_from(
        ["and_const", "xor_const", "add_const"]), st.just(0),
        st.sampled_from([1, 0xB16, 1 << 63, MASK64 - 1, MASK64])
        | st.integers(1, MASK64)),
)


@settings(max_examples=200, deadline=None)
@given(pipeline=st.lists(steps, min_size=1, max_size=6),
       keys=st.lists(st.sampled_from(EDGES) | st.integers(0, MASK64),
                     min_size=1, max_size=40),
       bucket_bits=st.integers(0, 40))
def test_vectorized_hash_equals_scalar(pipeline, keys, bucket_bits):
    spec = HashSpec("prop", tuple(pipeline))
    num_buckets = 1 << bucket_bits
    vectorized = spec.buckets_of(np.array(keys, dtype=np.uint64),
                                 num_buckets)
    assert vectorized.tolist() == [spec.bucket_of(key, num_buckets)
                                   for key in keys]


@pytest.mark.parametrize("spec", HASHES + [
    HashSpec("every-kind", tuple(
        HashStep(kind, amount, const) for kind, amount, const in [
            ("xor_shl", 63, 0), ("xor_shr", 1, 0), ("add_shl", 62, 0),
            ("sub_shl", 33, 0), ("and_const", 0, MASK64 - 1),
            ("xor_const", 0, 1 << 63), ("add_const", 0, MASK64),
            ("shr", 7, 0), ("shl", 57, 0)]))])
def test_vectorized_hash_at_wraparound_edges(spec):
    keys = np.array(EDGES, dtype=np.uint64)
    assert spec.buckets_of(keys, 1 << 24).tolist() == [
        spec.bucket_of(key, 1 << 24) for key in EDGES]
