"""Tests for the probe-trace generator."""

import pytest

from repro.cpu.trace import HOST_OPS_PER_HASH_STEP, ProbeTraceGenerator
from repro.cpu.uops import UopKind
from tests.conftest import (build_direct_index, build_indirect_index,
                            materialized_probe_column)


def make_generator(space, indirect=False, **probe_kwargs):
    if indirect:
        index, keys, truth = build_indirect_index(space)
    else:
        index, keys, truth = build_direct_index(space)
    column = materialized_probe_column(space, keys, **probe_kwargs)
    return index, column, ProbeTraceGenerator(index, column)


def test_trace_has_key_load_first(space):
    index, column, generator = make_generator(space)
    uops = generator.probe_uops(0)
    assert uops[0].kind is UopKind.LOAD
    assert uops[0].addr == column.address_of(0)


def test_hash_chain_is_serial(space):
    index, column, generator = make_generator(space)
    uops = generator.probe_uops(0)
    steps = index.hash_spec.compute_cycles * HOST_OPS_PER_HASH_STEP
    hash_uops = uops[1:1 + steps]
    assert all(u.kind is UopKind.ALU for u in hash_uops)
    for uop in hash_uops:
        assert uop.deps == (1,), "each hash op depends on its predecessor"


def test_node_loads_use_real_addresses(space):
    index, column, generator = make_generator(space)
    key = int(column.values[0])
    chain = list(index.walk_chain(key))
    uops = generator.probe_uops(0)
    load_addrs = {u.addr for u in uops if u.kind is UopKind.LOAD}
    for node in chain:
        assert node + index.layout.key_offset in load_addrs
        assert node + index.layout.next_offset in load_addrs


def test_pointer_chase_is_dependent(space):
    index, column, generator = make_generator(space)
    # Find a probe whose chain has >= 2 nodes.
    for row in range(len(column.values)):
        key = int(column.values[row])
        chain = list(index.walk_chain(key))
        if len(chain) >= 2:
            break
    else:
        pytest.skip("no multi-node chain in sample")
    uops = generator.probe_uops(row)
    next_loads = [i for i, u in enumerate(uops)
                  if u.kind is UopKind.LOAD
                  and any(u.addr == n + index.layout.next_offset
                          for n in chain)]
    # The second node's loads must depend on the first next-pointer load.
    second_node_key_load = [
        i for i, u in enumerate(uops)
        if u.kind is UopKind.LOAD
        and u.addr == chain[1] + index.layout.key_offset][0]
    assert (second_node_key_load - next_loads[0]
            in uops[second_node_key_load].deps)


def test_indirect_trace_has_base_column_load(space):
    index, column, generator = make_generator(space, indirect=True)
    row = 0
    key = int(column.values[row])
    uops = generator.probe_uops(row)
    base = index.key_column.region
    base_loads = [u for u in uops if u.kind is UopKind.LOAD
                  and base.base <= u.addr < base.end]
    assert base_loads, "indirect probes must read the base column"


def test_indirect_trace_is_longer_than_direct(space):
    from repro.mem.layout import AddressSpace
    other = AddressSpace()
    index_d, column_d, gen_d = make_generator(space)
    index_i, column_i, gen_i = make_generator(other, indirect=True)
    direct_len = len(gen_d.probe_uops(0))
    indirect_len = len(gen_i.probe_uops(0))
    assert indirect_len > direct_len  # extra address calc + key load


def test_stream_deps_count_back_within_each_trace(space):
    index, column, generator = make_generator(space, count=20)
    for uops in generator.stream(range(20)):
        for offset, uop in enumerate(uops):
            for dep in uop.deps:
                assert 1 <= dep <= offset, "dep must reach an earlier uop"


def test_mispredict_marks_only_chain_exits(space):
    index, column, generator = make_generator(space, count=50)
    for uops in generator.stream(range(50)):
        mispredicted = [u for u in uops if u.mispredict]
        assert all(u.kind is UopKind.BRANCH for u in mispredicted)
        assert len(mispredicted) <= 1  # at most the exit branch per probe


def test_unmaterialized_probe_column_rejected(space):
    from repro.db.column import Column
    from repro.db.types import DataType
    index, keys, truth = build_direct_index(space)
    loose = Column("loose", DataType.U32, [1, 2, 3])
    with pytest.raises(ValueError):
        ProbeTraceGenerator(index, loose)


def test_empty_bucket_probe_still_reads_header(space):
    index, keys, truth = build_direct_index(space, num_keys=100)
    column = materialized_probe_column(space, keys, count=30,
                                       match_fraction=0.0)
    generator = ProbeTraceGenerator(index, column)
    for row in range(30):
        uops = generator.probe_uops(row)
        loads = [u for u in uops if u.kind is UopKind.LOAD]
        assert len(loads) >= 2  # key stream + at least the header


def test_trace_builder_indices_distances_and_checks():
    from repro.cpu.uops import (ALU_PREV, BRANCH_PREV, LOOP_TAIL, TEST_PREV,
                                TraceBuilder, Uop)
    trace = TraceBuilder()
    key = trace.load(64)
    assert key == 0
    assert trace.alu(key) == 1
    assert trace.run(ALU_PREV * 2) == 3
    assert trace.compare(128, 1, key) == 5
    assert trace.alu(4, key) == 7
    assert trace.run(BRANCH_PREV) == 8
    assert trace.load(192, 5) == 9
    assert trace.mispredicted_branch(1) == 10
    assert trace.run(TEST_PREV) == 12
    assert trace.alu(12, key) == 13
    assert trace.run(LOOP_TAIL) == 15
    assert trace.compare_loaded(9, key, 2) == 19
    assert trace.compare_loaded(9, key, 0) == 19
    assert trace.uops == [
        Uop(UopKind.LOAD, addr=64),
        Uop(UopKind.ALU, deps=(1,)),
        Uop(UopKind.ALU, deps=(1,)),
        Uop(UopKind.ALU, deps=(1,)),
        Uop(UopKind.LOAD, addr=128, deps=(3,)),
        Uop(UopKind.ALU, deps=(1, 5)),
        Uop(UopKind.BRANCH, deps=(1,)),
        Uop(UopKind.ALU, deps=(3, 7)),
        Uop(UopKind.BRANCH, deps=(1,)),
        Uop(UopKind.LOAD, addr=192, deps=(4,)),
        Uop(UopKind.BRANCH, deps=(9,), mispredict=True),
        Uop(UopKind.ALU, deps=(1,)),
        Uop(UopKind.BRANCH, deps=(1,)),
        Uop(UopKind.ALU, deps=(1, 13)),
        Uop(UopKind.ALU),
        Uop(UopKind.BRANCH, deps=(1,)),
        Uop(UopKind.ALU, deps=(7, 16)),
        Uop(UopKind.BRANCH, deps=(1,)),
        Uop(UopKind.ALU, deps=(9, 18)),
        Uop(UopKind.BRANCH, deps=(1,))]
    assert all(type(u) is Uop for u in trace.uops)
    with pytest.raises(ValueError):
        trace.load(0)
    with pytest.raises(ValueError):
        trace.compare(0, 1, key)
    assert len(trace.uops) == 20


def test_shared_runs_are_the_same_uops_in_every_trace(space):
    """Fixed-shape runs are appended as shared constants: the hash chain
    of two probes is the very same uop objects."""
    index, column, generator = make_generator(space, count=2)
    first, second = generator.stream(range(2))
    steps = index.hash_spec.compute_cycles * HOST_OPS_PER_HASH_STEP + 3
    for a, b in zip(first[1:1 + steps], second[1:1 + steps]):
        assert a is b
