"""Tests for the OoO and in-order core timing models."""

import pytest

from repro.config import DEFAULT_CONFIG
from repro.cpu.inorder import InOrderCore
from repro.cpu.ooo import OutOfOrderCore
from repro.cpu.uops import Uop, UopKind
from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.layout import AddressSpace


def fresh(core_kind, **kwargs):
    memory = MemoryHierarchy(DEFAULT_CONFIG)
    if core_kind == "ooo":
        return OutOfOrderCore(DEFAULT_CONFIG.ooo, memory, **kwargs), memory
    return InOrderCore(DEFAULT_CONFIG.inorder, memory, **kwargs), memory


def region_addrs(n, stride=64):
    space = AddressSpace()
    region = space.allocate("blob", n * stride + 64)
    return [region.base + i * stride for i in range(n)]


class TestOoO:
    def test_alu_throughput_is_issue_width(self):
        core, _ = fresh("ooo")
        core.execute([Uop(UopKind.ALU) for _ in range(400)])
        # 4-wide: 400 independent ALU ops take ~100 cycles.
        assert core.completion_time == pytest.approx(100, abs=5)

    def test_dependent_chain_serializes(self):
        core, _ = fresh("ooo")
        core.execute([Uop(UopKind.ALU, deps=(1,) if i else ())
                      for i in range(100)])
        assert core.completion_time >= 100

    def test_independent_misses_overlap(self):
        core, memory = fresh("ooo")
        addrs = region_addrs(8)
        for a in addrs:
            memory.tlb.warm(a)
        core.execute([Uop(UopKind.LOAD, addr=a) for a in addrs])
        serial = 8 * 100
        assert core.completion_time < serial / 3

    def test_rob_limits_overlap(self):
        wide, memory_a = fresh("ooo")
        addrs = region_addrs(64)
        trace = []
        for a in addrs:
            trace.append(Uop(UopKind.LOAD, addr=a))
            trace.extend(Uop(UopKind.ALU) for _ in range(63))
        wide.execute(trace)
        # 64 uops per load and a 128-entry ROB: at most ~2 loads in flight.
        from repro.config import CoreConfig
        tiny_rob = CoreConfig(name="ooo", issue_width=4, rob_entries=16,
                              out_of_order=True)
        memory_b = MemoryHierarchy(DEFAULT_CONFIG)
        narrow = OutOfOrderCore(tiny_rob, memory_b)
        narrow.execute(trace)
        assert narrow.completion_time > wide.completion_time

    def test_mispredict_stalls_frontend(self):
        clean, _ = fresh("ooo")
        dirty, _ = fresh("ooo")
        base_trace = [Uop(UopKind.ALU) for _ in range(50)]
        clean.execute(base_trace + [Uop(UopKind.BRANCH)] + base_trace)
        dirty.execute(base_trace + [Uop(UopKind.BRANCH, mispredict=True)]
                      + base_trace)
        assert (dirty.completion_time
                >= clean.completion_time + dirty.mispredict_penalty - 1)

    def test_store_latency_hidden(self):
        core, _ = fresh("ooo")
        addr = region_addrs(1)[0]
        core.execute([Uop(UopKind.STORE, addr=addr)])
        assert core.completion_time < 10

    def test_tlb_trap_serializes(self):
        core, memory = fresh("ooo")
        addrs = region_addrs(2, stride=DEFAULT_CONFIG.tlb.page_bytes)
        core.execute([Uop(UopKind.LOAD, addr=a) for a in addrs])
        # Each TLB miss traps on the core: walk + trap handler serialize.
        assert core.tlb_stall_cycles > 0
        assert core.completion_time > 2 * DEFAULT_CONFIG.tlb.trap_cycles

    def test_rejects_inorder_config(self):
        memory = MemoryHierarchy(DEFAULT_CONFIG)
        with pytest.raises(ValueError):
            OutOfOrderCore(DEFAULT_CONFIG.inorder, memory)


class TestInOrder:
    def test_alu_throughput_is_two_wide(self):
        core, _ = fresh("inorder")
        core.execute([Uop(UopKind.ALU) for _ in range(200)])
        assert core.completion_time == pytest.approx(100, abs=5)

    def test_miss_blocks_pipeline(self):
        core, memory = fresh("inorder")
        addrs = region_addrs(4)
        for a in addrs:
            memory.tlb.warm(a)
        core.execute([Uop(UopKind.LOAD, addr=a) for a in addrs])
        # No overlap: four serial DRAM accesses.
        assert core.completion_time > 4 * 90

    def test_one_memory_op_per_cycle(self):
        core, memory = fresh("inorder")
        addr = region_addrs(1)[0]
        memory.warm_block(addr, "l1")
        core.execute([Uop(UopKind.LOAD, addr=addr) for _ in range(10)])
        assert core.completion_time >= 10  # not 5, despite 2-wide issue

    def test_rejects_ooo_config(self):
        memory = MemoryHierarchy(DEFAULT_CONFIG)
        with pytest.raises(ValueError):
            InOrderCore(DEFAULT_CONFIG.ooo, memory)

    def test_slower_than_ooo_on_independent_misses(self):
        trace_addrs = region_addrs(16)
        ooo, memory_a = fresh("ooo")
        ino, memory_b = fresh("inorder")
        for a in trace_addrs:
            memory_a.tlb.warm(a)
            memory_b.tlb.warm(a)
        trace = [Uop(UopKind.LOAD, addr=a) for a in trace_addrs]
        ooo.execute(trace)
        ino.execute(trace)
        assert ino.completion_time > 2 * ooo.completion_time


def test_uop_validation():
    with pytest.raises(ValueError):
        Uop(UopKind.LOAD, addr=0)
    with pytest.raises(ValueError):
        Uop(UopKind.ALU, latency=0)


@pytest.mark.parametrize("core_kind", ["ooo", "inorder"])
class TestForeignDeps:
    """A dep counts back to an earlier uop of the same execute call."""

    def test_zero_dep_rejected(self, core_kind):
        core, _ = fresh(core_kind)
        with pytest.raises(ValueError, match="uop 1 of its trace .* not an "
                                             "earlier uop"):
            core.execute([Uop(UopKind.ALU), Uop(UopKind.ALU, deps=(0,))])

    def test_negative_dep_rejected(self, core_kind):
        core, _ = fresh(core_kind)
        with pytest.raises(ValueError, match="uop 2 of its trace .* not an "
                                             "earlier uop"):
            core.execute([Uop(UopKind.ALU), Uop(UopKind.ALU),
                           Uop(UopKind.ALU, deps=(-1,))])

    def test_dep_before_the_first_uop_rejected(self, core_kind):
        core, _ = fresh(core_kind)
        with pytest.raises(ValueError, match="uop 2 of its trace .* not an "
                                             "earlier uop"):
            core.execute([Uop(UopKind.ALU), Uop(UopKind.ALU),
                           Uop(UopKind.ALU, deps=(3,))])

    def test_first_uop_dep_rejected(self, core_kind):
        core, _ = fresh(core_kind)
        with pytest.raises(ValueError, match="uop 0 of its trace .* not an "
                                             "earlier uop"):
            core.execute([Uop(UopKind.ALU, deps=(1,)), Uop(UopKind.ALU)])

    def test_previous_call_dep_rejected(self, core_kind):
        core, _ = fresh(core_kind)
        core.execute([Uop(UopKind.ALU), Uop(UopKind.ALU, deps=(1,))])
        with pytest.raises(ValueError, match="uop 0 of its trace .* not an "
                                             "earlier uop"):
            core.execute([Uop(UopKind.ALU, deps=(1,))])

    def test_dep_on_exactly_the_first_uop_accepted(self, core_kind):
        times = {}
        for deps in ((), (2,)):
            core, _ = fresh(core_kind)
            core.execute([Uop(UopKind.ALU) for _ in range(3)])
            core.execute([Uop(UopKind.ALU, latency=20), Uop(UopKind.ALU),
                          Uop(UopKind.ALU, deps=deps)])
            assert core.uops_executed == 6
            times[deps] = core.completion_time
        # The last uop waits for the call's first one (20 cycles) and
        # finishes a cycle after it.
        assert times[(2,)] == times[()] + 1
