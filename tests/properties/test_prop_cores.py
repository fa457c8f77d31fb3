"""Property-based tests: the core models against their streaming originals.

``OutOfOrderCore.execute`` and ``InOrderCore.execute`` are single loops
that keep only the current trace's completion times (plus, for the OoO
model, a ring of the last ``rob_entries`` retire horizons) and sum the
stall counters in locals.  The reference classes below are the earlier
formulation, kept verbatim apart from their names: they record every
completion time and every retire horizon of the whole stream and add to
the counters uop by uop.

Hypothesis builds self-contained traces — every dep names an earlier uop
of the same trace — over all four uop kinds, ALU latencies 1-20 and
mispredicted branches, with addresses spread over more pages than the
TLB maps and more blocks than the caches hold.  Each trace is fed to both
formulations as several consecutive ``execute`` calls on a fresh memory
hierarchy: to the models with deps counted back within the trace, to the
references (which predate that encoding) with the same deps as absolute
stream positions.  After every call the completion times must be equal,
and at the end every counter and the whole memory registry must match.
"""

import json
from collections import deque
from dataclasses import replace
from typing import Deque, Iterable, List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import DEFAULT_CONFIG, CacheConfig, CoreConfig
from repro.cpu.inorder import InOrderCore
from repro.cpu.ooo import OutOfOrderCore
from repro.cpu.uops import Uop, UopKind
from repro.mem.hierarchy import MemoryHierarchy
from repro.obs import Counter, StatsRegistry


class ReferenceOutOfOrderCore:
    """Streaming OoO timing model; feed uops, read back cycle counts."""

    def __init__(self, config: CoreConfig, memory: MemoryHierarchy,
                 mispredict_penalty: int = 20) -> None:
        if not config.out_of_order:
            raise ValueError("use InOrderCore for in-order configs")
        self.config = config
        self.memory = memory
        self.mispredict_penalty = mispredict_penalty
        self._done: Deque[float] = deque(maxlen=config.rob_entries)
        self._done_positions: Deque[int] = deque(maxlen=config.rob_entries)
        self._all_done: List[float] = []   # completion time per stream position
        self._horizons: List[float] = []   # running max of completion times
        self._position = 0
        self._dispatch_time = 0.0
        self._dispatched_this_cycle = 0
        self._frontend_stall_until = 0.0
        self._retire_horizon = 0.0
        self.uops_executed = Counter()
        self.loads_issued = Counter()
        self.mem_stall_cycles = Counter(0.0)
        self.tlb_stall_cycles = Counter(0.0)

    @property
    def now(self) -> float:
        return self._dispatch_time

    def register_into(self, registry, prefix: str) -> None:
        """Publish per-op execution counters under ``prefix``."""
        registry.register(f"{prefix}.uops_executed", self.uops_executed)
        registry.register(f"{prefix}.loads_issued", self.loads_issued)
        registry.register(f"{prefix}.mem_stall_cycles", self.mem_stall_cycles)
        registry.register(f"{prefix}.tlb_stall_cycles", self.tlb_stall_cycles)

    def _dispatch_slot(self) -> float:
        """Advance the front end by one dispatch slot; returns its time."""
        if self._dispatch_time < self._frontend_stall_until:
            self._dispatch_time = self._frontend_stall_until
            self._dispatched_this_cycle = 0
        if self._dispatched_this_cycle >= self.config.issue_width:
            self._dispatch_time += 1.0
            self._dispatched_this_cycle = 0
        self._dispatched_this_cycle += 1
        return self._dispatch_time

    def _rob_gate(self, dispatch: float) -> float:
        """Dispatch cannot pass retirement of the uop ROB-size earlier."""
        if len(self._all_done) >= self.config.rob_entries:
            oldest = self._all_done[len(self._all_done) - self.config.rob_entries]
            # In-order retirement: the oldest entry retires no earlier than
            # every older uop's completion (tracked via a running horizon).
            gate = max(oldest, self._retire_horizon_at(
                len(self._all_done) - self.config.rob_entries))
            if gate > dispatch:
                self._dispatch_time = gate
                self._dispatched_this_cycle = 1
                return gate
        return dispatch

    def _retire_horizon_at(self, position: int) -> float:
        # The running max of completion times up to `position` approximates
        # the in-order retire time of that entry.  We maintain it lazily.
        return self._horizons[position]

    def execute(self, uops: Iterable[Uop]) -> None:
        """Execute a stream of uops (may be called repeatedly)."""
        horizon = self._horizons[-1] if self._horizons else 0.0
        for uop in uops:
            dispatch = self._dispatch_slot()
            dispatch = self._rob_gate(dispatch)
            ready = dispatch
            for dep in uop.deps:
                if 0 <= dep < len(self._all_done):
                    done = self._all_done[dep]
                    if done > ready:
                        ready = done
            if uop.kind is UopKind.LOAD:
                result = self.memory.load(uop.addr, ready)
                done = result.complete
                if result.tlb_stall > 0:
                    # Software-walked TLB: the miss traps to a handler on
                    # this core — flush, handle, replay.  Serializes the
                    # window (Widx instead stalls only the faulting unit).
                    done += self.memory.cfg.tlb.trap_cycles
                    self._frontend_stall_until = max(
                        self._frontend_stall_until, done)
                self.loads_issued += 1
                self.mem_stall_cycles += max(0.0, done - ready - 1.0)
                self.tlb_stall_cycles += result.tlb_stall
            elif uop.kind is UopKind.STORE:
                # Stores retire through a store buffer; latency is hidden.
                self.memory.store(uop.addr, ready)
                done = ready + 1.0
            else:
                done = ready + uop.latency
            if uop.kind is UopKind.BRANCH and uop.mispredict:
                self._frontend_stall_until = max(
                    self._frontend_stall_until, done + self.mispredict_penalty)
            self._all_done.append(done)
            horizon = max(horizon, done)
            self._horizons.append(horizon)
            self._position += 1
            self.uops_executed += 1

    @property
    def completion_time(self) -> float:
        """Cycle at which every executed uop has retired."""
        return self._horizons[-1] if getattr(self, "_horizons", None) else 0.0


class ReferenceInOrderCore:
    """Streaming in-order timing model."""

    def __init__(self, config: CoreConfig, memory: MemoryHierarchy,
                 mispredict_penalty: int = 13,
                 load_use_penalty: int = 1) -> None:
        if config.out_of_order:
            raise ValueError("use OutOfOrderCore for OoO configs")
        self.config = config
        self.memory = memory
        self.mispredict_penalty = mispredict_penalty
        self.load_use_penalty = load_use_penalty
        self._last_mem_issue = -1.0
        self._all_done: List[float] = []
        self._issue_time = 0.0
        self._issued_this_cycle = 0
        self._last_miss_done = 0.0
        self.uops_executed = Counter()
        self.loads_issued = Counter()
        self.mem_stall_cycles = Counter(0.0)
        self.tlb_stall_cycles = Counter(0.0)
        self._completion = 0.0

    def register_into(self, registry, prefix: str) -> None:
        """Publish per-op execution counters under ``prefix``."""
        registry.register(f"{prefix}.uops_executed", self.uops_executed)
        registry.register(f"{prefix}.loads_issued", self.loads_issued)
        registry.register(f"{prefix}.mem_stall_cycles", self.mem_stall_cycles)
        registry.register(f"{prefix}.tlb_stall_cycles", self.tlb_stall_cycles)

    def _issue_slot(self) -> float:
        if self._issued_this_cycle >= self.config.issue_width:
            self._issue_time += 1.0
            self._issued_this_cycle = 0
        self._issued_this_cycle += 1
        return self._issue_time

    def execute(self, uops: Iterable[Uop]) -> None:
        """Execute a stream of uops (may be called repeatedly)."""
        for uop in uops:
            issue = self._issue_slot()
            ready = issue
            # In-order issue stalls until producers complete.
            for dep in uop.deps:
                if 0 <= dep < len(self._all_done):
                    done = self._all_done[dep]
                    if done > ready:
                        ready = done
            if ready > self._issue_time:
                # The pipeline stalled; later uops cannot issue earlier.
                self._issue_time = ready
                self._issued_this_cycle = 1
            if uop.kind in (UopKind.LOAD, UopKind.STORE):
                # Only one of the two issue slots handles memory ops.
                if ready <= self._last_mem_issue:
                    ready = self._last_mem_issue + 1.0
                    if ready > self._issue_time:
                        self._issue_time = ready
                        self._issued_this_cycle = 1
                self._last_mem_issue = ready
            if uop.kind is UopKind.LOAD:
                start = ready
                # Single outstanding miss: a load that misses the L1 waits
                # for the previous miss to complete.  We conservatively
                # apply the gate before knowing hit/miss only when the block
                # is not L1-resident.
                block = self.memory.l1d.block_of(uop.addr)
                if not self.memory.l1d.array.present(block):
                    start = max(start, self._last_miss_done)
                result = self.memory.load(uop.addr, start)
                done = result.complete + self.load_use_penalty
                if result.tlb_stall > 0:
                    # Software TLB-miss trap runs on the core (see ooo.py).
                    done += self.memory.cfg.tlb.trap_cycles
                    self._issue_time = max(self._issue_time, done)
                    self._issued_this_cycle = 0
                if result.level != "L1":
                    # A8-style blocking miss: the pipeline stalls until the
                    # fill returns; no hit-under-miss, no miss-under-miss.
                    self._last_miss_done = done
                    self._issue_time = max(self._issue_time, done)
                    self._issued_this_cycle = 0
                self.loads_issued += 1
                self.mem_stall_cycles += max(0.0, done - ready - 1.0)
                self.tlb_stall_cycles += result.tlb_stall
            elif uop.kind is UopKind.STORE:
                self.memory.store(uop.addr, ready)
                done = ready + 1.0
            else:
                done = ready + uop.latency
            if uop.kind is UopKind.BRANCH and uop.mispredict:
                stall_until = done + self.mispredict_penalty
                if stall_until > self._issue_time:
                    self._issue_time = stall_until
                    self._issued_this_cycle = 0
            self._all_done.append(done)
            if done > self._completion:
                self._completion = done
            self.uops_executed += 1

    @property
    def completion_time(self) -> float:
        return self._completion


# -- memory and traces --------------------------------------------------

#: Small caches and TLB so short traces miss everywhere: 8 L1 blocks,
#: 64 LLC blocks, 4 TLB entries of 4 KB pages.
SMALL = replace(
    DEFAULT_CONFIG,
    l1d=CacheConfig(size_bytes=4 * 2 * 64, block_bytes=64, associativity=2),
    llc=CacheConfig(size_bytes=16 * 4 * 64, block_bytes=64, associativity=4),
    tlb=replace(DEFAULT_CONFIG.tlb, entries=4, page_bytes=4096))

#: 32 pages x 8 blocks: more pages than the TLB maps, more blocks than
#: the LLC holds, and few enough that blocks recur while still in flight.
REGION_BASE = 1 << 24
PAGES = 32
BLOCKS_PER_PAGE = 8

#: name -> (core config, model, streaming reference).
CORES = {
    "ooo-16": (replace(DEFAULT_CONFIG.ooo, rob_entries=16),
               OutOfOrderCore, ReferenceOutOfOrderCore),
    "ooo-128": (DEFAULT_CONFIG.ooo, OutOfOrderCore, ReferenceOutOfOrderCore),
    "inorder": (DEFAULT_CONFIG.inorder, InOrderCore, ReferenceInOrderCore),
}


def address(page: int, block: int, offset: int) -> int:
    return (REGION_BASE + page * SMALL.tlb.page_bytes + block * 64
            + offset * 8)


@st.composite
def uop_specs(draw, earlier: int):
    """One uop whose deps name some of the ``earlier`` uops of its trace."""
    kind = draw(st.sampled_from(list(UopKind)))
    deps = tuple(draw(st.lists(st.integers(0, earlier - 1), max_size=3))
                 if earlier else ())
    addr = 0
    if kind in (UopKind.LOAD, UopKind.STORE):
        addr = address(draw(st.integers(0, PAGES - 1)),
                       draw(st.integers(0, BLOCKS_PER_PAGE - 1)),
                       draw(st.integers(0, 7)))
    latency = draw(st.integers(1, 20)) if kind is UopKind.ALU else 1
    mispredict = kind is UopKind.BRANCH and draw(st.booleans())
    return kind, addr, deps, latency, mispredict


@st.composite
def traces(draw, min_uops: int):
    """Consecutive traces of at least ``min_uops`` uops in all, each as a
    ``(model trace, reference trace)`` pair of the same uops: deps count
    back within the trace in the first, and are absolute stream
    positions inside their own trace in the second."""
    stream: List[Tuple[List[Uop], List[Uop]]] = []
    base = 0
    while base < min_uops or len(stream) < 3:
        length = draw(st.integers(1, 80))
        trace, reference = [], []
        for local in range(length):
            kind, addr, deps, latency, mispredict = draw(uop_specs(local))
            trace.append(Uop(kind, addr=addr,
                             deps=tuple(local - d for d in deps),
                             latency=latency, mispredict=mispredict))
            reference.append(Uop(kind, addr=addr,
                                 deps=tuple(base + d for d in deps),
                                 latency=latency, mispredict=mispredict))
        stream.append((trace, reference))
        base += length
    return stream


def snapshot(model, memory) -> str:
    """The core's counters and the whole memory registry, as sorted JSON
    (so a float differing only in sign or last bit shows)."""
    registry = StatsRegistry()
    model.register_into(registry, "cpu")
    memory.register_into(registry, "mem")
    return json.dumps(registry.to_dict(), sort_keys=True)


def run_both(core: str, stream: List[Tuple[List[Uop], List[Uop]]]):
    config, model_cls, reference_cls = CORES[core]
    memory, reference_memory = MemoryHierarchy(SMALL), MemoryHierarchy(SMALL)
    model = model_cls(config, memory)
    reference = reference_cls(config, reference_memory)
    for number, (trace, reference_trace) in enumerate(stream):
        model.execute(trace)
        reference.execute(reference_trace)
        assert (repr(model.completion_time)
                == repr(reference.completion_time)), number
    return (model, memory), (reference, reference_memory)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), core=st.sampled_from(sorted(CORES)))
def test_core_matches_streaming_reference(data, core):
    stream = data.draw(traces(min_uops=CORES[core][0].rob_entries + 40))
    (model, memory), (reference, reference_memory) = run_both(core, stream)
    assert snapshot(model, memory) == snapshot(reference, reference_memory)
    for name in ("uops_executed", "loads_issued", "mem_stall_cycles",
                 "tlb_stall_cycles"):
        assert (repr(getattr(model, name).value)
                == repr(getattr(reference, name).value)), name


@pytest.mark.parametrize("core", sorted(CORES))
def test_trace_space_reaches_every_memory_outcome(core):
    """The generated address space exercises TLB traps, L1 and LLC
    misses, and a load merging with an in-flight store miss."""
    store_then_load = [Uop(UopKind.STORE, addr=address(0, 0, 0)),
                       Uop(UopKind.LOAD, addr=address(0, 0, 1))]
    sweep = [Uop(UopKind.LOAD, addr=address(page, block, 0))
             for page in range(PAGES) for block in range(BLOCKS_PER_PAGE)]
    (model, memory), _ = run_both(
        core, [(trace, trace) for trace in (store_then_load, sweep, sweep)])
    stats = json.loads(snapshot(model, memory))
    assert model.tlb_stall_cycles.value > 0
    assert stats["mem.l1d.misses"]["value"] > 0
    assert stats["mem.llc.misses"]["value"] > 0
    assert stats["mem.l1d.combined_misses"]["value"] > 0
