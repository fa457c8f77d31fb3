"""The out-of-order baseline core (Xeon-like: 4-wide, 128-entry ROB).

A limited-window dataflow model:

* uops dispatch in program order, ``issue_width`` per cycle, only when a
  ROB entry is free (the entry of the uop ``rob_entries`` earlier must have
  retired);
* a uop executes once its producers are done (dataflow), ALU ops in 1
  cycle, loads through the shared :class:`~repro.mem.MemoryHierarchy`;
* retirement is in order;
* a mispredicted branch squashes the front end: dispatch of younger uops
  resumes ``mispredict_penalty`` cycles after the branch resolves.

This is the standard first-order OoO model: it captures window-limited MLP
(the mechanism the paper credits for the OoO core's 2.2x advantage over
in-order on indexing) without simulating rename/issue queues.
"""

from __future__ import annotations

from typing import Iterable, List

from ..config import CoreConfig
from ..mem.hierarchy import MemoryHierarchy
from ..obs import Counter
from .uops import Uop, UopKind, foreign_dep as _foreign_dep

_LOAD = UopKind.LOAD
_STORE = UopKind.STORE
_BRANCH = UopKind.BRANCH


class OutOfOrderCore:
    """Streaming OoO timing model; feed uops, read back cycle counts."""

    def __init__(self, config: CoreConfig, memory: MemoryHierarchy,
                 mispredict_penalty: int = 20) -> None:
        if not config.out_of_order:
            raise ValueError("use InOrderCore for in-order configs")
        self.config = config
        self.memory = memory
        self.mispredict_penalty = mispredict_penalty
        self._dispatch_time = 0.0
        self._dispatched_this_cycle = 0
        self._frontend_stall_until = 0.0
        # Retire horizon (running max of completion times) of the last
        # ``rob_entries`` uops; ``_slot`` is the next uop's entry.  0.0
        # until the ROB has filled once, so the gate is a no-op.
        self._ring = [0.0] * config.rob_entries
        self._slot = 0
        self._horizon = 0.0
        self.uops_executed = Counter()
        self.loads_issued = Counter()
        self.mem_stall_cycles = Counter(0.0)
        self.tlb_stall_cycles = Counter(0.0)

    def register_into(self, registry, prefix: str) -> None:
        """Publish per-op execution counters under ``prefix``."""
        registry.register(f"{prefix}.uops_executed", self.uops_executed)
        registry.register(f"{prefix}.loads_issued", self.loads_issued)
        registry.register(f"{prefix}.mem_stall_cycles", self.mem_stall_cycles)
        registry.register(f"{prefix}.tlb_stall_cycles", self.tlb_stall_cycles)

    def execute(self, uops: Iterable[Uop]) -> None:
        """Execute one trace (may be called repeatedly).

        Each uop's deps count back to earlier uops of the same call.
        """
        width = self.config.issue_width
        rob = self.config.rob_entries
        penalty = self.mispredict_penalty
        memory = self.memory
        load = memory.load
        store = memory.store
        trap = memory.cfg.tlb.trap_cycles
        ring = self._ring
        dispatch = self._dispatch_time
        this_cycle = self._dispatched_this_cycle
        stall_until = self._frontend_stall_until
        horizon = self._horizon
        loads = self.loads_issued.value
        mem_stall = self.mem_stall_cycles.value
        tlb_stall = self.tlb_stall_cycles.value
        done_at: List[float] = []    # completion time per uop of this call
        record = done_at.append
        slot = self._slot
        try:
            for kind, addr, deps, latency, mispredict in uops:
                # Dispatch slot: in order, issue_width per cycle, after any
                # front-end stall ...
                if dispatch < stall_until:
                    dispatch = stall_until
                    this_cycle = 0
                if this_cycle >= width:
                    dispatch += 1.0
                    this_cycle = 0
                this_cycle += 1
                # ... and no earlier than the retirement of the uop
                # rob_entries back, which retires in order.
                gate = ring[slot]
                if gate > dispatch:
                    dispatch = gate
                    this_cycle = 1
                ready = dispatch
                for dep in deps:
                    if not 0 < dep <= len(done_at):
                        raise _foreign_dep(dep, len(done_at))
                    done = done_at[-dep]
                    if done > ready:
                        ready = done
                if kind is _LOAD:
                    result = load(addr, ready)
                    done = result.complete
                    if result.tlb_stall > 0:
                        # Software-walked TLB: the miss traps to a handler
                        # on this core — flush, handle, replay.  Serializes
                        # the window (Widx instead stalls only the faulting
                        # unit).
                        done += trap
                        if done > stall_until:
                            stall_until = done
                    loads += 1
                    mem_stall += max(0.0, done - ready - 1.0)
                    tlb_stall += result.tlb_stall
                elif kind is _STORE:
                    # Stores retire through a store buffer; latency is
                    # hidden.
                    store(addr, ready)
                    done = ready + 1.0
                else:
                    done = ready + latency
                    if mispredict and kind is _BRANCH:
                        resume = done + penalty
                        if resume > stall_until:
                            stall_until = resume
                record(done)
                if done > horizon:
                    horizon = done
                ring[slot] = horizon
                slot += 1
                if slot == rob:
                    slot = 0
        finally:
            self._slot = slot
            self._dispatch_time = dispatch
            self._dispatched_this_cycle = this_cycle
            self._frontend_stall_until = stall_until
            self._horizon = horizon
            self.uops_executed.value += len(done_at)
            self.loads_issued.value = loads
            self.mem_stall_cycles.value = mem_stall
            self.tlb_stall_cycles.value = tlb_stall

    @property
    def completion_time(self) -> float:
        """Cycle at which every executed uop has retired."""
        return self._horizon
