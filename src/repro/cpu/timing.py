"""Measuring baseline-core indexing throughput (cycles per tuple).

Mirrors the paper's methodology: warm the caches with a prefix of probes
(SimFlex warm checkpoints), then measure the steady-state cycles/tuple over
the remaining probes, reporting a 95% confidence interval over batch means.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Type

from ..config import SystemConfig, DEFAULT_CONFIG
from ..db.column import Column
from ..db.hashtable import HashIndex
from ..mem.hierarchy import MemoryHierarchy
from ..obs import StatsRegistry
from ..sim.sampling import BatchStats
from .inorder import InOrderCore
from .ooo import OutOfOrderCore
from .trace import ProbeTraceGenerator, TraceGenerator


def warm_hash_index(memory: MemoryHierarchy, index) -> None:
    """Functionally install any index's working set in the LLC (and TLB):
    the ``working_set()`` regions of a hash index, B+-tree, trie or
    wormhole index, in their listed order."""
    for base, size in index.working_set():
        memory.warm_range(base, size)


@dataclass
class CoreTimingResult:
    """Indexing throughput of one baseline core run."""

    core: str
    cycles_per_tuple: float
    ci_half_width: float
    tuples: int
    total_cycles: float
    mem_stall_per_tuple: float
    tlb_stall_per_tuple: float
    l1_miss_ratio: float
    llc_miss_ratio: float
    stats: Optional[Dict[str, Any]] = None  # registry snapshot (to_dict)

    @property
    def relative_error(self) -> float:
        if self.cycles_per_tuple == 0:
            return 0.0
        return self.ci_half_width / self.cycles_per_tuple


def core_model(core: str, config: SystemConfig, memory,
               error: Type[Exception] = ValueError):
    """A fresh baseline core model over ``memory``: ``"ooo"`` or
    ``"inorder"``; any other name raises ``error``."""
    if core == "ooo":
        return OutOfOrderCore(config.ooo, memory)
    if core == "inorder":
        return InOrderCore(config.inorder, memory)
    raise error(f"unknown core model {core!r} (want 'ooo' or 'inorder')")


def measure_indexing(index: HashIndex, probe_keys: Column, *,
                     core: str = "ooo",
                     config: SystemConfig = DEFAULT_CONFIG,
                     warmup_probes: int = 512,
                     measure_probes: Optional[int] = None,
                     batch_size: int = 128,
                     warm_index: bool = True) -> CoreTimingResult:
    """Run the hash probe loop on a baseline core model; return
    cycles/tuple (see :func:`time_probe_loop`)."""
    return time_probe_loop(ProbeTraceGenerator(index, probe_keys), core=core,
                           config=config, warmup_probes=warmup_probes,
                           measure_probes=measure_probes,
                           batch_size=batch_size, warm_index=warm_index)


def time_probe_loop(generator: TraceGenerator, *, core: str,
                    config: SystemConfig, warmup_probes: int,
                    measure_probes: Optional[int], batch_size: int = 128,
                    warm_index: bool = True) -> CoreTimingResult:
    """Run ``generator``'s probe loop on a fresh ``core`` model: the
    first ``warmup_probes`` probes warm it, the next ``measure_probes``
    (all the rest by default) are timed in batches of ``batch_size``.

    ``warm_index`` mimics the paper's warmed-cache checkpoints: the
    index's working set is functionally installed in the LLC before
    timing starts, so compulsory misses do not masquerade as capacity
    misses.  Indexes larger than the LLC still miss, via LRU, exactly as
    in steady state.

    Probe counts are rounded down to whole traces: a generator whose
    traces each consume ``tuples_per_trace > 1`` probes (the batched
    descent) is timed in whole batches.
    """
    memory = MemoryHierarchy(config)
    if warm_index:
        warm_hash_index(memory, generator.index)
    model = core_model(core, config, memory)
    per_trace = generator.tuples_per_trace
    total_rows = len(generator.probe_keys.values)
    limit = total_rows if measure_probes is None else min(
        total_rows, warmup_probes + measure_probes)
    warmup_traces = warmup_probes // per_trace
    if limit // per_trace <= warmup_traces:
        raise ValueError(
            f"need more than {warmup_probes} probes to measure after warm-up")

    stats = BatchStats(batch_size=max(1, batch_size // per_trace))
    measured_tuples = 0
    measure_start = 0.0
    rows = range((limit // per_trace) * per_trace)
    for trace_number, uops in enumerate(generator.stream(rows)):
        before = model.completion_time
        model.execute(uops)
        if trace_number == warmup_traces - 1:
            measure_start = model.completion_time
        elif trace_number >= warmup_traces:
            stats.add(model.completion_time - before)
            measured_tuples += per_trace

    total = model.completion_time - measure_start
    mean, half = stats.interval()
    registry = StatsRegistry()
    model.register_into(registry, f"cpu.{core}")
    memory.register_into(registry, "mem")
    tuples = measured_tuples + warmup_traces * per_trace
    return CoreTimingResult(
        core=core,
        cycles_per_tuple=total / measured_tuples,
        ci_half_width=half / per_trace,
        tuples=measured_tuples,
        total_cycles=total,
        mem_stall_per_tuple=model.mem_stall_cycles / max(1, model.uops_executed)
        * (model.uops_executed / max(1, tuples)),
        tlb_stall_per_tuple=model.tlb_stall_cycles / max(1, tuples),
        l1_miss_ratio=memory.stats.l1d.miss_ratio,
        llc_miss_ratio=memory.stats.llc.miss_ratio,
        stats=registry.to_dict(),
    )
