"""The shared-LLC CMP and the multi-threaded Widx offload driver."""

from __future__ import annotations

import itertools

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..config import SystemConfig, DEFAULT_CONFIG
from ..cpu.timing import warm_hash_index
from ..db.column import Column
from ..db.hashtable import HashIndex
from ..errors import ConfigError, WidxFault
from ..mem.cache import CacheLevel
from ..mem.dram import MemoryControllers
from ..mem.hierarchy import MemoryHierarchy
from ..obs import StatsRegistry
from ..sim.engine import Engine
from ..widx.machine import WidxMachine, WidxRunResult
from ..widx.programs import (dispatcher_program, producer_program,
                             walker_program)

_multicore_counter = itertools.count()


class ChipMultiprocessor:
    """Per-core private hierarchies over one shared LLC and DRAM bank."""

    def __init__(self, cfg: SystemConfig = DEFAULT_CONFIG,
                 num_cores: Optional[int] = None) -> None:
        self.cfg = cfg
        self.num_cores = num_cores if num_cores is not None else cfg.num_cores
        if not 1 <= self.num_cores <= 64:
            raise ConfigError("core count must be in [1, 64]")
        self.shared_llc = CacheLevel(cfg.llc, "LLC")
        self.shared_dram = MemoryControllers(cfg.dram, cfg.freq_ghz,
                                             cfg.llc.block_bytes)
        self.cores: List[MemoryHierarchy] = [
            MemoryHierarchy(cfg, shared_llc=self.shared_llc,
                            shared_dram=self.shared_dram)
            for _ in range(self.num_cores)
        ]

    def core(self, index: int) -> MemoryHierarchy:
        """The i-th core's private memory hierarchy."""
        return self.cores[index]

    def warm_all(self, index: HashIndex) -> None:
        """Warm the shared LLC once and every core's TLB."""
        for hierarchy in self.cores:
            warm_hash_index(hierarchy, index)

    def llc_miss_ratio(self) -> float:
        """Miss ratio of the shared LLC across all cores."""
        return self.shared_llc.stats.miss_ratio

    def dram_utilization(self, elapsed_cycles: float) -> float:
        """Mean shared-controller utilization over the run."""
        return self.shared_dram.utilization(elapsed_cycles)

    def register_into(self, registry, prefix: str = "cmp") -> None:
        """Publish per-core private hierarchies plus the shared LLC/DRAM.

        Private paths land under ``{prefix}.core{i}``; the shared LLC and
        controllers are registered once under ``{prefix}.llc`` /
        ``{prefix}.dram``.
        """
        for index, hierarchy in enumerate(self.cores):
            hierarchy.register_into(registry, f"{prefix}.core{index}",
                                    include_shared=False)
        self.shared_llc.register_into(registry, f"{prefix}.llc")
        self.shared_dram.register_into(registry, f"{prefix}.dram")


@dataclass
class MulticoreRunResult:
    """A multi-threaded bulk probe: one Widx offload per core."""

    total_cycles: float
    tuples: int
    matches: int
    per_core: Dict[int, WidxRunResult] = field(default_factory=dict)
    llc_miss_ratio: float = 0.0
    dram_utilization: float = 0.0
    validated: Optional[bool] = None
    stats: Optional[Dict[str, Any]] = None  # registry snapshot (to_dict)

    @property
    def cycles_per_tuple(self) -> float:
        """Aggregate throughput: wall-clock cycles per tuple processed."""
        if self.tuples == 0:
            return 0.0
        return self.total_cycles / self.tuples


def run_multicore_offload(index: HashIndex, probe_column: Column, *,
                          config: SystemConfig = DEFAULT_CONFIG,
                          threads: Optional[int] = None,
                          probes: Optional[int] = None,
                          warm: bool = True,
                          validate: bool = True) -> MulticoreRunResult:
    """Probe ``index`` with ``threads`` cores, each running its own Widx.

    The probe stream is split into contiguous per-thread chunks (the
    paper's kernel setup: four threads share one hash table).  All
    machines co-simulate on one engine, so LLC capacity and off-chip
    bandwidth contention across cores is modelled.
    """
    if not probe_column.is_materialized:
        raise WidxFault("probe keys must be materialized in simulated memory")
    cmp_system = ChipMultiprocessor(config, threads)
    threads = cmp_system.num_cores
    total_keys = len(probe_column.values)
    probes = total_keys if probes is None else min(probes, total_keys)
    if probes < threads:
        raise WidxFault(f"need at least {threads} probes for {threads} threads")

    space = index.space
    layout = index.layout
    key_bytes = layout.key_bytes
    widx = config.widx
    if widx.mode != "shared":
        raise WidxFault("the multicore driver runs the paper's shared-"
                        "dispatcher organization")

    reference: List[int] = []
    for row in range(probes):
        reference.extend(index.probe(int(probe_column.values[row])))

    if warm:
        cmp_system.warm_all(index)

    engine = Engine()
    machines: List[WidxMachine] = []
    chunk = (probes + threads - 1) // threads
    run_id = next(_multicore_counter)
    out_regions = []
    chunks = []
    for core_index in range(threads):
        first = core_index * chunk
        count = max(0, min(chunk, probes - first))
        chunks.append((first, count))
        out_regions.append(space.allocate(
            f"{index.name}:mc{run_id}:out{core_index}",
            max(64, 8 * (count * 4 + 1)), align=64))

    dispatcher = dispatcher_program(index.hash_spec, layout)
    walker = walker_program(layout)
    producer = producer_program(8)
    mask = index.num_buckets - 1
    base = probe_column.region.base

    for core_index in range(threads):
        first, count = chunks[core_index]
        machine = WidxMachine(config, cmp_system.core(core_index),
                              space.memory, engine=engine)
        machine.build(dispatcher, walker, producer)
        machine.configure_unit("dispatcher", {
            dispatcher.config_registers["key_cursor"]:
                base + first * key_bytes,
            dispatcher.config_registers["key_count"]: count,
            dispatcher.config_registers["bucket_base"]: index.buckets.base,
            dispatcher.config_registers["bucket_mask"]: mask,
        })
        if layout.indirect:
            column_reg = walker.config_registers["column_base"]
            for walker_index in range(widx.num_walkers):
                machine.configure_unit(
                    f"walker{walker_index}",
                    {column_reg: index.key_column.region.base})
        machine.configure_unit("producer", {
            producer.config_registers["out_cursor"]:
                out_regions[core_index].base,
        })
        machine.launch()
        machines.append(machine)

    engine.run()

    per_core: Dict[int, WidxRunResult] = {}
    payloads: List[int] = []
    for core_index, machine in enumerate(machines):
        result = machine.collect(chunks[core_index][1])
        per_core[core_index] = result
        region = out_regions[core_index]
        payloads.extend(space.memory.read_u64(region.base + 8 * i)
                        for i in range(result.matches))
    # Output buffers are scratch: release them (LIFO) so repeated runs on
    # one workload space see identical address layouts.
    for region in reversed(out_regions):
        space.release(region)

    validated: Optional[bool] = None
    if validate:
        validated = sorted(payloads) == sorted(reference)
        if not validated:
            raise WidxFault(
                f"multicore offload diverged: {len(payloads)} emitted vs "
                f"{len(reference)} expected")
    registry = StatsRegistry()
    cmp_system.register_into(registry)
    for core_index, machine in enumerate(machines):
        machine.register_into(registry,
                              prefix=f"cmp.core{core_index}.widx",
                              queue_prefix=f"cmp.core{core_index}.queue")
    engine.register_into(registry, "sim.engine")
    return MulticoreRunResult(
        total_cycles=engine.now,
        tuples=probes,
        matches=len(payloads),
        per_core=per_core,
        llc_miss_ratio=cmp_system.llc_miss_ratio(),
        dram_utilization=cmp_system.dram_utilization(max(1.0, engine.now)),
        validated=validated,
        stats=registry.to_dict(),
    )



@dataclass
class MulticoreBaselineResult:
    """A multi-threaded software probe run on the baseline cores."""

    total_cycles: float
    tuples: int
    per_core_cycles: Dict[int, float] = field(default_factory=dict)
    llc_miss_ratio: float = 0.0
    dram_utilization: float = 0.0

    @property
    def cycles_per_tuple(self) -> float:
        """Aggregate throughput: wall-clock cycles per tuple processed."""
        if self.tuples == 0:
            return 0.0
        return self.total_cycles / self.tuples


def run_multicore_baseline(index: HashIndex, probe_column: Column, *,
                           config: SystemConfig = DEFAULT_CONFIG,
                           threads: Optional[int] = None,
                           probes: Optional[int] = None,
                           core: str = "ooo",
                           warm: bool = True) -> MulticoreBaselineResult:
    """The software counterpart of :func:`run_multicore_offload`: one
    baseline core per thread running the probe loop over its chunk.

    The trace-driven core models are not event-engine processes, so cores
    are interleaved round-robin one probe at a time — their clocks stay
    aligned to within a single probe, which keeps shared-LLC and
    controller reservations approximately causal (the same tolerance the
    analytic resources already absorb).
    """
    from ..cpu.inorder import InOrderCore
    from ..cpu.ooo import OutOfOrderCore
    from ..cpu.trace import ProbeTraceGenerator

    if not probe_column.is_materialized:
        raise WidxFault("probe keys must be materialized in simulated memory")
    cmp_system = ChipMultiprocessor(config, threads)
    threads = cmp_system.num_cores
    total_keys = len(probe_column.values)
    probes = total_keys if probes is None else min(probes, total_keys)
    if probes < threads:
        raise WidxFault(f"need at least {threads} probes for {threads} threads")
    if warm:
        cmp_system.warm_all(index)

    chunk = (probes + threads - 1) // threads
    cores = []
    streams = []
    for core_index in range(threads):
        hierarchy = cmp_system.core(core_index)
        if core == "ooo":
            model = OutOfOrderCore(config.ooo, hierarchy)
        elif core == "inorder":
            model = InOrderCore(config.inorder, hierarchy)
        else:
            raise WidxFault(f"unknown baseline core {core!r}")
        first = core_index * chunk
        rows = range(first, min(first + chunk, probes))
        generator = ProbeTraceGenerator(index, probe_column)
        cores.append(model)
        streams.append(generator.stream(rows))

    live = list(range(threads))
    while live:
        still_live = []
        for core_index in live:
            trace = next(streams[core_index], None)
            if trace is None:
                continue
            cores[core_index].execute(trace)
            still_live.append(core_index)
        live = still_live

    per_core = {i: cores[i].completion_time for i in range(threads)}
    total = max(per_core.values())
    return MulticoreBaselineResult(
        total_cycles=total,
        tuples=probes,
        per_core_cycles=per_core,
        llc_miss_ratio=cmp_system.llc_miss_ratio(),
        dram_utilization=cmp_system.dram_utilization(max(1.0, total)),
    )
