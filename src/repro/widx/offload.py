"""High-level Widx offload drivers.

``offload_probe`` is the library's headline entry point: given a built
:class:`~repro.db.HashIndex` and a materialized probe-key column, it
generates the three Widx programs for the index's schema, configures a
:class:`WidxMachine`, runs the bulk probe to completion, and validates the
emitted matches against the functional reference — the paper's atomic
all-or-nothing offload, with the host core idle throughout.

Every index structure runs on the same machine; only the programs loaded
into its units and the values in their configuration registers differ.
So each public ``offload_*`` entry point just describes its traversal in
a :class:`_Traversal` (legal organizations, functional reference, staged
input, programs, configuration registers) and hands it to one private
pipeline, :func:`_offload`: stage input → out region → warm the index's
``working_set()`` → build → configure → run → read payloads → validate
→ stats snapshot → release.

Widx offloads run on the discrete-event engine: the walkers *share* the
MSHRs, cache ports and (in shared mode) the dispatcher queue, so every
probe's timing depends on its neighbours'.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..config import SystemConfig, DEFAULT_CONFIG
from ..db.btree import KEY_PAD, BPlusTree
from ..db.column import Column
from ..db.hashtable import HashIndex
from ..db.trie import MlpTrie
from ..db.wormhole import WormholeIndex
from ..errors import MemoryError_, SimulationHang, WidxFault
from ..mem.hierarchy import MemoryHierarchy
from ..obs import StatsRegistry
from ..sim.watchdog import Watchdog
from .machine import UnitFault, WidxMachine, WidxRunResult
from .programs import (GeneratedProgram, batched_tree_walker_program,
                       coupled_walker_program, dispatcher_program,
                       key_dispatcher_program, producer_program,
                       range_dispatcher_program, tree_dispatcher_program,
                       tree_range_walker_program, tree_walker_program,
                       trie_range_dispatcher_program,
                       trie_range_walker_program, trie_walker_program,
                       walker_program, wormhole_range_walker_program,
                       wormhole_walker_program)
from .trail import TrailRecorder
from .unit import WidxUnit

_offload_counter = itertools.count()

#: Organizations a traversal without a hashing stage can run in.
_SEARCH_MODES = ("shared", "private")
#: Range scans stream (low, high) records through one dispatcher.
_RANGE_MODES = ("shared",)


def _hierarchy_for(config: SystemConfig):
    """The memory path matching the configured Widx placement."""
    if config.widx.placement == "llc":
        from ..mem.llcside import LlcSideMemory
        return LlcSideMemory(config)
    if config.widx.placement == "pim":
        from ..mem.pimside import PimBankMemory
        return PimBankMemory(config)
    return MemoryHierarchy(config)


@dataclass
class OffloadOutcome:
    """Plain results of one bulk-probe offload, never the machine: a
    caller keeps the live hierarchy by passing it in as ``memory=``."""

    run: WidxRunResult
    payloads: List[int] = field(default_factory=list)
    validated: Optional[bool] = None
    programs: Dict[str, GeneratedProgram] = field(default_factory=dict)
    fell_back: bool = False             # aborted and re-ran on the host
    abort_cycles: float = 0.0           # Widx cycles wasted before abort
    stats: Optional[Dict[str, Any]] = None  # registry snapshot (to_dict)

    @property
    def cycles_per_tuple(self) -> float:
        return self.run.cycles_per_tuple

    @property
    def matches(self) -> int:
        return self.run.matches


@dataclass
class _Traversal:
    """One index structure's side of an offload: everything
    :func:`_offload` needs that differs between structures.

    The *streaming* unit — each dispatcher, or each walker when there is
    no dispatcher — walks ``items`` records of ``item_bytes`` from
    ``base`` (or from the staged input, when ``staging`` is set) through
    its ``stream`` (cursor, count) registers; ``unit_regs`` and
    ``walker_regs`` name further registers by their program's map.  The
    pipeline warms the structure's own ``index.working_set()``.
    """

    index: Any                          # the structure: ``space``, ``name``
    label: str                          # names the offload in errors
    modes: Tuple[str, ...]              # legal Widx organizations
    reference: List[int]                # the functional oracle's payloads
    tuples: int                         # items the run must retire
    dispatcher: Optional[GeneratedProgram]
    walker: GeneratedProgram
    stream: Tuple[str, str]             # (cursor, count) register names
    items: int
    item_bytes: int
    base: int = 0
    staging: Optional[Tuple[str, int, List[int]]] = None  # stem, width, words
    unit_regs: Dict[str, int] = field(default_factory=dict)
    walker_regs: Dict[str, int] = field(default_factory=dict)
    out: str = "out"                    # output-region name stem


def _offload(spec: _Traversal, config: SystemConfig, warm: bool,
             validate: bool, memory: Optional[MemoryHierarchy], engine,
             unit_cls, watchdog: Optional[Watchdog], *, tracer=None,
             trail=None, faults: Sequence[UnitFault] = (),
             configure_hook=None,
             fallback: Optional[Callable] = None) -> OffloadOutcome:
    """Run one traversal on the configured Widx organization.

    Staging and output regions are scratch: released in reverse
    allocation order (and the space's break rewound) before returning,
    so every offload against a workload sees the same address layout no
    matter how many offloads ran before it.  The machine is scratch too:
    only its results and ``stats`` snapshot leave this call.
    """
    widx = config.widx
    if widx.mode not in spec.modes:
        raise WidxFault(
            "range scans use the shared-dispatcher organization"
            if spec.modes == _RANGE_MODES else
            f"{spec.label} has no hashing stage to couple; use 'shared' "
            f"or 'private'")
    space = spec.index.space
    run_id = next(_offload_counter)
    regions = []
    try:
        base = spec.base
        if spec.staging is not None:
            stem, width, words = spec.staging
            staged = space.allocate(f"{spec.index.name}:{stem}{run_id}",
                                    max(64, width * len(words)), align=64)
            regions.append(staged)
            for offset, word in enumerate(words):
                space.memory.write(staged.base + width * offset, width, word)
            base = staged.base
        out_region = space.allocate(
            f"{spec.index.name}:{spec.out}{run_id}",
            max(64, 8 * (len(spec.reference) + 1)), align=64)
        regions.append(out_region)

        producer = producer_program()
        programs = ({} if spec.dispatcher is None
                    else {"dispatcher": spec.dispatcher})
        programs.update(walker=spec.walker, producer=producer)
        hierarchy = memory if memory is not None else _hierarchy_for(config)
        if warm:
            for start, size in spec.index.working_set():
                hierarchy.warm_range(start, size)
        machine = WidxMachine(config, hierarchy, space.memory, engine=engine,
                              tracer=tracer, unit_cls=unit_cls or WidxUnit)
        machine.build(spec.dispatcher, spec.walker, producer)
        if trail is not None:
            machine.attach_trail(TrailRecorder(trail))
        _configure(machine, spec, base, widx.mode, widx.num_walkers)
        machine.configure_unit(
            "producer",
            {producer.config_registers["out_cursor"]: out_region.base})
        if configure_hook is not None:
            configure_hook(machine)

        try:
            run = machine.run(expected_tuples=spec.tuples,
                              watchdog=watchdog, faults=faults)
        except (MemoryError_, WidxFault):
            if fallback is None:
                raise
            return fallback(machine, programs)
        except SimulationHang:
            # Only an injected stall makes a hang *expected* (the watchdog
            # / deadlock detector catching a wedged walker); a hang in a
            # fault-free run is a real bug and must propagate.
            if not (faults and fallback is not None):
                raise
            return fallback(machine, programs)
        payloads = [space.memory.read_u64(out_region.base + 8 * i)
                    for i in range(run.matches)]
    finally:
        for region in reversed(regions):
            space.release(region)

    validated: Optional[bool] = None
    if validate:
        validated = sorted(payloads) == sorted(spec.reference)
        if not validated:
            raise WidxFault(
                f"{spec.label} offload diverged: {len(payloads)} emitted "
                f"vs {len(spec.reference)} expected")
    registry = StatsRegistry()
    hierarchy.register_into(registry, "mem")
    machine.register_into(registry)
    machine.engine.register_into(registry, "sim.engine")
    if trail is not None:
        registry.register("widx.trails", trail)
    return OffloadOutcome(run=run, payloads=payloads, validated=validated,
                          programs=programs, stats=registry.to_dict())


def _configure(machine: WidxMachine, spec: _Traversal, base: int,
               mode: str, n: int) -> None:
    """Write the streaming units' and the walkers' registers."""
    regs = (spec.dispatcher or spec.walker).config_registers
    cursor, count = spec.stream

    def stream(first: int, stride: int) -> Dict[int, int]:
        items = (0 if first >= spec.items
                 else (spec.items - first + stride - 1) // stride)
        values = {regs[cursor]: base + first * spec.item_bytes,
                  regs[count]: items}
        values.update((regs[name], value)
                      for name, value in spec.unit_regs.items())
        return values

    if mode == "shared":
        machine.configure_unit("dispatcher", stream(0, 1))
    else:
        unit = "dispatcher" if mode == "private" else "walker"
        for i in range(n):
            machine.configure_unit(f"{unit}{i}", stream(i, n))
    if spec.walker_regs:
        regs = spec.walker.config_registers
        for i in range(n):
            machine.configure_unit(f"walker{i}", {
                regs[name]: value for name, value in spec.walker_regs.items()})


def _probe_count(probe_column: Column, probes: Optional[int],
                 batch: int = 1) -> int:
    """How many leading keys of ``probe_column`` to probe: ``probes``
    capped at the column, truncated to whole batches of ``batch``."""
    if not probe_column.is_materialized:
        raise WidxFault("probe keys must be materialized in simulated memory")
    total_keys = len(probe_column.values)
    probes = total_keys if probes is None else min(probes, total_keys)
    probes = (probes // batch) * batch
    if probes < batch:
        raise WidxFault("need at least one probe" if batch == 1 else
                        f"need at least one whole batch of {batch} probes")
    return probes


def _keys(probe_column: Column, probes: int) -> List[int]:
    return [int(probe_column.values[row]) for row in range(probes)]


def _stride(config: SystemConfig) -> int:
    """Keys a dispatcher skips between its own: one per walker in the
    private organization, where each walker has its own dispatcher."""
    return config.widx.num_walkers if config.widx.mode == "private" else 1


def _search(index, probe_column: Column, probes: Optional[int],
            config: SystemConfig, label: str, make_dispatcher,
            walker: GeneratedProgram, **fields) -> _Traversal:
    """A point-lookup traversal: the dispatcher that
    ``make_dispatcher(key_bytes, stride_keys=...)`` generates streams the
    column's leading ``probes`` keys; the reference is what
    ``index.search`` finds for them."""
    probes = _probe_count(probe_column, probes)
    key_bytes = probe_column.dtype.nbytes
    return _Traversal(
        index=index, label=label, modes=_SEARCH_MODES,
        reference=[payload for payload in map(
            index.search, _keys(probe_column, probes)) if payload is not None],
        tuples=probes,
        dispatcher=make_dispatcher(key_bytes, stride_keys=_stride(config)),
        walker=walker, stream=("key_cursor", "key_count"), items=probes,
        item_bytes=key_bytes, base=probe_column.region.base, **fields)


def _range_scan(index, ranges, label: str, dispatcher: GeneratedProgram,
                walker: GeneratedProgram, *, width: int = 4,
                limit: Optional[int] = KEY_PAD, plan=None,
                **fields) -> _Traversal:
    """A multi-range scan traversal: the shared dispatcher streams one
    record of two ``width``-byte words per range — (low, high), or
    (``plan(low)``, high) when the host plans each range's start; the
    reference is every payload ``index.range_scan`` yields."""
    ranges = [(int(low), int(high)) for low, high in ranges]
    if not ranges:
        raise WidxFault("need at least one range")
    words: List[int] = []
    for low, high in ranges:
        if not 0 <= low <= high or (limit is not None and high >= limit):
            raise WidxFault(f"bad range [{low}, {high}]")
        words += (low if plan is None else plan(low), high)
    return _Traversal(
        index=index, label=label, modes=_RANGE_MODES,
        reference=[payload for low, high in ranges
                   for _key, payload in index.range_scan(low, high)],
        tuples=len(ranges), dispatcher=dispatcher, walker=walker,
        stream=("range_cursor", "range_count"), items=len(ranges),
        item_bytes=2 * width, staging=("ranges", width, words), out="rout",
        **fields)


def offload_probe(index: HashIndex, probe_column: Column, *,
                  config: SystemConfig = DEFAULT_CONFIG,
                  probes: Optional[int] = None,
                  warm: bool = True,
                  validate: bool = True,
                  memory: Optional[MemoryHierarchy] = None,
                  engine=None,
                  unit_cls=None,
                  fallback_to_host: bool = False,
                  configure_hook=None,
                  watchdog: Optional[Watchdog] = None,
                  tracer=None,
                  trail=None,
                  faults: Sequence[UnitFault] = ()) -> OffloadOutcome:
    """Probe ``index`` with the first ``probes`` keys of ``probe_column``
    on the configured Widx organization; returns timing plus results.

    ``fallback_to_host`` enables the paper's atomic all-or-nothing model
    (Section 4.3): if the accelerator faults (a bad control block, a wild
    pointer — anything other than a TLB miss, which the host MMU services
    in place), the offload aborts and the indexing operation re-executes
    completely on the host core; the returned outcome charges both the
    wasted accelerator cycles and the host re-run.

    ``memory``, ``engine`` and ``unit_cls`` inject a pre-built hierarchy,
    discrete-event engine and unit implementation — the differential tests
    and benchmarks use them to run the whole offload on the naive reference
    implementations (:class:`~repro.sim.reference.ReferenceEngine`,
    :func:`~repro.mem.reference.use_reference_arrays`,
    :class:`~repro.widx.reference.ReferenceWidxUnit`).

    ``configure_hook(machine)`` runs after standard configuration — used
    by fault-injection tests to corrupt configuration registers.

    ``watchdog`` overrides the default progress watchdog — pass one built
    from tighter :class:`~repro.sim.watchdog.WatchdogLimits` to budget the
    measurement's simulated cycles or wall-clock time.

    ``trail`` (a :class:`~repro.obs.metrics.Trail`) opts into walker-trail
    capture: every dispatched walker records each invocation's traversal
    path — per-``LD`` address and servicing cache level — into the
    bounded ring, and the filled Trail is published into the outcome's
    stats registry as ``widx.trails``.  Autonomous walkers (coupled
    mode) have no per-key invocations and record nothing.

    ``faults`` injects seeded :class:`~repro.widx.machine.UnitFault`
    events mid-offload (see :func:`repro.harness.chaos.walker_faults`).
    A survivable walker death degrades the run; an unrecoverable fault
    or stall aborts it — recovered on the host when
    ``fallback_to_host`` is set, raised otherwise.
    """
    probes = _probe_count(probe_column, probes)
    layout = index.layout
    n = config.widx.num_walkers
    reference: List[int] = []
    for key in _keys(probe_column, probes):
        reference.extend(index.probe(key))
    if config.widx.mode == "coupled":
        # Coupled walkers hash inline and stream the keys themselves.
        dispatcher = None
        walker = coupled_walker_program(index.hash_spec, layout,
                                        stride_keys=n)
    else:
        dispatcher = dispatcher_program(index.hash_spec, layout,
                                        stride_keys=_stride(config))
        walker = walker_program(layout)
    spec = _Traversal(
        index=index, label="hash probe",
        modes=("shared", "private", "coupled"), reference=reference,
        dispatcher=dispatcher, walker=walker, tuples=probes,
        stream=("key_cursor", "key_count"), items=probes,
        item_bytes=layout.key_bytes, base=probe_column.region.base,
        unit_regs={"bucket_base": index.buckets.base,
                   "bucket_mask": index.num_buckets - 1},
        walker_regs=({"column_base": index.key_column.region.base}
                     if layout.indirect else {}))
    fallback = (partial(_host_fallback, index, probe_column, probes, config,
                        reference) if fallback_to_host else None)
    return _offload(spec, config, warm, validate, memory, engine, unit_cls,
                    watchdog, tracer=tracer, trail=trail, faults=faults,
                    configure_hook=configure_hook, fallback=fallback)


def _host_fallback(index: HashIndex, probe_column: Column, probes: int,
                   config: SystemConfig, reference: List[int],
                   machine: WidxMachine,
                   programs: Dict[str, GeneratedProgram]) -> OffloadOutcome:
    """Abort the offload and re-execute the whole operation on the host
    core (the paper's all-or-nothing recovery path)."""
    from ..cpu.timing import measure_indexing

    abort_cycles = machine.engine.now
    if machine.tracer is not None:
        # The abort tears the machine down mid-flight; force-close any
        # in-progress unit spans so the trace stays well-formed.
        machine.tracer.close_all(abort_cycles)
    warmup = max(1, min(256, probes // 4))
    host = measure_indexing(index, probe_column, core="ooo", config=config,
                            warmup_probes=warmup,
                            measure_probes=probes - warmup)
    total = abort_cycles + host.cycles_per_tuple * probes
    run = WidxRunResult(total_cycles=total, tuples=probes,
                        matches=len(reference),
                        config_cycles=machine.configuration_cycles(),
                        unit_stats={name: unit.stats
                                    for name, unit in machine.units.items()})
    return OffloadOutcome(run=run, payloads=list(reference), validated=True,
                          programs=programs, fell_back=True,
                          abort_cycles=abort_cycles)


def offload_tree_search(tree, probe_column: Column, *,
                        config: SystemConfig = DEFAULT_CONFIG,
                        probes: Optional[int] = None,
                        warm: bool = True,
                        validate: bool = True,
                        memory: Optional[MemoryHierarchy] = None,
                        engine=None, unit_cls=None,
                        watchdog: Optional[Watchdog] = None
                        ) -> OffloadOutcome:
    """Accelerate B+-tree point lookups (the Section 7 tree extension).

    Same machine, different programs: the dispatcher streams probe keys
    (no hashing) and the walkers run the generated tree-descent function.
    Only the ``shared`` and ``private`` organizations apply — trees have no
    hashing stage to couple.  ``memory``/``engine``/``unit_cls`` and
    ``watchdog`` work as in :func:`offload_probe`; every ordered offload
    takes them.
    """
    if not isinstance(tree, BPlusTree):
        raise WidxFault("offload_tree_search expects a BPlusTree")
    spec = _search(tree, probe_column, probes, config, "tree search",
                   tree_dispatcher_program, tree_walker_program(),
                   unit_regs={"root": tree.root})
    return _offload(spec, config, warm, validate, memory, engine, unit_cls,
                    watchdog)


def offload_tree_ranges(tree, ranges, *,
                        config: SystemConfig = DEFAULT_CONFIG,
                        warm: bool = True,
                        validate: bool = True,
                        memory: Optional[MemoryHierarchy] = None,
                        engine=None, unit_cls=None,
                        watchdog: Optional[Watchdog] = None
                        ) -> OffloadOutcome:
    """Accelerate multi-range B+-tree scans (IN-lists, multi-range
    predicates): the dispatcher streams (low, high) pairs and each walker
    scans one whole range — inter-range parallelism, the range analogue of
    the paper's inter-key parallelism.
    """
    if not isinstance(tree, BPlusTree):
        raise WidxFault("offload_tree_ranges expects a BPlusTree")
    spec = _range_scan(tree, ranges, "tree range",
                       range_dispatcher_program(), tree_range_walker_program(),
                       unit_regs={"root": tree.root})
    return _offload(spec, config, warm, validate, memory, engine, unit_cls,
                    watchdog)


def offload_trie_search(trie, probe_column: Column, *,
                        config: SystemConfig = DEFAULT_CONFIG,
                        probes: Optional[int] = None,
                        warm: bool = True,
                        validate: bool = True,
                        memory: Optional[MemoryHierarchy] = None,
                        engine=None, unit_cls=None,
                        watchdog: Optional[Watchdog] = None
                        ) -> OffloadOutcome:
    """Accelerate MLP-trie point lookups.

    The dispatcher streams bare keys; each walker computes all eight
    candidate bucket addresses from the key, TOUCHes them up front, then
    probes depth by depth until a tag matches — the Cuckoo-Trie fetch
    pattern run on a Widx unit.
    """
    if not isinstance(trie, MlpTrie):
        raise WidxFault("offload_trie_search expects an MlpTrie")
    spec = _search(trie, probe_column, probes, config, "trie search",
                   key_dispatcher_program,
                   trie_walker_program(trie.hash_spec),
                   walker_regs={"bucket_base": trie.buckets.base,
                                "bucket_mask": trie.bucket_mask})
    return _offload(spec, config, warm, validate, memory, engine, unit_cls,
                    watchdog)


def offload_trie_ranges(trie, ranges, *,
                        config: SystemConfig = DEFAULT_CONFIG,
                        warm: bool = True,
                        validate: bool = True,
                        memory: Optional[MemoryHierarchy] = None,
                        engine=None, unit_cls=None,
                        watchdog: Optional[Watchdog] = None
                        ) -> OffloadOutcome:
    """Accelerate multi-range trie scans over the sorted terminal chain.

    The host plans each range's start terminal on its sorted key list
    (the same bisect any secondary-structure scan performs); the
    dispatcher streams (start, high) records and each walker streams one
    chain segment, emitting payloads while the stored key stays in range.
    """
    if not isinstance(trie, MlpTrie):
        raise WidxFault("offload_trie_ranges expects an MlpTrie")
    spec = _range_scan(trie, ranges, "trie range",
                       trie_range_dispatcher_program(),
                       trie_range_walker_program(), width=8, limit=None,
                       plan=trie.search_start)
    return _offload(spec, config, warm, validate, memory, engine, unit_cls,
                    watchdog)


def offload_wormhole_search(index, probe_column: Column, *,
                            config: SystemConfig = DEFAULT_CONFIG,
                            probes: Optional[int] = None,
                            warm: bool = True,
                            validate: bool = True,
                            memory: Optional[MemoryHierarchy] = None,
                            engine=None, unit_cls=None,
                            watchdog: Optional[Watchdog] = None
                            ) -> OffloadOutcome:
    """Accelerate wormhole point lookups.

    The tree dispatcher streams (key, first-leaf) pairs; each walker
    binary-searches the MetaTrieHash for the key's longest anchor prefix,
    then walks at most a few leaves forward — the collapsed pointer
    chain, run on a Widx unit.
    """
    if not isinstance(index, WormholeIndex):
        raise WidxFault("offload_wormhole_search expects a WormholeIndex")
    spec = _search(index, probe_column, probes, config, "wormhole search",
                   tree_dispatcher_program,
                   wormhole_walker_program(index.hash_spec),
                   unit_regs={"root": index.first_leaf},
                   walker_regs={"meta_base": index.meta.base,
                                "meta_mask": index.meta_mask})
    return _offload(spec, config, warm, validate, memory, engine, unit_cls,
                    watchdog)


def offload_wormhole_ranges(index, ranges, *,
                            config: SystemConfig = DEFAULT_CONFIG,
                            warm: bool = True,
                            validate: bool = True,
                            memory: Optional[MemoryHierarchy] = None,
                            engine=None, unit_cls=None,
                            watchdog: Optional[Watchdog] = None
                            ) -> OffloadOutcome:
    """Accelerate multi-range wormhole scans: locate ``low``'s leaf via
    the MetaTrieHash, then stream the sorted leaf chain."""
    if not isinstance(index, WormholeIndex):
        raise WidxFault("offload_wormhole_ranges expects a WormholeIndex")
    spec = _range_scan(index, ranges, "wormhole range",
                       range_dispatcher_program(),
                       wormhole_range_walker_program(index.hash_spec),
                       unit_regs={"root": index.first_leaf},
                       walker_regs={"meta_base": index.meta.base,
                                    "meta_mask": index.meta_mask})
    return _offload(spec, config, warm, validate, memory, engine, unit_cls,
                    watchdog)


def offload_batched_tree(tree, probe_column: Column, *,
                         config: SystemConfig = DEFAULT_CONFIG,
                         probes: Optional[int] = None,
                         batch: int = 4,
                         sort_batches: bool = True,
                         warm: bool = True,
                         validate: bool = True,
                         memory: Optional[MemoryHierarchy] = None,
                         engine=None, unit_cls=None,
                         watchdog: Optional[Watchdog] = None
                         ) -> OffloadOutcome:
    """Accelerate level-wise *batched* B+-tree lookups.

    Autonomous walkers (the coupled organization, regardless of the
    configured mode — there is no dispatch stage) each load ``batch``
    probe keys into registers and descend them in lock-step, one tree
    level per iteration.  With ``sort_batches`` the driver stages a
    batch-locally sorted copy of the key stream, so a batch's probes
    route through shared upper-level nodes and the repeat fetches hit in
    the L1 — composing with the serve layer's ``size:N`` batching, whose
    admission queue hands the walker exactly such key groups.

    The probe count is truncated to a whole number of batches (serving
    batches are fixed-size by construction).
    """
    if not isinstance(tree, BPlusTree):
        raise WidxFault("offload_batched_tree expects a BPlusTree")
    probes = _probe_count(probe_column, probes, batch)
    keys = _keys(probe_column, probes)
    staged: List[int] = []
    for start in range(0, probes, batch):
        group = keys[start:start + batch]
        staged.extend(sorted(group) if sort_batches else group)
    # Batched descent is an autonomous-walker program: force the coupled
    # organization while keeping the caller's walker count.
    config = config.with_widx(mode="coupled")
    spec = _Traversal(
        index=tree, label="batched tree", modes=("coupled",),
        reference=[payload for payload in map(tree.search, staged)
                   if payload is not None], tuples=probes,
        dispatcher=None,
        walker=batched_tree_walker_program(
            batch, stride_batches=config.widx.num_walkers),
        stream=("key_cursor", "batch_count"), items=probes // batch,
        item_bytes=4 * batch, staging=("bkeys", 4, staged), out="bout",
        unit_regs={"root": tree.root})
    return _offload(spec, config, warm, validate, memory, engine, unit_cls,
                    watchdog)
