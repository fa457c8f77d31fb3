"""Micro-benchmarks for the simulator's hot paths.

Each benchmark times the optimized implementation against its
*deliberately naive* reference twin (the same oracles the differential
tests compare against) and asserts the two produce **bit-identical**
simulated results before reporting a speedup.  That coupling is the
point: a benchmark that got faster by changing behaviour fails loudly
instead of reporting a bogus win.

Three benchmarks cover the three overhauled layers:

``engine_dispatch``
    A wakeup storm: many processes yielding seeded random delays, timed
    on the tuple-heap, same-cycle-batch, direct-resume
    :class:`~repro.sim.engine.Engine` versus the linear-scan
    :class:`~repro.sim.reference.ReferenceEngine`.

``cache_probe``
    A lookup-dominated probe storm on the LLC geometry, timed on the
    flat tick-LRU :class:`~repro.mem.cache.CacheArray` versus the
    recency-list :class:`~repro.mem.reference.ReferenceCacheArray`.

``fig8_point``
    One full Figure-8 style offloaded bulk probe (hash join, 4 walkers),
    timed end-to-end on the optimized stack versus the full naive stack
    (reference engine + reference cache levels + reference interpreter).

``pim_fig8_point``
    The same offloaded bulk probe on the bank-side walker backend
    (:mod:`repro.pim`), timed on the optimized stack versus the full
    naive PIM stack (reference engine + reference bank-buffer array +
    reference interpreter via :func:`~repro.pim.use_reference_pim_memory`
    and :class:`~repro.pim.ReferencePimUnit`).

Two cover the ordered-index zoo's offloads, each against the full naive
stack (reference engine + reference cache levels + reference
interpreter):

``trie_fig8_point``
    One offloaded MLP-trie probe batch (Cuckoo-Trie fetch pattern,
    4 walkers) on the ordered Small workload, timed end-to-end on the
    optimized stack versus the naive twin.

``batched_tree_serve``
    One level-wise batched B+-tree offload (the coupled organization
    the serving layer's ``batched`` backend runs per admitted batch),
    timed the same way; the fingerprint additionally pins the serving
    layer's calibrated per-batch service times so drift in the
    ``--batched-tree`` fig-serve column fails ``--check`` loudly.

Two more cover bulk mode, where the reference twin is the *production*
discrete-event path itself (bulk's contract is bit identity with it):

``bulk_fig8_point``
    One Figure-8 baseline-core measurement, timed on the array-program
    replay (:func:`~repro.sim.bulk.bulk_measure_indexing`) versus the
    event-driven :func:`~repro.cpu.timing.measure_indexing`.

``bulk_serve_sweep``
    A fig-serve style offered-load sweep (five load fractions, fifo
    policy, four cores), timed with ``bulk=True`` versus the
    discrete-event serving engine.

One guards the resilience layer, where the reference twin is the plain
serving DES (the resilient clean path's contract is bit identity with
it) and the floor bounds *overhead* rather than demanding a speedup:

``resilience_sweep``
    An offered-load sweep run through the resilient serving path with
    only an SLO armed (no shedding, no faults) versus the plain DES;
    the fingerprint also pins a seeded shed+fault+fallback sweep so any
    drift in the degraded-mode machinery fails ``--check`` loudly.

``serve_core_refactor``
    The same resilient-vs-plain comparison with a *tight* floor: the
    resilient path now routes every decision through the extracted
    transport-agnostic :class:`~repro.serve.core.ServingCore`, and this
    floor (0.79 = the pre-extraction 0.83 ratio less a 5% allowance)
    proves the extraction itself cost at most ~5% on the DES driver.
    The fingerprint additionally replays a slice of the sweep through
    the third driver — :class:`~repro.live.service.LiveService` in
    deterministic replay — so cross-driver drift in the shared core
    fails ``--check``.

Run via ``python -m repro.bench`` (see :mod:`repro.bench.__main__`); the
committed ``BENCH_sim.json`` baseline is regenerated with ``--output``
(which enforces the acceptance floors) and guarded in CI with
``--check`` (which fails on fingerprint drift or a >20% speedup
regression relative to the baseline).
"""

from __future__ import annotations

import json
import random
import zlib
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..config import DEFAULT_CONFIG
from ..cpu.timing import measure_indexing
from ..db.column import Column
from ..db.datagen import make_rng, probe_keys, unique_keys
from ..db.hashfn import ROBUST_HASH_32
from ..db.hashtable import HashIndex, choose_num_buckets
from ..db.node import KERNEL_LAYOUT
from ..db.types import DataType
from ..mem.cache import CacheArray
from ..mem.hierarchy import MemoryHierarchy
from ..mem.layout import AddressSpace
from ..mem.pimside import PimBankMemory
from ..mem.reference import ReferenceCacheArray, use_reference_arrays
from ..pim import (ReferencePimUnit, pim_config,
                   use_reference_pim_memory)
from ..serve.faults import WalkerFaultModel
from ..serve.policies import FifoPolicy, parse_policy
from ..serve.service import ServiceModel, measure_service
from ..serve.simulate import (ResilienceConfig, build_requests,
                              simulate_service)
from ..sim.bulk import bulk_measure_indexing
from ..sim.engine import Engine
from ..sim.reference import ReferenceEngine
from ..widx.offload import (offload_batched_tree, offload_probe,
                            offload_trie_search)
from ..widx.reference import ReferenceWidxUnit
from ..workloads.ordered_kernel import build_ordered_workload

#: Acceptance floors (ISSUE): minimum speedup each benchmark must show
#: when a new baseline is generated with ``--output``.
FLOORS: Dict[str, float] = {
    "engine_dispatch": 1.5,
    "cache_probe": 1.5,
    "fig8_point": 1.25,
    # The PIM stack's hot loop is the same interpreter + engine; the
    # bank-port model is cheap on both sides, so the optimized stack
    # must still beat the naive twin, if by a smaller margin.
    "pim_fig8_point": 1.0,
    # The ordered offloads run the same interpreter + engine hot loop as
    # fig8_point; the trie walk adds prefetch TOUCHes (cheap on both
    # stacks) and the batched walk is dominated by in-register compares,
    # so both must still clearly beat the naive twin.
    "trie_fig8_point": 1.25,
    "batched_tree_serve": 1.25,
    "bulk_fig8_point": 5.0,
    "bulk_serve_sweep": 10.0,
    # Parity benchmark: the resilient clean path versus the plain DES.
    # The floor bounds overhead (resilient may cost at most 2x plain)
    # instead of demanding a speedup.
    "resilience_sweep": 0.5,
    # Refactor guard: the resilient path measured 0.83x plain before the
    # serving core was extracted into repro.serve.core; this floor
    # allows the extraction at most ~5% additional overhead on top.
    "serve_core_refactor": 0.79,
}

#: ``--check`` tolerance: fail if the measured speedup drops below
#: ``baseline_speedup * (1 - REGRESSION_TOLERANCE)``.
REGRESSION_TOLERANCE = 0.20

SCHEMA = "repro-bench/1"


@dataclass
class BenchResult:
    """Outcome of one optimized-vs-reference measurement."""

    name: str
    optimized_s: float
    reference_s: float
    fingerprint: Dict[str, object] = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        return self.reference_s / self.optimized_s

    @property
    def floor(self) -> float:
        return FLOORS[self.name]

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form: speedup, both timings, floor and fingerprint."""
        return {
            "speedup": round(self.speedup, 4),
            "optimized_s": round(self.optimized_s, 6),
            "reference_s": round(self.reference_s, 6),
            "floor": self.floor,
            "fingerprint": self.fingerprint,
        }


def _crc(value: object) -> int:
    """Stable checksum of a repr — compact fingerprint for large results."""
    return zlib.crc32(repr(value).encode("ascii"))


def _stable_crc(payload: object) -> int:
    """Checksum of a JSON-ready payload, insensitive to dict insertion
    order (bulk and DES runs build equal dicts in different orders)."""
    return zlib.crc32(json.dumps(payload, sort_keys=True).encode("ascii"))


def _time_best(setup: Callable[[], object], run: Callable[[object], object],
               repeats: int,
               key: Optional[Callable[[object], object]] = None
               ) -> Tuple[float, object]:
    """Best-of-``repeats`` wall time; asserts every repeat's result is
    identical (the workloads are deterministic by construction).

    ``key``, when given, reduces the run's outcome to a comparable
    fingerprint *outside* the timed region — checksumming a large result
    can rival the optimized stack's own runtime, which would otherwise
    compress the reported speedup.
    """
    best_time: Optional[float] = None
    result: object = None
    for attempt in range(repeats):
        elapsed, keyed = _time_once(setup, run, key)
        if attempt == 0:
            result = keyed
        elif keyed != result:
            raise AssertionError("non-deterministic benchmark run")
        if best_time is None or elapsed < best_time:
            best_time = elapsed
    return best_time, result


def _time_once(setup: Callable[[], object], run: Callable[[object], object],
               key: Optional[Callable[[object], object]] = None
               ) -> Tuple[float, object]:
    """One setup + timed run; the key reduction stays untimed."""
    state = setup()
    start = perf_counter()
    outcome = run(state)
    elapsed = perf_counter() - start
    return elapsed, key(outcome) if key is not None else outcome


# ----------------------------------------------------------------------
# engine_dispatch: wakeup storm on the discrete-event engine
# ----------------------------------------------------------------------

_ENGINE_PROCS = 40
_ENGINE_STEPS = 400


def _engine_workload(engine: Engine) -> List[Tuple[str, float]]:
    """Spawn the storm and run it; returns the completion trace."""
    completions: List[Tuple[str, float]] = []

    def worker(name: str, seed: int):
        rng = random.Random(seed)
        for _ in range(_ENGINE_STEPS):
            yield rng.random() * 4.0
        completions.append((name, engine.now))

    for index in range(_ENGINE_PROCS):
        name = f"w{index}"
        engine.process(worker(name, 1000 + index), name=name)
    engine.run()
    return completions


def bench_engine_dispatch(repeats: int) -> BenchResult:
    """Time the optimized engine against the linear-scan reference."""

    def run(engine):
        trace = _engine_workload(engine)
        return (round(engine.now, 9), engine.dispatched.value, tuple(trace))

    optimized_s, opt = _time_best(Engine, run, repeats)
    reference_s, ref = _time_best(ReferenceEngine, run, repeats)
    if opt != ref:
        raise AssertionError(
            "engine benchmark: optimized and reference runs diverged")
    final_now, dispatched, trace = opt
    return BenchResult(
        name="engine_dispatch",
        optimized_s=optimized_s,
        reference_s=reference_s,
        fingerprint={
            "final_now": final_now,
            "dispatched": dispatched,
            "trace_crc": _crc(trace),
        },
    )


# ----------------------------------------------------------------------
# cache_probe: lookup-dominated storm on the LLC tag array
# ----------------------------------------------------------------------

_CACHE_OPS = 400_000
_CACHE_SEED = 5
_CACHE_LOOKUP_FRACTION = 0.9


def _cache_ops() -> List[Tuple[bool, int]]:
    """Deterministic (is_lookup, block) op stream over the LLC footprint."""
    cfg = DEFAULT_CONFIG.llc
    footprint = cfg.num_sets * cfg.associativity  # exactly one capacity
    rng = random.Random(_CACHE_SEED)
    ops = []
    for _ in range(_CACHE_OPS):
        is_lookup = rng.random() < _CACHE_LOOKUP_FRACTION
        ops.append((is_lookup, rng.randrange(footprint)))
    return ops


def _cache_workload(array, ops) -> Tuple[int, int, int]:
    """Apply the op stream; returns (hits, victims_crc, resident)."""
    hits = 0
    victims: List[int] = []
    lookup = array.lookup
    insert = array.insert
    for is_lookup, block in ops:
        if is_lookup:
            if lookup(block):
                hits += 1
        else:
            victim = insert(block)
            if victim is not None:
                victims.append(victim)
    return hits, _crc(victims), array.resident_blocks()


def bench_cache_probe(repeats: int) -> BenchResult:
    """Time the flat tick-LRU array against the recency-list reference."""
    cfg = DEFAULT_CONFIG.llc
    ops = _cache_ops()

    optimized_s, opt = _time_best(
        lambda: CacheArray(cfg), lambda array: _cache_workload(array, ops),
        repeats)
    reference_s, ref = _time_best(
        lambda: ReferenceCacheArray(cfg),
        lambda array: _cache_workload(array, ops), repeats)
    if opt != ref:
        raise AssertionError(
            "cache benchmark: optimized and reference arrays diverged")
    hits, victims_crc, resident = opt
    return BenchResult(
        name="cache_probe",
        optimized_s=optimized_s,
        reference_s=reference_s,
        fingerprint={
            "ops": _CACHE_OPS,
            "hits": hits,
            "victims_crc": victims_crc,
            "resident": resident,
        },
    )


# ----------------------------------------------------------------------
# fig8_point: one full offloaded bulk probe, optimized vs naive stack
# ----------------------------------------------------------------------

_FIG8_KEYS = 20_000
_FIG8_PROBES = 2_000
_FIG8_WALKERS = 4


def _build_fig8_inputs() -> Tuple[HashIndex, Column]:
    """A hash-join style index plus a fully-matching probe column.

    Rebuilt for every timed run so simulated addresses — and therefore
    simulated cycles — are identical across repeats and stacks.
    """
    space = AddressSpace()
    keys = unique_keys(_FIG8_KEYS, 4, make_rng(11))
    index = HashIndex(space, KERNEL_LAYOUT,
                      choose_num_buckets(_FIG8_KEYS, 1.0),
                      ROBUST_HASH_32, capacity=_FIG8_KEYS)
    index.build(keys, np.arange(1, _FIG8_KEYS + 1))
    values = probe_keys(np.asarray(keys), _FIG8_PROBES, 1.0, 4, make_rng(13))
    column = Column("probes", DataType.for_key_bytes(4), values)
    column.materialize(space)
    return index, column


def _fig8_outcome_key(outcome) -> Tuple:
    unit_counts = tuple(
        (name, stats.instructions.value, stats.invocations.value)
        for name, stats in sorted(outcome.run.unit_stats.items()))
    return (outcome.run.total_cycles, outcome.run.matches,
            tuple(outcome.payloads), unit_counts)


def bench_fig8_point(repeats: int) -> BenchResult:
    """Time one Figure-8 point end-to-end against the full naive stack."""
    config = DEFAULT_CONFIG.with_widx(num_walkers=_FIG8_WALKERS)

    def run_optimized(state):
        index, column = state
        outcome = offload_probe(index, column, config=config,
                                probes=_FIG8_PROBES)
        return _fig8_outcome_key(outcome)

    def run_reference(state):
        index, column = state
        outcome = offload_probe(
            index, column, config=config, probes=_FIG8_PROBES,
            memory=use_reference_arrays(MemoryHierarchy(config)),
            engine=ReferenceEngine(),
            unit_cls=ReferenceWidxUnit)
        return _fig8_outcome_key(outcome)

    optimized_s, opt = _time_best(_build_fig8_inputs, run_optimized, repeats)
    reference_s, ref = _time_best(_build_fig8_inputs, run_reference, repeats)
    if opt != ref:
        raise AssertionError(
            "fig8 benchmark: optimized and reference stacks diverged")
    total_cycles, matches, payloads, unit_counts = opt
    return BenchResult(
        name="fig8_point",
        optimized_s=optimized_s,
        reference_s=reference_s,
        fingerprint={
            "total_cycles": total_cycles,
            "matches": matches,
            "payloads_crc": _crc(payloads),
            "instructions": sum(count[1] for count in unit_counts),
        },
    )


# ----------------------------------------------------------------------
# pim_fig8_point: the same offload on bank-side walkers, vs naive stack
# ----------------------------------------------------------------------

_PIM_BANKS = 8


def bench_pim_fig8_point(repeats: int) -> BenchResult:
    """Time one bank-side (PIM) Figure-8 point against its naive stack.

    Same workload and walker count as ``fig8_point``, but the offload
    runs on walkers colocated with the DRAM banks.  The reference twin
    swaps in the naive engine, the naive interpreter and the reference
    bank-buffer array, and the two stacks must agree bit-for-bit on
    cycles, matches and payloads before a speedup is reported.
    """
    config = pim_config(walkers=_FIG8_WALKERS, banks=_PIM_BANKS)

    def run_optimized(state):
        index, column = state
        outcome = offload_probe(index, column, config=config,
                                probes=_FIG8_PROBES)
        return _fig8_outcome_key(outcome)

    def run_reference(state):
        index, column = state
        outcome = offload_probe(
            index, column, config=config, probes=_FIG8_PROBES,
            memory=use_reference_pim_memory(PimBankMemory(config)),
            engine=ReferenceEngine(),
            unit_cls=ReferencePimUnit)
        return _fig8_outcome_key(outcome)

    optimized_s, opt = _time_best(_build_fig8_inputs, run_optimized, repeats)
    reference_s, ref = _time_best(_build_fig8_inputs, run_reference, repeats)
    if opt != ref:
        raise AssertionError(
            "pim benchmark: optimized and reference stacks diverged")
    total_cycles, matches, payloads, unit_counts = opt
    return BenchResult(
        name="pim_fig8_point",
        optimized_s=optimized_s,
        reference_s=reference_s,
        fingerprint={
            "banks": _PIM_BANKS,
            "total_cycles": total_cycles,
            "matches": matches,
            "payloads_crc": _crc(payloads),
            "instructions": sum(count[1] for count in unit_counts),
        },
    )


# ----------------------------------------------------------------------
# trie_fig8_point / batched_tree_serve: the ordered-index zoo's offloads
# ----------------------------------------------------------------------

_ORDERED_BENCH_SIZE = "Small"
_ORDERED_BENCH_PROBES = 2_048
_BATCHED_BENCH_BATCH = 4
#: The serving layer's batched column calibrates these batch sizes
#: (``CALIBRATED_BATCHES x KEYS_PER_REQUEST`` in the fig-serve sweep).
_BATCHED_SERVE_KEYS = (8, 16, 32)


def _build_trie_bench_inputs():
    """The ordered Small trie plus its fully-matching probe column —
    the same recipe the fig-indexes trie row measures, rebuilt per run
    so simulated addresses are identical across repeats and stacks."""
    return build_ordered_workload("trie", _ORDERED_BENCH_SIZE,
                                  _ORDERED_BENCH_PROBES)


def _build_batched_bench_inputs():
    """The shared B+-tree probed level-wise by the batched walker."""
    return build_ordered_workload("batched", _ORDERED_BENCH_SIZE,
                                  _ORDERED_BENCH_PROBES)


def bench_trie_fig8_point(repeats: int) -> BenchResult:
    """Time one offloaded MLP-trie probe batch against the naive stack.

    Same shape as ``fig8_point``, but the walkers run the Cuckoo-Trie
    fetch pattern — all candidate bucket addresses computed from the
    key up front, then probed depth by depth.  The reference twin swaps
    in the naive engine, naive cache arrays and naive interpreter, and
    the two stacks must agree bit-for-bit (cycles, matches, payloads)
    before a speedup is reported; the driver-side validation pass is
    disabled so the timed region is purely the simulation stacks.
    """
    config = DEFAULT_CONFIG.with_widx(num_walkers=_FIG8_WALKERS)

    def run_optimized(state):
        index, column = state
        outcome = offload_trie_search(index, column, config=config,
                                      probes=_ORDERED_BENCH_PROBES,
                                      validate=False)
        return _fig8_outcome_key(outcome)

    def run_reference(state):
        index, column = state
        outcome = offload_trie_search(
            index, column, config=config, probes=_ORDERED_BENCH_PROBES,
            validate=False,
            memory=use_reference_arrays(MemoryHierarchy(config)),
            engine=ReferenceEngine(),
            unit_cls=ReferenceWidxUnit)
        return _fig8_outcome_key(outcome)

    optimized_s, opt = _time_best(_build_trie_bench_inputs, run_optimized,
                                  repeats)
    reference_s, ref = _time_best(_build_trie_bench_inputs, run_reference,
                                  repeats)
    if opt != ref:
        raise AssertionError(
            "trie benchmark: optimized and reference stacks diverged")
    total_cycles, matches, payloads, unit_counts = opt
    return BenchResult(
        name="trie_fig8_point",
        optimized_s=optimized_s,
        reference_s=reference_s,
        fingerprint={
            "total_cycles": total_cycles,
            "matches": matches,
            "payloads_crc": _crc(payloads),
            "instructions": sum(count[1] for count in unit_counts),
        },
    )


def _batched_serve_key(index, column) -> Tuple[int, ...]:
    """Fingerprint the serving layer's batched column (untimed, once):
    the calibrated per-batch service times the ``--batched-tree``
    fig-serve sweep fits its model to, so drift anywhere between the
    admission queue and the coupled walker program fails ``--check``."""
    return tuple(
        measure_service(index, column, backend="batched",
                        batch_keys=batch_keys, walkers=_FIG8_WALKERS,
                        mode="coupled").cycles
        for batch_keys in _BATCHED_SERVE_KEYS)


def bench_batched_tree_serve(repeats: int) -> BenchResult:
    """Time one level-wise batched B+-tree offload against the naive
    stack — the coupled-organization walk the serving layer's
    ``batched`` backend runs for every admitted batch."""
    config = DEFAULT_CONFIG.with_widx(num_walkers=_FIG8_WALKERS,
                                      mode="coupled")

    def run_optimized(state):
        index, column = state
        outcome = offload_batched_tree(index, column, config=config,
                                       probes=_ORDERED_BENCH_PROBES,
                                       batch=_BATCHED_BENCH_BATCH,
                                       validate=False)
        return _fig8_outcome_key(outcome)

    def run_reference(state):
        index, column = state
        outcome = offload_batched_tree(
            index, column, config=config, probes=_ORDERED_BENCH_PROBES,
            batch=_BATCHED_BENCH_BATCH, validate=False,
            memory=use_reference_arrays(MemoryHierarchy(config)),
            engine=ReferenceEngine(),
            unit_cls=ReferenceWidxUnit)
        return _fig8_outcome_key(outcome)

    optimized_s, opt = _time_best(_build_batched_bench_inputs, run_optimized,
                                  repeats)
    reference_s, ref = _time_best(_build_batched_bench_inputs, run_reference,
                                  repeats)
    if opt != ref:
        raise AssertionError(
            "batched tree benchmark: optimized and reference stacks "
            "diverged")
    serve_cycles = _batched_serve_key(*_build_batched_bench_inputs())
    total_cycles, matches, payloads, unit_counts = opt
    return BenchResult(
        name="batched_tree_serve",
        optimized_s=optimized_s,
        reference_s=reference_s,
        fingerprint={
            "batch": _BATCHED_BENCH_BATCH,
            "total_cycles": total_cycles,
            "matches": matches,
            "payloads_crc": _crc(payloads),
            "instructions": sum(count[1] for count in unit_counts),
            "serve_cycles": list(serve_cycles),
        },
    )


# ----------------------------------------------------------------------
# bulk_fig8_point: array-program replay vs the event-driven baseline core
# ----------------------------------------------------------------------

_BULK_WARMUP = 512


def _timing_result_key(result) -> Tuple:
    fields = tuple(getattr(result, name)
                   for name in result.__dataclass_fields__ if name != "stats")
    return fields + (_stable_crc(result.stats),)


def bench_bulk_fig8_point(repeats: int) -> BenchResult:
    """Time one baseline-core Figure-8 measurement in bulk mode.

    The reference twin is the production event-driven path — bulk mode's
    contract is bit identity with it, so the two runs must agree on
    every result field and the full stats registry before a speedup is
    reported.
    """
    def run_bulk(state):
        index, column = state
        return bulk_measure_indexing(index, column, core="ooo",
                                     warmup_probes=_BULK_WARMUP)

    def run_des(state):
        index, column = state
        return measure_indexing(index, column, core="ooo",
                                warmup_probes=_BULK_WARMUP)

    optimized_s, opt = _time_best(_build_fig8_inputs, run_bulk, repeats,
                                  key=_timing_result_key)
    reference_s, ref = _time_best(_build_fig8_inputs, run_des, repeats,
                                  key=_timing_result_key)
    if opt != ref:
        raise AssertionError(
            "bulk_fig8_point benchmark: bulk and DES runs diverged")
    return BenchResult(
        name="bulk_fig8_point",
        optimized_s=optimized_s,
        reference_s=reference_s,
        fingerprint={
            "cycles_per_tuple": opt[1],
            "tuples": opt[3],
            "stats_crc": opt[-1],
        },
    )


# ----------------------------------------------------------------------
# bulk_serve_sweep: array replay of a fig-serve offered-load sweep
# ----------------------------------------------------------------------

#: Mirrors the fig-serve sweep geometry (five fractions of saturation,
#: fifo policy, four cores); the request count per level is raised from
#: the figure's 512 so both stacks time in a noise-robust range.
_SERVE_FRACTIONS = (0.3, 0.5, 0.7, 0.85, 0.95)
_SERVE_REQUESTS = 8_192
_SERVE_CORES = 4
_SERVE_CLIENTS = 4
_SERVE_SEED = 7


def _build_serve_inputs():
    """The service model and one Poisson stream per offered-load level."""
    model = ServiceModel("bench", 8,
                         {1: 840.0, 4: 2260.0, 16: 7400.0, 64: 26000.0})
    saturation = _SERVE_CORES * model.saturation_rate()
    streams = []
    for fraction in _SERVE_FRACTIONS:
        rate = fraction * saturation
        streams.append((rate, build_requests(
            rate, _SERVE_REQUESTS, model.keys_per_request,
            clients=_SERVE_CLIENTS, seed=_SERVE_SEED)))
    return model, streams


def _run_serve_sweep(model, streams, bulk: bool) -> List:
    return [simulate_service(requests, model, policy=FifoPolicy(),
                             cores=_SERVE_CORES, offered=rate, bulk=bulk)
            for rate, requests in streams]


def _serve_sweep_key(results) -> Tuple:
    return tuple((result.completed, result.makespan, result.achieved,
                  _stable_crc(result.latency.to_dict()),
                  _stable_crc(result.stats))
                 for result in results)


def bench_bulk_serve_sweep(repeats: int) -> BenchResult:
    """Time a fifo offered-load sweep in bulk mode vs the serving DES."""
    def run_bulk(state):
        model, streams = state
        return _run_serve_sweep(model, streams, bulk=True)

    def run_des(state):
        model, streams = state
        return _run_serve_sweep(model, streams, bulk=False)

    optimized_s, opt = _time_best(_build_serve_inputs, run_bulk, repeats,
                                  key=_serve_sweep_key)
    reference_s, ref = _time_best(_build_serve_inputs, run_des, repeats,
                                  key=_serve_sweep_key)
    if opt != ref:
        raise AssertionError(
            "bulk_serve_sweep benchmark: bulk and DES runs diverged")
    return BenchResult(
        name="bulk_serve_sweep",
        optimized_s=optimized_s,
        reference_s=reference_s,
        fingerprint={
            "levels": len(opt),
            "completed": sum(level[0] for level in opt),
            "sweep_crc": _crc(opt),
        },
    )


# ----------------------------------------------------------------------
# resilience_sweep: the resilient serving path vs the plain DES
# ----------------------------------------------------------------------

#: Three fractions straddle saturation so the sweep exercises an idle,
#: a busy, and an overloaded queue; the request count keeps both DES
#: runs in a noise-robust timing range.
_RESILIENCE_FRACTIONS = (0.5, 0.9, 1.4)
_RESILIENCE_REQUESTS = 4_096
_RESILIENCE_SLO = 30_000.0
_RESILIENCE_FAULT_RATE = 40.0


def _build_resilience_inputs():
    """The serve-bench model and one Poisson stream per load level."""
    model = ServiceModel("bench", 8,
                         {1: 840.0, 4: 2260.0, 16: 7400.0, 64: 26000.0})
    saturation = _SERVE_CORES * model.saturation_rate()
    streams = []
    for fraction in _RESILIENCE_FRACTIONS:
        rate = fraction * saturation
        streams.append((rate, build_requests(
            rate, _RESILIENCE_REQUESTS, model.keys_per_request,
            clients=_SERVE_CLIENTS, seed=_SERVE_SEED)))
    return model, streams


def _run_resilience_sweep(model, streams,
                          resilience: Optional[ResilienceConfig]) -> List:
    return [simulate_service(requests, model, policy=FifoPolicy(),
                             cores=_SERVE_CORES, offered=rate,
                             resilience=resilience)
            for rate, requests in streams]


#: Counters only the resilient path registers; on a clean SLO-only run
#: they are all zero, so parity drops them (asserting the zeros) before
#: comparing against the plain DES, which never creates them.
_RESILIENCE_ONLY_STATS = ("serve.aborts", "serve.expired",
                          "serve.in_slo", "serve.shed")


def _resilience_parity_key(results) -> Tuple:
    key = []
    for result in results:
        stats = dict(result.stats)
        for name in _RESILIENCE_ONLY_STATS:
            counter = stats.pop(name, None)
            value = 0 if counter is None else counter["value"]
            if value not in (0, result.in_slo):
                raise AssertionError(
                    f"clean resilient run tripped {name!r}")
        key.append((result.completed, result.makespan, result.achieved,
                    _stable_crc(result.latency.to_dict()),
                    _stable_crc(stats)))
    return tuple(key)


def _resilience_faulted_key(model, streams) -> Tuple:
    """Fingerprint a seeded shed+fault+fallback sweep (untimed, once):
    the degraded-mode machinery — walker deaths, capacity scaling, the
    host fallback, admission shedding, deadline accounting — all feed
    this checksum, so behavioural drift fails ``--check``."""
    faults = WalkerFaultModel(seed=_SERVE_SEED,
                              rate=_RESILIENCE_FAULT_RATE,
                              walkers_per_core=2)
    resilience = ResilienceConfig(slo=_RESILIENCE_SLO, faults=faults,
                                  fallback=model.scaled(2.5))
    results = [simulate_service(requests, model,
                                policy=parse_policy("shed:32"),
                                cores=_SERVE_CORES, offered=rate,
                                resilience=resilience)
               for rate, requests in streams]
    return tuple((result.completed, result.shed, result.expired,
                  result.faults, result.in_slo, result.makespan,
                  _stable_crc(result.latency.to_dict()))
                 for result in results)


def bench_resilience_sweep(repeats: int) -> BenchResult:
    """Time the resilient serving path (SLO armed, nothing tripping)
    against the plain DES on the same sweep, asserting bit identity —
    the clean-path parity contract the serving tests pin per point."""
    def run_resilient(state):
        model, streams = state
        return _run_resilience_sweep(
            model, streams, ResilienceConfig(slo=_RESILIENCE_SLO))

    def run_plain(state):
        model, streams = state
        return _run_resilience_sweep(model, streams, None)

    optimized_s, opt = _time_best(_build_resilience_inputs, run_resilient,
                                  repeats, key=_resilience_parity_key)
    reference_s, ref = _time_best(_build_resilience_inputs, run_plain,
                                  repeats, key=_resilience_parity_key)
    if opt != ref:
        raise AssertionError(
            "resilience_sweep benchmark: resilient clean path diverged "
            "from the plain DES")
    faulted = _resilience_faulted_key(*_build_resilience_inputs())
    return BenchResult(
        name="resilience_sweep",
        optimized_s=optimized_s,
        reference_s=reference_s,
        fingerprint={
            "levels": len(opt),
            "completed": sum(level[0] for level in opt),
            "sweep_crc": _crc(opt),
            "faulted_served": sum(level[0] for level in faulted),
            "faulted_shed": sum(level[1] for level in faulted),
            "faulted_crc": _crc(faulted),
        },
    )


# ----------------------------------------------------------------------
# serve_core_refactor: the extracted serving core's overhead and its
# cross-driver identity
# ----------------------------------------------------------------------

#: Requests replayed through the live driver for the cross-driver
#: fingerprint (untimed; kept small so --check stays fast).
_CORE_REFACTOR_SLICE = 512


def _live_replay_key(model, streams) -> Tuple:
    """Fingerprint the extracted core through its third driver.

    Replays a slice of the sweep's lowest-load stream through
    :class:`~repro.live.service.LiveService` on a manual clock — the
    same :class:`~repro.serve.core.ServingCore` the DES exercises, fed
    by a completely different driver.  Core drift that happens to keep
    the DES goldens green still shows up here.
    """
    from ..live.clock import ManualClock
    from ..live.service import LiveService

    _rate, requests = streams[0]
    service = LiveService(model, policy=FifoPolicy(), cores=_SERVE_CORES,
                          resilience=ResilienceConfig(slo=_RESILIENCE_SLO),
                          clock=ManualClock())
    for request in requests[:_CORE_REFACTOR_SLICE]:
        service.clock.advance_to(request.arrival)
        service.offer(keys=request.keys, now=request.arrival)
    service.close()
    service.drain()
    result = service.result()
    return (result.completed, result.in_slo, round(result.makespan, 6),
            _stable_crc(result.latency.to_dict()))


def bench_serve_core_refactor(repeats: int) -> BenchResult:
    """Guard the serving-core extraction: tight overhead floor plus a
    cross-driver identity fingerprint.

    Times the ServingCore-backed resilient path against the plain DES
    on the ``resilience_sweep`` geometry — the pre-extraction ratio was
    0.83x, and the 0.79 floor caps the extraction's own cost at ~5%.
    The two sides are timed *interleaved* (plain then resilient within
    each repeat) and the reported ratio comes from the best repeat-pair:
    with a tight floor, background-load drift between two sequential
    timing blocks would dominate the <5% signal this benchmark exists
    to detect, while within one pair both sides see comparable load.
    """
    def run_core(state):
        model, streams = state
        return _run_resilience_sweep(
            model, streams, ResilienceConfig(slo=_RESILIENCE_SLO))

    def run_plain(state):
        model, streams = state
        return _run_resilience_sweep(model, streams, None)

    optimized_s = reference_s = None
    opt = ref = None
    for attempt in range(repeats):
        elapsed_ref, keyed_ref = _time_once(
            _build_resilience_inputs, run_plain, _resilience_parity_key)
        elapsed_opt, keyed_opt = _time_once(
            _build_resilience_inputs, run_core, _resilience_parity_key)
        if attempt == 0:
            ref, opt = keyed_ref, keyed_opt
        elif (keyed_ref, keyed_opt) != (ref, opt):
            raise AssertionError("non-deterministic benchmark run")
        if (reference_s is None
                or elapsed_ref / elapsed_opt > reference_s / optimized_s):
            reference_s, optimized_s = elapsed_ref, elapsed_opt
    if opt != ref:
        raise AssertionError(
            "serve_core_refactor benchmark: the extracted core's clean "
            "path diverged from the plain DES")
    live = _live_replay_key(*_build_resilience_inputs())
    return BenchResult(
        name="serve_core_refactor",
        optimized_s=optimized_s,
        reference_s=reference_s,
        fingerprint={
            "levels": len(opt),
            "completed": sum(level[0] for level in opt),
            "sweep_crc": _crc(opt),
            "live_completed": live[0],
            "live_in_slo": live[1],
            "live_crc": _crc(live),
        },
    )


BENCHMARKS: Dict[str, Callable[[int], BenchResult]] = {
    "engine_dispatch": bench_engine_dispatch,
    "cache_probe": bench_cache_probe,
    "fig8_point": bench_fig8_point,
    "pim_fig8_point": bench_pim_fig8_point,
    "trie_fig8_point": bench_trie_fig8_point,
    "batched_tree_serve": bench_batched_tree_serve,
    "bulk_fig8_point": bench_bulk_fig8_point,
    "bulk_serve_sweep": bench_bulk_serve_sweep,
    "resilience_sweep": bench_resilience_sweep,
    "serve_core_refactor": bench_serve_core_refactor,
}


def run_benchmarks(repeats: int = 3,
                   only: Optional[List[str]] = None) -> List[BenchResult]:
    """Run the selected benchmarks (all by default), in declaration order."""
    names = list(BENCHMARKS) if not only else only
    results = []
    for name in names:
        if name not in BENCHMARKS:
            raise KeyError(f"unknown benchmark {name!r}; "
                           f"choose from {sorted(BENCHMARKS)}")
        results.append(BENCHMARKS[name](repeats))
    return results
