"""Shared measurement machinery for the per-figure drivers.

Building a scaled index takes seconds and several figures reuse the same
measurements (Figure 10's speedups come from Figure 9's runs; Figure 11
aggregates both), so measurements are memoized in a process-wide
:class:`MeasurementCache`.  The cache can additionally be backed by a
persistent :class:`~repro.harness.cachestore.CacheStore`: on an in-memory
miss the store is consulted first, and freshly measured points are written
back, so repeated or resumed campaigns are near-instant.

Cache keys are content hashes over the full :class:`SystemConfig`, the
:class:`RunSettings` and the measurement point (see :func:`measurement_key`)
— never positional, so a store directory can be shared across
configurations, seeds and probe volumes without collisions.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterable, Optional, Tuple

from ..config import SystemConfig, DEFAULT_CONFIG, stable_digest
from ..cpu.ordered import measure_ordered_indexing
from ..cpu.timing import CoreTimingResult, measure_indexing
from ..errors import (ConfigError, InvariantViolation, MeasurementFailed,
                      SimulationHang)
from ..obs import StatsRegistry
from ..serve.service import measure_service
from ..sim.watchdog import Watchdog, WatchdogLimits
from ..widx.offload import (OffloadOutcome, offload_batched_tree,
                            offload_probe, offload_tree_search,
                            offload_trie_search, offload_wormhole_search)
from ..widx.unit import UnitCycleBreakdown
from ..workloads.hashjoin_kernel import build_kernel_workload
from ..workloads.ordered_kernel import build_ordered_workload
from ..workloads.queryspec import QuerySpec, build_query_index
from .cachestore import (CacheDecodeError, CacheStore, decode_measurement,
                         encode_measurement)


@dataclass(frozen=True)
class RunSettings:
    """Probe-volume settings shared by an experiment campaign."""

    probes: int = 3_000
    warmup: int = 600
    seed: int = 42

    def __post_init__(self) -> None:
        # Mirrors the CLI's --probes/--warmup guard: direct constructors
        # must not be able to produce a zero/negative measured count.
        if self.probes <= 0:
            raise ConfigError(f"probes must be positive, got {self.probes}")
        if self.warmup < 0:
            raise ConfigError(f"warmup must be >= 0, got {self.warmup}")
        if self.warmup >= self.probes:
            raise ConfigError(
                f"probes ({self.probes}) must exceed warmup ({self.warmup}); "
                f"nothing would be measured")

    @property
    def measured(self) -> int:
        return self.probes - self.warmup


DEFAULT_RUNS = RunSettings()

#: A lighter setting for unit tests and quick sanity runs.
QUICK_RUNS = RunSettings(probes=1_200, warmup=300)


def measurement_key(config: SystemConfig, runs: RunSettings,
                    point: Tuple) -> str:
    """Stable content hash identifying one measurement.

    ``point`` is the in-memory cache tuple, e.g. ``("baseline", "kernel",
    "Small", "ooo")`` or ``("widx", "query", "tpch:20", 4, "shared")``.
    The hash covers the complete system configuration and run settings, so
    any parameter change re-measures instead of aliasing.
    """
    return stable_digest({
        "config": config.canonical_dict(),
        "runs": asdict(runs),
        "point": list(point),
    })


#: Baselines measure before offloads; OoO before in-order (driver order).
_CORE_ORDER = {"ooo": 0, "inorder": 1}


@dataclass(frozen=True)
class MeasurementPoint:
    """One simulator run a figure needs: a workload on a core or on Widx."""

    kind: str          # "kernel" | "query" | "ordered"
    name: str          # kernel size ("Small"), query id ("tpch:20") or
                       # ordered workload ("trie:Small")
    op: str            # "baseline" | "widx" | "pim" | "serve" | "index"
    core: str = ""     # baseline: "ooo" | "inorder"; serve: backend;
                       # index: "ooo" | "inorder" | "widx"
    walkers: int = 0   # widx / pim / serve-on-widx / index-on-widx only
    mode: str = ""     # widx / pim / serve-on-widx only: Widx organization
    batch: int = 0     # serve only: probe keys in the calibrated batch
    banks: int = 0     # pim only: DRAM banks the walkers interleave over

    def cache_tuple(self) -> Tuple:
        """The :class:`MeasurementCache` key this point populates."""
        if self.op == "baseline":
            return ("baseline", self.kind, self.name, self.core)
        if self.op == "serve":
            return ("serve", self.kind, self.name, self.core,
                    self.walkers, self.mode, self.batch)
        if self.op == "pim":
            return ("pim", self.kind, self.name, self.walkers, self.mode,
                    self.banks)
        if self.op == "index":
            return ("index", self.kind, self.name, self.core,
                    self.walkers, self.mode)
        return ("widx", self.kind, self.name, self.walkers, self.mode)

    @property
    def workload(self) -> Tuple[str, str]:
        return (self.kind, self.name)

    def order_key(self) -> Tuple:
        """Canonical within-workload measurement order (baselines first,
        then Widx by ascending walker count; see
        :mod:`repro.harness.campaign`)."""
        if self.op == "baseline":
            return (0, _CORE_ORDER.get(self.core, 99), self.core)
        if self.op == "serve":
            return (3, _CORE_ORDER.get(self.core, 99), self.core,
                    self.walkers, self.mode, self.batch)
        if self.op == "pim":
            return (2, self.banks, self.walkers, self.mode)
        if self.op == "index":
            if self.core in _CORE_ORDER:
                return (0, _CORE_ORDER[self.core], self.core)
            return (1, self.walkers, self.mode)
        return (1, self.walkers, self.mode)


def baseline_point(kind: str, name: str, core: str) -> MeasurementPoint:
    """A baseline-core measurement point."""
    return MeasurementPoint(kind=kind, name=name, op="baseline", core=core)


def widx_point(kind: str, name: str, walkers: int,
               mode: str = "shared") -> MeasurementPoint:
    """A Widx-offload measurement point."""
    return MeasurementPoint(kind=kind, name=name, op="widx",
                            walkers=walkers, mode=mode)


def pim_point(kind: str, name: str, walkers: int, banks: int,
              mode: str = "shared") -> MeasurementPoint:
    """A near-memory (bank-side walker) offload measurement point."""
    return MeasurementPoint(kind=kind, name=name, op="pim",
                            walkers=walkers, mode=mode, banks=banks)


def serve_point(kind: str, name: str, backend: str, batch_keys: int,
                walkers: int = 0, mode: str = "") -> MeasurementPoint:
    """A serving-layer service-time calibration point."""
    return MeasurementPoint(kind=kind, name=name, op="serve", core=backend,
                            walkers=walkers, mode=mode, batch=batch_keys)


def index_point(name: str, core: str, walkers: int = 0,
                mode: str = "") -> MeasurementPoint:
    """An ordered-index zoo measurement point.

    ``name`` is ``"<class>:<size>"`` (e.g. ``"trie:Small"``); ``core`` is
    a baseline core (``"ooo"``/``"inorder"``) or ``"widx"`` with a walker
    count and organization.
    """
    return MeasurementPoint(kind="ordered", name=name, op="index",
                            core=core, walkers=walkers, mode=mode)


@dataclass
class WorkloadMeasurement:
    """Everything measured for one workload (kernel size or query)."""

    name: str
    ooo: Optional[CoreTimingResult] = None
    inorder: Optional[CoreTimingResult] = None
    widx: Dict[int, OffloadOutcome] = field(default_factory=dict)

    def speedup(self, walkers: int) -> float:
        """Widx indexing speedup over the OoO baseline."""
        if self.ooo is None or walkers not in self.widx:
            raise KeyError(f"{self.name}: missing measurement for {walkers} walkers")
        return self.ooo.cycles_per_tuple / self.widx[walkers].cycles_per_tuple

    def walker_breakdown(self, walkers: int) -> UnitCycleBreakdown:
        """Per-tuple walker cycle breakdown at a walker count."""
        return self.widx[walkers].run.walker_cycles_per_tuple()


class MeasurementCache:
    """Memoizes workload builds and measurements across figure drivers.

    With a ``store``, the memory cache is write-through: misses consult the
    store before simulating, and fresh measurements are persisted.  A
    corrupt or stale store entry is silently discarded and re-measured; a
    transient store IO error (flaky NFS, disk pressure) is swallowed and
    counted rather than crashing a campaign — the store is an
    optimization, never a point of failure.

    ``watchdog_limits`` budgets each simulated measurement (livelock,
    cycle and wall-clock ceilings; see
    :class:`~repro.sim.watchdog.WatchdogLimits`).  Budgets are *not* part
    of the cache key: they bound how long a measurement may take, not what
    it computes.

    Points that exhausted their campaign retries are *poisoned* via
    :meth:`poison`: asking for one raises
    :class:`~repro.errors.MeasurementFailed` immediately, so a figure
    driver reports the failure instead of silently re-simulating (or
    re-hanging) in-process.
    """

    def __init__(self, config: SystemConfig = DEFAULT_CONFIG,
                 runs: RunSettings = DEFAULT_RUNS,
                 store: Optional[CacheStore] = None,
                 watchdog_limits: Optional[WatchdogLimits] = None) -> None:
        self.config = config
        self.runs = runs
        self.store = store
        self.watchdog_limits = watchdog_limits
        self._kernel_workloads: Dict[str, tuple] = {}
        self._query_workloads: Dict[str, tuple] = {}
        self._ordered_workloads: Dict[str, tuple] = {}
        self._measurements: Dict[Tuple, object] = {}
        self._poisoned: Dict[Tuple, str] = {}
        self.measured_points = 0   # simulated in this process
        self.store_hits = 0        # loaded from the persistent store
        self.store_errors = 0      # transient store IO errors survived

    # --- workload construction (cached) --------------------------------

    def kernel_workload(self, size: str):
        """Build (or reuse) one kernel size's index + probes."""
        if size not in self._kernel_workloads:
            self._kernel_workloads[size] = build_kernel_workload(
                size, self.runs.probes, seed=self.runs.seed)
        return self._kernel_workloads[size]

    def query_workload(self, spec: QuerySpec):
        """Build (or reuse) one DSS query's index + probes."""
        key = f"{spec.benchmark}:{spec.number}"
        if key not in self._query_workloads:
            self._query_workloads[key] = build_query_index(
                spec, probe_count=self.runs.probes, seed=self.runs.seed)
        return self._query_workloads[key]

    def ordered_workload(self, name: str):
        """Build (or reuse) one ordered-index workload.

        ``name`` is ``"<class>:<size>"``, e.g. ``"trie:Small"``.  The
        ``btree`` and ``batched`` classes build structurally identical
        trees but are memoized separately: each measurement must see the
        address layout a fresh build produces (hermeticity), not one
        shifted by another class's earlier allocations.
        """
        if name not in self._ordered_workloads:
            index_class, _, size = name.partition(":")
            self._ordered_workloads[name] = build_ordered_workload(
                index_class, size, self.runs.probes, seed=self.runs.seed)
        return self._ordered_workloads[name]

    # --- cache plumbing -------------------------------------------------

    def point_key(self, point: Tuple) -> str:
        """The persistent-store key for one in-memory cache tuple."""
        return measurement_key(self.config, self.runs, point)

    def fetch(self, point: Tuple):
        """A cached result (memory, then store), or ``None``."""
        if point in self._measurements:
            return self._measurements[point]
        if self.store is not None:
            try:
                payload = self.store.get(self.point_key(point))
            except OSError:
                self.store_errors += 1
                return None  # transient store trouble == cache miss
            if payload is not None:
                try:
                    result = decode_measurement(payload)
                except CacheDecodeError:
                    return None  # treat like corruption: re-measure
                self._measurements[point] = result
                self.store_hits += 1
                return result
        return None

    def install(self, point: Tuple, result: object,
                persist: bool = True) -> None:
        """Adopt a result (measured here or by a campaign worker)."""
        self._measurements[point] = result
        if persist and self.store is not None:
            try:
                self.store.put(self.point_key(point), encode_measurement(result))
            except OSError:
                self.store_errors += 1  # keep the in-memory copy; move on

    # --- poisoning ------------------------------------------------------

    def poison(self, point: Tuple, reason: str) -> None:
        """Mark a point as failed-beyond-retry; measuring it raises."""
        self._poisoned[point] = reason

    def clear_poison(self, point: Tuple) -> None:
        """Give a failed point another chance (a new campaign starts)."""
        self._poisoned.pop(point, None)

    @property
    def poisoned(self) -> Dict[Tuple, str]:
        return dict(self._poisoned)

    def _check_poisoned(self, point: Tuple) -> None:
        reason = self._poisoned.get(point)
        if reason is not None:
            raise MeasurementFailed(
                f"measurement {point!r} failed its campaign retries and is "
                f"poisoned: {reason}")

    def _watchdog(self) -> Optional[Watchdog]:
        if self.watchdog_limits is None:
            return None
        return Watchdog(self.watchdog_limits)

    # --- measurements (cached) ------------------------------------------

    def measure(self, point: MeasurementPoint) -> object:
        """Measure (or reuse) one point.

        Returns a :class:`CoreTimingResult` for baseline cores, an
        :class:`OffloadOutcome` for Widx/PIM offloads and a
        :class:`ServiceMeasurement` for serving calibrations.  A hang or
        invariant violation carries a note naming the point.
        """
        key = point.cache_tuple()
        result = self.fetch(key)
        if result is None:
            self._check_poisoned(key)
            try:
                result = self._simulate(point)
            except (SimulationHang, InvariantViolation) as exc:
                if hasattr(exc, "add_note"):
                    exc.add_note(f"while measuring point {key!r}")
                raise
            self.measured_points += 1
            self.install(key, result)
        return result

    def _workload(self, kind: str, name: str):
        if kind == "kernel":
            return self.kernel_workload(name)
        if kind == "ordered":
            return self.ordered_workload(name)
        return self.query_workload(self._spec_by_name(name))

    def _simulate(self, point: MeasurementPoint) -> object:
        index, probes = self._workload(point.kind, point.name)
        runs = self.runs
        index_class = point.name.partition(":")[0]
        if point.op == "serve":
            result = measure_service(
                index, probes, backend=point.core, batch_keys=point.batch,
                config=self.config, walkers=point.walkers, mode=point.mode,
                watchdog=self._watchdog())
            result.kind = point.kind
            result.name = point.name
            return result
        if point.op == "baseline":
            return measure_indexing(
                index, probes, core=point.core, config=self.config,
                warmup_probes=runs.warmup, measure_probes=runs.measured)
        if point.op == "index" and point.core in ("ooo", "inorder"):
            return measure_ordered_indexing(
                index, probes, index_class=index_class, core=point.core,
                config=self.config, warmup_probes=runs.warmup,
                measure_probes=runs.measured)
        if point.op == "index":
            if point.core != "widx":
                raise ConfigError(
                    f"unknown ordered-index core {point.core!r} "
                    f"(want 'ooo', 'inorder' or 'widx')")
            # Built per call, so each driver is read from its module
            # global at call time (where a tracer may have wrapped it).
            offload = {"btree": offload_tree_search,
                       "trie": offload_trie_search,
                       "wormhole": offload_wormhole_search,
                       "batched": offload_batched_tree}[index_class]
            config = self.config.with_widx(num_walkers=point.walkers,
                                           mode=point.mode or "shared")
        elif point.op == "pim":
            offload = offload_probe
            config = self.config.with_widx(
                num_walkers=point.walkers, mode=point.mode,
                placement="pim").with_pim(num_banks=point.banks)
        else:
            offload = offload_probe
            config = self.config.with_widx(num_walkers=point.walkers,
                                           mode=point.mode)
        return offload(index, probes, config=config, probes=runs.probes,
                       watchdog=self._watchdog())

    def merged_stats(self) -> StatsRegistry:
        """One registry merging every cached measurement's stats snapshot.

        Each measurement carries the :meth:`~repro.obs.StatsRegistry.to_dict`
        snapshot of the simulation that produced it, whether it was measured
        in this process, by a campaign worker, or loaded from the persistent
        store — so serial, parallel and cache-hit campaigns all merge to the
        same totals.  Points are merged in a deterministic order.
        """
        registry = StatsRegistry()
        for point in sorted(self._measurements, key=repr):
            snapshot = getattr(self._measurements[point], "stats", None)
            if snapshot:
                registry.merge(snapshot)
        return registry

    def _spec_by_name(self, name: str) -> QuerySpec:
        from ..workloads.tpch import TPCH_QUERIES
        from ..workloads.tpcds import TPCDS_QUERIES
        for spec in TPCH_QUERIES + TPCDS_QUERIES:
            if f"{spec.benchmark}:{spec.number}" == name:
                return spec
        raise KeyError(f"unknown query {name!r}")


def measure_kernel(cache: MeasurementCache, size: str,
                   walker_counts: Iterable[int] = (1, 2, 4),
                   ) -> WorkloadMeasurement:
    """Measure one kernel size on the OoO baseline and Widx configs."""
    result = WorkloadMeasurement(name=size)
    result.ooo = cache.measure(baseline_point("kernel", size, "ooo"))
    for walkers in walker_counts:
        result.widx[walkers] = cache.measure(
            widx_point("kernel", size, walkers))
    return result


def measure_query(cache: MeasurementCache, spec: QuerySpec,
                  walker_counts: Iterable[int] = (1, 2, 4),
                  include_inorder: bool = False) -> WorkloadMeasurement:
    """Measure one DSS query on the baselines and Widx configs."""
    name = f"{spec.benchmark}:{spec.number}"
    result = WorkloadMeasurement(name=spec.label)
    result.ooo = cache.measure(baseline_point("query", name, "ooo"))
    if include_inorder:
        result.inorder = cache.measure(
            baseline_point("query", name, "inorder"))
    for walkers in walker_counts:
        result.widx[walkers] = cache.measure(
            widx_point("query", name, walkers))
    return result


def geomean(values: Iterable[float]) -> float:
    """Geometric mean (raises on an empty sequence or non-positive value)."""
    values = list(values)
    if not values:
        raise ValueError("geomean of nothing")
    total = 0.0
    for value in values:
        if value <= 0:
            raise ValueError(
                f"geomean requires positive values, got {value!r}")
        total += math.log(value)
    return math.exp(total / len(values))
