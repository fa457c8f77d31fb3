"""The benchmark's workloads: real figure paths, run serially in-process.

Each workload builds a fresh :class:`~repro.harness.runner
.MeasurementCache`, constructs every index it needs (*set-up*), runs the
same campaign, figure functions or serving sweeps a user's command runs
(*measured phase*), and returns a :class:`Rep` holding the host time of
every unit of both phases (:class:`Laps`) and everything the correctness
gates read.  Nothing here reaches into ``repro`` internals: only public
entry points are called, with ``jobs=1`` and no retries, so a failing
point counts as a failure instead of being retried away.

============  ============================================================
workload      what it runs
============  ============================================================
fig8-kernel   ``--figure 8`` (8a + 8b) at probes=400 warmup=100: builds
              the Small/Medium/Large hash indexes (Large is 1M tuples),
              build- and cache-warm-bound
index-zoo     ``--figure indexes`` at probes=3000 warmup=600: 15 points
              over 4096-key ordered structures, simulation-bound
serve-sweep   fig-serve's fifo sweep (4 backends x 5 loads) and
              fig-resilience's faulted sweep (3 Widx backends x 3 fault
              rates x 2 loads, shed:32) at SERVE_REQUESTS per level
============  ============================================================
"""

from __future__ import annotations

import os
import time
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.harness import cli  # noqa: F401  (imports every figure module)
from repro.harness import fig8, figindexes, figresilience, figserve
from repro.harness.campaign import (Campaign, MeasurementPoint, RetryPolicy,
                                    group_by_workload)
from repro.harness.runner import MeasurementCache, RunSettings
from repro.serve.faults import WalkerFaultModel
from repro.serve.policies import parse_policy
from repro.serve.service import ServiceModel
from repro.serve import simulate
from repro.serve.simulate import ResilienceConfig, ServeResult
from repro.widx.offload import OffloadOutcome

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_DIR = os.path.join(ROOT, "tests", "harness", "goldens")

#: The seed every pinned result was produced at.
PINNED_SEED = 42

#: Requests per offered-load level in serve-sweep (the figures use 512,
#: which process start-up would swamp).
SERVE_REQUESTS = 4096

#: CRC-32 of the full-size index-zoo report and serve-sweep sweep text at
#: :data:`PINNED_SEED`, pinned from the tree the benchmark was written
#: against.  A later change that moves either is a model change.
PINNED_CRC = {
    "index-zoo": 0x7f9578d8,
    "serve-sweep": 0xb9c057eb,
}


class Checks:
    """Correctness checks of one run: each is attempted once, never
    retried, and a failure is recorded with what it was about."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def crc32(text: str) -> int:
    return zlib.crc32(text.encode("utf-8"))


def crc_gate(checks: Checks, text: str, expected: int, what: str) -> bool:
    """The report's CRC-32 must equal the pinned value."""
    actual = crc32(text)
    return checks.check(actual == expected,
                        f"{what}: crc32 {actual:#010x} != pinned "
                        f"{expected:#010x}")


def read_golden(name: str) -> str:
    with open(os.path.join(GOLDEN_DIR, name), "r", encoding="utf-8",
              newline="") as handle:
        return handle.read()


class Laps:
    """Times consecutive units of one execution from outside: each
    :meth:`lap` closes the unit that began at the previous lap, so the
    units of a phase sum to the phase's wall time.

    With a ``probe`` (:func:`hostspeed.probe`), the probe also runs
    before the first unit and after every lap, outside the units' times,
    and each unit records the mean of the probes on either side of it.
    """

    def __init__(self, probe: Optional[Callable[[], float]] = None) -> None:
        self._probe = probe
        self._before = probe() if probe else 0.0
        self.units: Dict[str, float] = {}
        self.probes: Dict[str, float] = {}
        self._last = time.perf_counter()

    def lap(self, unit: str) -> None:
        now = time.perf_counter()
        self.units[unit] = now - self._last
        if self._probe:
            after = self._probe()
            self.probes[unit] = (self._before + after) / 2
            self._before = after
        self._last = time.perf_counter()

    def take(self) -> Tuple[Dict[str, float], Dict[str, float]]:
        """The units timed so far and their probes; later laps start a
        new phase."""
        taken = self.units, self.probes
        self.units, self.probes = {}, {}
        return taken


@dataclass
class Rep:
    """One execution of a workload: host times plus what the gates read.

    ``setup`` and ``measured`` map each unit of the two phases (an index
    build, a campaign point, a service calibration, a sweep level, the
    rendering) to its host seconds; unit names are the same in every
    execution of a workload, so a run can compare them across
    repetitions.
    """

    workload: str
    seed: int
    full: bool                # full size (pins apply at PINNED_SEED)
    setup: Dict[str, float]   # index builds (+ service calibration)
    measured: Dict[str, float]  # the phase after set-up
    cache: MeasurementCache
    points: List[MeasurementPoint]
    campaign_failures: List[str]
    text: str                 # the rendered report or sweep table
    sweeps: List[ServeResult] = field(default_factory=list)
    #: Host-speed probe seconds around each unit (empty without a probe).
    probes: Dict[str, float] = field(default_factory=dict)

    @property
    def setup_s(self) -> float:
        return sum(self.setup.values())

    @property
    def wall_s(self) -> float:
        """First index build to last report or sweep result, less the
        host-speed probes run between units."""
        return self.setup_s + sum(self.measured.values())

    @property
    def sim_keys(self) -> int:
        """Simulated probe keys processed after set-up, warm-up included.

        serve-sweep: keys of every request offered to a sweep level
        (served, shed or expired).  The figure workloads: every probe key
        a measurement point ran through a core model or a Widx offload.
        """
        if self.sweeps:
            return figserve.KEYS_PER_REQUEST * sum(
                result.requests for result in self.sweeps)
        keys = 0
        runs = self.cache.runs
        for point in self.points:
            result = self.cache.fetch(point.cache_tuple())
            if isinstance(result, OffloadOutcome):
                keys += result.run.tuples
            elif result is not None:
                keys += result.tuples + runs.warmup
        return keys


def _build(cache: MeasurementCache, points: List[MeasurementPoint],
           laps: Laps) -> None:
    """Construct every workload the points read, in campaign order."""
    for group in group_by_workload(points):
        kind, name = group[0].workload
        if kind == "kernel":
            cache.kernel_workload(name)
        elif kind == "ordered":
            cache.ordered_workload(name)
        else:
            raise ValueError(f"workload kind {kind!r} is not benchmarked")
        laps.lap(f"build {kind}:{name}")


def _campaign(cache: MeasurementCache, points: List[MeasurementPoint],
              failures: List[str], laps: Laps) -> None:
    """The campaign a figure runs, one point per call in the serial
    executor's order, so each point is timed on its own."""
    campaign = Campaign(cache, policy=RetryPolicy(max_retries=0))
    for group in group_by_workload(points):
        for point in group:
            result = campaign.run([point], jobs=1)
            failures.extend(failure.describe()
                            for failure in result.failures)
            laps.lap("point " + "/".join(
                str(part) for part in point.cache_tuple()))


def _sweep_line(label: str, fraction: float, fault_rate: float,
                result: ServeResult) -> str:
    return (f"{label} {result.policy} load={fraction!r} "
            f"faults/Mcycle={fault_rate!r} offered={result.offered!r} "
            f"requests={result.requests} completed={result.completed} "
            f"shed={result.shed} expired={result.expired} "
            f"faults={result.faults} in_slo={result.in_slo} "
            f"makespan={result.makespan!r} p50={result.p50!r} "
            f"p95={result.p95!r} p99={result.p99!r}\n")


def _serve_set_up(cache: MeasurementCache, points: List[MeasurementPoint],
                  failures: List[str], laps: Laps) -> Dict[str, ServiceModel]:
    """Index build plus the 12 service-time calibrations."""
    _build(cache, points, laps)
    _campaign(cache, points, failures, laps)
    models = {}
    for label, backend, walkers, mode in figserve.BACKENDS:
        models[label] = figserve.service_model(cache, label, backend,
                                               walkers, mode)
        laps.lap(f"model {label}")
    return models


def _serve_measure(cache: MeasurementCache, models: Dict[str, ServiceModel],
                   requests: int, laps: Laps) -> Tuple[str, List[ServeResult]]:
    """fig-serve's fifo sweep, then fig-resilience's faulted sweep, with
    the figures' arguments except the requests per level."""
    cores = cache.config.num_cores
    seed = cache.runs.seed
    sweeps: List[ServeResult] = []
    lines: List[str] = []
    for label, _backend, _walkers, _mode in figserve.BACKENDS:
        model = models[label]
        saturation = cores * model.saturation_rate()
        for fraction in figserve.LOAD_FRACTIONS:
            result = simulate.run_open_loop(
                model, rate=fraction * saturation, num_requests=requests,
                policy=parse_policy("fifo"), cores=cores, seed=seed)
            sweeps.append(result)
            lines.append(_sweep_line(label, fraction, 0.0, result))
            laps.lap(f"level {label} fifo {fraction!r}")
    fallback = models["inorder"]
    shed = f"shed:{figresilience.SHED_DEPTH}"
    for label, _backend, walkers, _mode in figresilience.FAULT_BACKENDS:
        model = models[label]
        saturation = cores * model.saturation_rate()
        slo = figresilience.SLO_SERVICE_MULTIPLE * model.cycles_for(1)
        for rate in figresilience.FAULT_RATES:
            faults = WalkerFaultModel(seed=seed, rate=rate,
                                      walkers_per_core=walkers)
            resilience = ResilienceConfig(
                slo=slo, faults=faults if faults.active else None,
                fallback=fallback if faults.active else None)
            for fraction in figresilience.LOAD_FRACTIONS:
                result = simulate.run_open_loop(
                    model, rate=fraction * saturation,
                    num_requests=requests, policy=parse_policy(shed),
                    cores=cores, seed=seed, resilience=resilience)
                sweeps.append(result)
                lines.append(_sweep_line(label, fraction, rate, result))
                laps.lap(f"level {label} {shed} {fraction!r} {rate!r}")
    return "".join(lines), sweeps


def execute(workload: str, seed: int, full: bool = True,
            setup_only: bool = False,
            probe: Optional[Callable[[], float]] = None) -> Rep:
    """Run one workload once on a fresh cache (``full=False``: the
    shortened form the benchmark's tests use).  ``setup_only`` stops
    after set-up, for timing set-up on its own; ``probe`` is passed to
    :class:`Laps`."""
    runs = RunSettings(probes=400, warmup=100, seed=seed)
    failures: List[str] = []
    sweeps: List[ServeResult] = []
    text = ""
    if workload == "fig8-kernel":
        sizes = fig8.KERNEL_ORDER if full else ("Small",)
        points = fig8.points_fig8(sizes)
    elif workload == "index-zoo":
        if full:
            runs = RunSettings(seed=seed)
        points = figindexes.points_fig_indexes()
    elif workload == "serve-sweep":
        points = figserve.points_fig_serve()
    else:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    cache = MeasurementCache(runs=runs)

    laps = Laps(probe)
    if workload == "serve-sweep":
        models = _serve_set_up(cache, points, failures, laps)
    else:
        _build(cache, points, laps)
    setup, probes = laps.take()
    if setup_only:
        return Rep(workload, seed, full, setup, {}, cache, points, failures,
                   text, probes=probes)
    if workload == "serve-sweep":
        text, sweeps = _serve_measure(
            cache, models,
            SERVE_REQUESTS if full else figserve.SWEEP_REQUESTS, laps)
    else:
        _campaign(cache, points, failures, laps)
        if workload == "fig8-kernel":
            text = (fig8.run_fig8a(cache, sizes).format() + "\n\n"
                    + fig8.run_fig8b(cache, sizes).format() + "\n")
        else:
            text = figindexes.run_fig_indexes(cache).format() + "\n"
        laps.lap("render")
    measured, measured_probes = laps.take()
    return Rep(workload, seed, full, setup, measured, cache, points,
               failures, text, sweeps, dict(probes, **measured_probes))


WORKLOADS = ("fig8-kernel", "index-zoo", "serve-sweep")


def check_rep(rep: Rep, checks: Checks) -> None:
    """Every correctness gate for one rep; failures are only counted."""
    checks.check(not rep.campaign_failures,
                 f"{rep.workload}: campaign points failed: "
                 f"{'; '.join(rep.campaign_failures)}")
    for point in rep.points:
        result = rep.cache.fetch(point.cache_tuple())
        if isinstance(result, OffloadOutcome):
            key = "/".join(str(part) for part in point.cache_tuple())
            checks.check(result.validated is True and not result.fell_back,
                         f"{rep.workload}: {key} validated on the walkers "
                         f"(validated={result.validated}, "
                         f"fell_back={result.fell_back})")
    for result in rep.sweeps:
        checks.check(
            result.requests == result.completed + result.shed
            + result.expired,
            f"{rep.workload}: {result.label} at {result.offered:.4f} "
            f"conserves requests ({result.requests} arrived, "
            f"{result.completed} served, {result.shed} shed, "
            f"{result.expired} expired)")
    if rep.seed != PINNED_SEED:
        return
    if rep.workload == "fig8-kernel" and rep.full:
        checks.check(rep.text == read_golden("fig8_p400_w100_s42.txt"),
                     "fig8-kernel: report differs from the committed "
                     "golden fig8_p400_w100_s42.txt")
    elif rep.workload == "index-zoo" and not rep.full:
        checks.check(rep.text == read_golden("figindexes_p400_w100_s42.txt"),
                     "index-zoo: shortened report differs from the "
                     "committed golden figindexes_p400_w100_s42.txt")
    elif rep.full and rep.workload in PINNED_CRC:
        crc_gate(checks, rep.text, PINNED_CRC[rep.workload], rep.workload)


def merged_counts(rep: Rep) -> Dict[str, float]:
    """Simulated counts of one rep, from the measurements' registries
    (merged per :meth:`MeasurementCache.merged_stats`) and the sweep
    results' own snapshots."""
    stats = rep.cache.merged_stats().to_dict()

    def value(name: str, snapshot: Dict) -> float:
        return snapshot.get(name, {}).get("value", 0)

    def total(prefix: str, suffix: str) -> float:
        return sum(entry.get("value", 0) for name, entry in stats.items()
                   if name.startswith(prefix) and name.endswith(suffix))

    events = value("sim.engine.dispatched", stats) + sum(
        value("serve.engine.dispatched", result.stats)
        for result in rep.sweeps)
    return {
        "cpu.uops": total("cpu.", ".uops_executed"),
        "widx.instructions": total("widx.", ".instructions"),
        "sim.events": events,
        "mem.l1d.accesses": value("mem.l1d.accesses", stats),
        "mem.l1d.misses": value("mem.l1d.misses", stats),
        "mem.llc.misses": value("mem.llc.misses", stats),
        "mem.dram.blocks": value("mem.dram.blocks_transferred", stats),
        "serve.requests": sum(result.requests for result in rep.sweeps),
        "serve.shed": sum(result.shed for result in rep.sweeps),
        "serve.expired": sum(result.expired for result in rep.sweeps),
    }
