"""Campaign layer: enumerate, parallelize and prefetch measurements.

A *campaign* is the set of (workload x core x walker-count) measurement
points an experiment selection needs.  Figures share points (Figure 10's
speedups reuse Figure 9's runs; Figure 11 aggregates both), so the CLI
first asks every selected driver to declare its points, dedups them, and
prefetches the misses — optionally across worker processes — before any
driver runs.  The drivers then execute unchanged against a warm
:class:`~repro.harness.runner.MeasurementCache`.

**Determinism.**  The simulator is deterministic given a seed, and each
measurement is hermetic: offloads release their scratch output regions
(see :meth:`repro.mem.layout.AddressSpace.release`), so a point measures
identically whether it runs first, last, alone or in another process.
Serial, parallel and cache-hit runs therefore produce bit-identical
reports.  Points are still grouped per workload — one index build serves
the whole group — and measured in the drivers' canonical order (baselines
first, then Widx by ascending walker count).

Parallel results cross process boundaries as the same JSON payloads the
persistent store uses (:mod:`repro.harness.cachestore`); JSON floats
round-trip exactly, so no precision is lost on the way back.  Each payload
also carries the measurement's :class:`~repro.obs.StatsRegistry` snapshot,
so the merged statistics (:meth:`~repro.harness.runner.MeasurementCache.
merged_stats`) are identical whether a point was measured in-process, by a
worker, or loaded from the store.

**Fault tolerance.**  A campaign outlives its workers.  Each worker
streams per-point results back over a pipe as it finishes them, so a
worker that crashes (OOM kill, segfault) or wedges (reaped by the
per-point progress timeout from :class:`RetryPolicy`) forfeits only its
unfinished points: the point being measured at the time is charged one
attempt and retried with exponential backoff, the rest of its group is
requeued unchanged.  A measurement that raises inside a healthy worker is
retried the same way.  Points that exhaust their retries are *poisoned*
in the cache and recorded in the :class:`CampaignResult` failure
manifest; everything else completes normally, so one pathological point
cannot sink a campaign.  If worker infrastructure itself looks broken
(``degrade_after`` consecutive crashes/timeouts), the campaign terminates
the pool and degrades to in-process serial execution — the slowest but
most robust executor, and the one fault injection never kills.  Ctrl-C
terminates workers and raises :class:`~repro.errors.CampaignInterrupted`;
completed points are already in the cache, so re-running resumes.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field
from multiprocessing import connection as mpconnection
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..config import SystemConfig
from ..errors import CampaignInterrupted
from ..workloads.queryspec import QuerySpec
from .cachestore import decode_measurement, encode_measurement
from .chaos import (ChaosSpec, inject_measurement_error,
                    inject_worker_faults)
# MeasurementPoint and its constructors live beside the cache that
# measures them; they are re-exported here for the figure drivers.
from .runner import (MeasurementCache, MeasurementPoint,  # noqa: F401
                     RunSettings, baseline_point, index_point, pim_point,
                     serve_point, widx_point)


def kernel_points(sizes: Iterable[str], walker_counts: Iterable[int],
                  ) -> List[MeasurementPoint]:
    """Points for the hash-join kernel figures (8a/8b)."""
    points = []
    for size in sizes:
        points.append(baseline_point("kernel", size, "ooo"))
        for walkers in walker_counts:
            points.append(widx_point("kernel", size, walkers))
    return points


def query_points(specs: Iterable[QuerySpec], walker_counts: Iterable[int],
                 include_inorder: bool = False) -> List[MeasurementPoint]:
    """Points for the DSS-query figures (9/10/11)."""
    points = []
    for spec in specs:
        name = f"{spec.benchmark}:{spec.number}"
        points.append(baseline_point("query", name, "ooo"))
        if include_inorder:
            points.append(baseline_point("query", name, "inorder"))
        for walkers in walker_counts:
            points.append(widx_point("query", name, walkers))
    return points


def dedup_points(points: Iterable[MeasurementPoint]) -> List[MeasurementPoint]:
    """Unique points, first occurrence wins, order preserved."""
    seen = set()
    unique = []
    for point in points:
        if point not in seen:
            seen.add(point)
            unique.append(point)
    return unique


def group_by_workload(points: Iterable[MeasurementPoint],
                      ) -> List[List[MeasurementPoint]]:
    """Points grouped per workload, each group canonically ordered."""
    groups: Dict[Tuple[str, str], List[MeasurementPoint]] = {}
    for point in dedup_points(points):
        groups.setdefault(point.workload, []).append(point)
    return [sorted(group, key=MeasurementPoint.order_key)
            for _workload, group in sorted(groups.items())]


@dataclass(frozen=True)
class RetryPolicy:
    """How a campaign responds to failing points and dying workers.

    ``point_timeout`` is a *progress* deadline in wall seconds: a worker
    that neither finishes a point nor crashes within it is presumed wedged
    and reaped.  ``None`` disables reaping (the simulation-level watchdog
    still bounds each measurement).  Backoff before the Nth retry of a
    point is ``min(backoff_cap, backoff_base * 2**(N-1))`` seconds.
    After ``degrade_after`` consecutive worker crashes/timeouts the
    campaign stops trusting multiprocessing and finishes serially.
    """

    max_retries: int = 2
    point_timeout: Optional[float] = None
    backoff_base: float = 0.5
    backoff_cap: float = 30.0
    degrade_after: int = 3

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.point_timeout is not None and self.point_timeout <= 0:
            raise ValueError(
                f"point_timeout must be positive, got {self.point_timeout}")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff must be non-negative")
        if self.degrade_after < 1:
            raise ValueError(
                f"degrade_after must be >= 1, got {self.degrade_after}")

    def backoff(self, failed_attempts: int) -> float:
        """Delay before the next try after ``failed_attempts`` failures."""
        if failed_attempts <= 0:
            return 0.0
        return min(self.backoff_cap,
                   self.backoff_base * 2.0 ** (failed_attempts - 1))


DEFAULT_RETRY_POLICY = RetryPolicy()


@dataclass
class PointFailure:
    """One point that exhausted its retries (a failure-manifest entry)."""

    point: MeasurementPoint
    attempts: int
    kind: str     # "crash" | "timeout" | "error"
    detail: str

    def describe(self) -> str:
        """One-line human-readable account (also the poison reason)."""
        return (f"{'/'.join(map(str, self.point.cache_tuple()))}: "
                f"{self.kind} after {self.attempts} attempts ({self.detail})")


@dataclass
class CampaignResult:
    """What a prefetch pass did, for reporting."""

    total_points: int = 0
    cached_points: int = 0    # already in memory or the persistent store
    measured_points: int = 0  # simulated this pass
    jobs: int = 1
    retries: int = 0              # point attempts that were re-run
    degraded_to_serial: bool = False
    failures: List[PointFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether every requested point ended up measured or cached."""
        return not self.failures

    def summary(self) -> str:
        """One-line human-readable account (printed by the CLI)."""
        line = (f"campaign: {self.total_points} points, "
                f"{self.cached_points} cached, "
                f"{self.measured_points} measured, jobs={self.jobs}")
        if self.retries:
            line += f", {self.retries} retried"
        if self.degraded_to_serial:
            line += ", degraded to serial"
        if self.failures:
            line += f", {len(self.failures)} FAILED"
        return line


def _point_chaos_key(point: MeasurementPoint) -> str:
    """Human-targetable fault-injection key for one point."""
    return "/".join(str(part) for part in point.cache_tuple())


def _group_worker(conn, config: SystemConfig, runs: RunSettings,
                  points: Sequence[MeasurementPoint],
                  chaos: Optional[ChaosSpec],
                  attempts: Sequence[int]) -> None:
    """Worker process: measure points, streaming results incrementally.

    Protocol (one tuple per :meth:`Connection.send`):

    * ``("ok", index, payload)`` — point measured; JSON payload attached.
    * ``("error", index, detail)`` — the measurement raised; the worker
      stays alive and continues with the rest of its group.
    * ``("done",)`` — all points attempted; a clean exit without it means
      the worker crashed mid-point.

    ``attempts[i]`` is how many times point ``i`` already failed, which is
    what lets the fault injector's per-site budget make retries run clean.
    Module-level so it pickles under every multiprocessing start method.
    """
    try:
        cache = MeasurementCache(config=config, runs=runs)
        for index, point in enumerate(points):
            key = _point_chaos_key(point)
            inject_worker_faults(chaos, key, attempts[index])
            try:
                inject_measurement_error(chaos, key, attempts[index])
                payload = encode_measurement(cache.measure(point))
            except Exception as exc:  # reported, not fatal to the worker
                conn.send(("error", index,
                           f"{type(exc).__name__}: {exc}"))
                continue
            conn.send(("ok", index, payload))
        conn.send(("done",))
    finally:
        conn.close()


class _Worker:
    """Parent-side handle for one in-flight worker process."""

    __slots__ = ("process", "conn", "points", "completed", "finished",
                 "last_progress")

    def __init__(self, process, conn,
                 points: Sequence[MeasurementPoint]) -> None:
        self.process = process
        self.conn = conn
        self.points = list(points)
        self.completed: Set[int] = set()
        self.finished = False           # saw the "done" sentinel
        self.last_progress = time.monotonic()

    @property
    def remaining(self) -> List[MeasurementPoint]:
        return [point for index, point in enumerate(self.points)
                if index not in self.completed]


def default_jobs() -> int:
    """The CLI default for ``--jobs``: every available core."""
    return os.cpu_count() or 1


#: How long the scheduler waits on worker pipes per loop iteration; also
#: bounds how late a backoff-delayed task can start.
_SCHEDULER_TICK = 0.25


class Campaign:
    """Prefetches a point set into a :class:`MeasurementCache`.

    ``policy`` governs retries/timeouts/degradation (defaults to
    :data:`DEFAULT_RETRY_POLICY`); ``chaos`` optionally injects
    deterministic faults into the worker processes (see
    :mod:`repro.harness.chaos`).
    """

    def __init__(self, cache: MeasurementCache,
                 policy: Optional[RetryPolicy] = None,
                 chaos: Optional[ChaosSpec] = None) -> None:
        self.cache = cache
        self.policy = policy if policy is not None else DEFAULT_RETRY_POLICY
        self.chaos = chaos

    def run(self, points: Iterable[MeasurementPoint],
            jobs: Optional[int] = None) -> CampaignResult:
        """Ensure every point is cached; fan misses out over ``jobs``.

        Never raises for a failing *point* — those land in the result's
        failure manifest and are poisoned in the cache.  Raises
        :class:`~repro.errors.CampaignInterrupted` on Ctrl-C (after
        terminating workers; completed points stay cached).
        """
        unique = dedup_points(points)
        jobs = default_jobs() if jobs is None else max(1, jobs)
        result = CampaignResult(total_points=len(unique), jobs=jobs)

        # A new campaign is a fresh chance for previously failed points.
        pending = []
        for point in unique:
            self.cache.clear_poison(point.cache_tuple())
            # fetch() pulls persistent-store hits into memory as a side
            # effect.
            if self.cache.fetch(point.cache_tuple()) is None:
                pending.append(point)
        result.cached_points = len(unique) - len(pending)
        if not pending:
            return result

        attempts: Dict[MeasurementPoint, int] = {p: 0 for p in pending}
        groups = group_by_workload(pending)
        try:
            if jobs == 1 or len(groups) == 1:
                self._run_serial(groups, attempts, result)
            else:
                leftover = self._run_parallel(groups, jobs, attempts, result)
                if leftover:
                    result.degraded_to_serial = True
                    self._run_serial(group_by_workload(leftover),
                                     attempts, result)
        except KeyboardInterrupt:
            done = result.cached_points + result.measured_points
            raise CampaignInterrupted(
                f"campaign interrupted: {done}/{result.total_points} points "
                f"complete and cached; re-run the same command to resume",
                completed=done, total=result.total_points) from None
        return result

    # --- failure accounting ---------------------------------------------

    def _register_failure(self, point: MeasurementPoint, kind: str,
                          detail: str, attempts: Dict[MeasurementPoint, int],
                          result: CampaignResult) -> bool:
        """Charge one failed attempt; True if the point may retry."""
        attempts[point] += 1
        if attempts[point] > self.policy.max_retries:
            failure = PointFailure(point=point, attempts=attempts[point],
                                   kind=kind, detail=detail)
            result.failures.append(failure)
            self.cache.poison(point.cache_tuple(), failure.describe())
            return False
        result.retries += 1
        return True

    # --- serial executor -------------------------------------------------

    def _run_serial(self, groups: Sequence[Sequence[MeasurementPoint]],
                    attempts: Dict[MeasurementPoint, int],
                    result: CampaignResult) -> None:
        """In-process executor: slow, but immune to worker-level faults.

        Only the 'error' fault site applies here — kill and hang are
        worker-process faults by construction — which is what makes
        degradation to serial the recovery of last resort.
        """
        for group in groups:
            for point in group:
                self._measure_with_retries(point, attempts, result)

    def _measure_with_retries(self, point: MeasurementPoint,
                              attempts: Dict[MeasurementPoint, int],
                              result: CampaignResult) -> None:
        key = _point_chaos_key(point)
        while True:
            try:
                inject_measurement_error(self.chaos, key, attempts[point])
                self.cache.measure(point)
            except KeyboardInterrupt:
                raise
            except Exception as exc:
                detail = f"{type(exc).__name__}: {exc}"
                if not self._register_failure(point, "error", detail,
                                              attempts, result):
                    return
                delay = self.policy.backoff(attempts[point])
                if delay > 0:
                    time.sleep(delay)
                continue
            result.measured_points += 1
            return

    # --- parallel executor -----------------------------------------------

    def _spawn(self, points: Sequence[MeasurementPoint],
               attempts: Dict[MeasurementPoint, int]) -> _Worker:
        parent_conn, child_conn = multiprocessing.Pipe(duplex=False)
        process = multiprocessing.Process(
            target=_group_worker,
            args=(child_conn, self.cache.config, self.cache.runs,
                  list(points), self.chaos,
                  [attempts[point] for point in points]),
            daemon=True)
        process.start()
        child_conn.close()
        return _Worker(process, parent_conn, points)

    def _run_parallel(self, groups: Sequence[Sequence[MeasurementPoint]],
                      jobs: int, attempts: Dict[MeasurementPoint, int],
                      result: CampaignResult) -> List[MeasurementPoint]:
        """Crash-tolerant scheduler; returns leftover points if it gives
        up on multiprocessing (the caller finishes them serially)."""
        policy = self.policy
        # (points, not_before): a task and the earliest monotonic time it
        # may start (backoff for retried points, 0 for fresh work).
        ready: List[Tuple[List[MeasurementPoint], float]] = [
            (list(group), 0.0) for group in groups]
        running: List[_Worker] = []
        infra_failures = 0  # consecutive crashes/timeouts across workers

        def requeue(points: List[MeasurementPoint], when: float) -> None:
            if points:
                ready.append((points, when))

        def attempt_failed(worker: _Worker, kind: str, detail: str) -> None:
            """A worker died/was reaped: charge its in-flight point."""
            remaining = worker.remaining
            if not remaining:
                return
            victim, rest = remaining[0], remaining[1:]
            if self._register_failure(victim, kind, detail, attempts, result):
                requeue([victim], time.monotonic()
                        + policy.backoff(attempts[victim]))
            requeue(rest, 0.0)  # innocent bystanders: no attempt charged

        def reap(worker: _Worker) -> None:
            worker.process.terminate()
            worker.process.join()
            worker.conn.close()

        try:
            while ready or running:
                now = time.monotonic()

                # Spawn runnable tasks into free slots.
                for entry in list(ready):
                    if len(running) >= jobs:
                        break
                    points, not_before = entry
                    if not_before > now:
                        continue
                    ready.remove(entry)
                    running.append(self._spawn(points, attempts))

                if not running:
                    # Everything pending is backing off; sleep toward the
                    # earliest start time.
                    earliest = min(nb for _points, nb in ready)
                    time.sleep(min(max(0.0, earliest - now),
                                   _SCHEDULER_TICK))
                    continue

                readable = mpconnection.wait(
                    [worker.conn for worker in running],
                    timeout=_SCHEDULER_TICK)
                now = time.monotonic()

                for worker in list(running):
                    if worker.conn not in readable:
                        continue
                    crashed = False
                    try:
                        while worker.conn.poll():
                            message = worker.conn.recv()
                            tag = message[0]
                            if tag == "ok":
                                _tag, index, payload = message
                                worker.completed.add(index)
                                worker.last_progress = now
                                self.cache.install(
                                    worker.points[index].cache_tuple(),
                                    decode_measurement(payload))
                                result.measured_points += 1
                                infra_failures = 0
                            elif tag == "error":
                                _tag, index, detail = message
                                point = worker.points[index]
                                worker.completed.add(index)
                                worker.last_progress = now
                                if self._register_failure(
                                        point, "error", detail,
                                        attempts, result):
                                    requeue([point], now + policy.backoff(
                                        attempts[point]))
                            elif tag == "done":
                                worker.finished = True
                    except (EOFError, OSError):
                        crashed = not worker.finished

                    if worker.finished:
                        worker.process.join()
                        worker.conn.close()
                        running.remove(worker)
                    elif crashed:
                        worker.process.join()
                        exitcode = worker.process.exitcode
                        worker.conn.close()
                        running.remove(worker)
                        attempt_failed(worker, "crash",
                                       f"worker exited with code {exitcode}")
                        infra_failures += 1

                # Reap workers that stopped making progress.
                if policy.point_timeout is not None:
                    for worker in list(running):
                        if now - worker.last_progress <= policy.point_timeout:
                            continue
                        running.remove(worker)
                        reap(worker)
                        attempt_failed(
                            worker, "timeout",
                            f"no progress in {policy.point_timeout:g}s")
                        infra_failures += 1

                if infra_failures >= policy.degrade_after:
                    # Workers keep dying: stop trusting multiprocessing.
                    leftover: List[MeasurementPoint] = []
                    for worker in running:
                        reap(worker)
                        leftover.extend(worker.remaining)
                    running.clear()
                    for points, _not_before in ready:
                        leftover.extend(points)
                    return leftover
        except KeyboardInterrupt:
            for worker in running:
                worker.process.terminate()
            for worker in running:
                worker.process.join()
                worker.conn.close()
            raise
        return []
