"""Calibrated service-time models for the serving layer.

The serving simulation is two-level.  The *calibration* level runs the
detailed simulators once per (backend, batch size) to measure how many
cycles one indexing backend spends serving a probe batch end to end —
including, for Widx, the per-offload configuration cost that makes
batching worthwhile.  Those measurements flow through the measurement
campaign and persistent cache exactly like every figure's points.  The
*queueing* level (:mod:`repro.serve.simulate`) then composes the
calibrated cycle counts in a fast discrete-event simulation of arrival
queues and schedulers — which is what "offered load" means on this
cycle-approximate substrate (see EXPERIMENTS.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..config import SystemConfig, DEFAULT_CONFIG
from ..cpu.ordered import TRACE_GENERATORS
from ..cpu.timing import time_probe_loop
from ..db.column import Column
from ..db.hashtable import HashIndex
from ..errors import ServeError
from ..sim.watchdog import Watchdog
from ..widx.offload import offload_batched_tree, offload_probe

#: Backends a service model can be calibrated for.
SERVICE_BACKENDS = ("inorder", "ooo", "widx", "pim", "batched")


@dataclass
class ServiceMeasurement:
    """Cycles one backend spends serving one probe batch, measured on the
    detailed simulators.  This is what the campaign caches per point."""

    backend: str                # "inorder" | "ooo" | "widx" | "pim"
    kind: str                   # workload kind ("kernel")
    name: str                   # workload name ("Small")
    walkers: int                # Widx walker count (0 for core backends)
    mode: str                   # Widx organization ("" for core backends)
    batch_keys: int             # probe keys in the measured batch
    cycles: float               # end-to-end service cycles for the batch
    stats: Optional[Dict[str, Any]] = None  # registry snapshot (to_dict)

    @property
    def cycles_per_key(self) -> float:
        return self.cycles / self.batch_keys


def measure_service(index: HashIndex, probe_column: Column, *,
                    backend: str, batch_keys: int,
                    config: SystemConfig = DEFAULT_CONFIG,
                    walkers: int = 0, mode: str = "",
                    watchdog: Optional[Watchdog] = None
                    ) -> ServiceMeasurement:
    """Measure the service time of one probe batch on one backend.

    Core backends run the probe loop directly on a warmed hierarchy (no
    warmup/steady-state split — a served batch pays its whole cost, which
    is the quantity the queueing level needs).  The Widx backend runs a
    real offload and charges ``total_cycles + config_cycles``: each
    serving-layer batch is one offload, so the per-offload configuration
    sequence is part of its service time.  The PIM backend does the same
    on bank-side walkers; its ``config_cycles`` additionally carries the
    host↔PIM command/launch latency, which therefore lands — strictly
    additively — on every served batch's critical path.
    """
    if batch_keys < 1:
        raise ServeError(f"batch_keys must be >= 1, got {batch_keys}")
    if batch_keys > len(probe_column.values):
        raise ServeError(
            f"batch_keys={batch_keys} exceeds the workload's "
            f"{len(probe_column.values)} probe keys")

    if backend == "batched":
        # Level-wise batched B+-tree offload: one serving-layer batch is
        # one coupled-mode offload over the batch's keys, so — like widx —
        # the per-offload configuration cost is part of the service time.
        if walkers < 1:
            raise ServeError(
                "batched service measurement needs walkers >= 1")
        widx_config = config.with_widx(num_walkers=walkers,
                                       mode=mode or "coupled")
        outcome = offload_batched_tree(index, probe_column,
                                       config=widx_config,
                                       probes=batch_keys, watchdog=watchdog)
        return ServiceMeasurement(
            backend=backend, kind="", name="", walkers=walkers,
            mode=mode or "coupled", batch_keys=batch_keys,
            cycles=outcome.run.total_cycles + outcome.run.config_cycles,
            stats=outcome.stats)

    if backend in ("widx", "pim"):
        if walkers < 1:
            raise ServeError(
                f"{backend} service measurement needs walkers >= 1")
        widx_config = config.with_widx(
            num_walkers=walkers, mode=mode or "shared",
            placement="pim" if backend == "pim" else config.widx.placement)
        outcome = offload_probe(index, probe_column, config=widx_config,
                                probes=batch_keys, watchdog=watchdog)
        return ServiceMeasurement(
            backend=backend, kind="", name="", walkers=walkers,
            mode=mode or "shared", batch_keys=batch_keys,
            cycles=outcome.run.total_cycles + outcome.run.config_cycles,
            stats=outcome.stats)

    if backend not in ("inorder", "ooo"):
        raise ServeError(
            f"unknown service backend {backend!r}; "
            f"choose from {SERVICE_BACKENDS}")
    if walkers or mode:
        raise ServeError(
            f"core backend {backend!r} takes no walkers/mode")
    timing = time_probe_loop(TRACE_GENERATORS["hash"](index, probe_column),
                             core=backend, config=config, warmup_probes=0,
                             measure_probes=batch_keys)
    return ServiceMeasurement(
        backend=backend, kind="", name="", walkers=0, mode="",
        batch_keys=batch_keys, cycles=timing.total_cycles,
        stats=timing.stats)


class ServiceModel:
    """Cycles-per-batch as a function of batch size, from calibration.

    Built from :class:`ServiceMeasurement` points at a fixed
    ``keys_per_request``; queries are in *requests*.  Between calibrated
    sizes the model interpolates linearly; beyond the largest it
    extrapolates with the marginal cost of the last calibrated segment
    (per-key cost shrinks with batch size — warm-up and configuration
    amortize — so linear extrapolation of the tail is conservative in the
    right direction).
    """

    def __init__(self, label: str, keys_per_request: int,
                 cycles_by_batch: Dict[int, float]) -> None:
        if keys_per_request < 1:
            raise ServeError(
                f"keys_per_request must be >= 1, got {keys_per_request}")
        if not cycles_by_batch:
            raise ServeError(f"service model {label!r} needs at least one "
                             f"calibrated batch size")
        for batch, cycles in cycles_by_batch.items():
            if batch < 1:
                raise ServeError(f"calibrated batch size must be >= 1, "
                                 f"got {batch}")
            if not cycles > 0:
                raise ServeError(f"calibrated cycles must be positive, "
                                 f"got {cycles!r} at batch {batch}")
        self.label = label
        self.keys_per_request = keys_per_request
        self._batches = sorted(cycles_by_batch)
        self._cycles = {int(b): float(c) for b, c in cycles_by_batch.items()}

    @classmethod
    def from_measurements(cls, label: str, keys_per_request: int,
                          measurements) -> "ServiceModel":
        """Build a model from measurements at multiples of
        ``keys_per_request`` keys."""
        cycles_by_batch: Dict[int, float] = {}
        for m in measurements:
            if m.batch_keys % keys_per_request:
                raise ServeError(
                    f"measurement batch_keys={m.batch_keys} is not a "
                    f"multiple of keys_per_request={keys_per_request}")
            cycles_by_batch[m.batch_keys // keys_per_request] = m.cycles
        return cls(label, keys_per_request, cycles_by_batch)

    @property
    def calibrated_batches(self):
        """The calibrated batch sizes (in requests), sorted."""
        return list(self._batches)

    def scaled(self, factor: float) -> "ServiceModel":
        """A copy with every calibrated point scaled by ``factor``.

        The resilience layer's degraded-capacity model: a core that has
        lost ``k`` of its ``W`` walkers serves with the same curve shape
        at ``W / (W - k)`` times the cycles (traversal work redistributes
        evenly over the surviving walkers).
        """
        if not (factor > 0 and math.isfinite(factor)):
            raise ServeError(f"scale factor must be finite and > 0, "
                             f"got {factor!r}")
        return ServiceModel(
            self.label, self.keys_per_request,
            {batch: cycles * factor for batch, cycles in self._cycles.items()})

    def cycles_for(self, requests: int) -> float:
        """Service cycles for a batch of ``requests`` requests."""
        if requests < 1:
            raise ServeError(f"batch must hold >= 1 request, got {requests}")
        batches = self._batches
        cycles = self._cycles
        if requests in cycles:
            return cycles[requests]
        if requests < batches[0]:
            # Below the smallest calibration a batch still pays at least
            # the smallest batch's fixed costs; charge it whole.
            return cycles[batches[0]]
        if requests > batches[-1]:
            if len(batches) == 1:
                return cycles[batches[-1]] * requests / batches[-1]
            lo, hi = batches[-2], batches[-1]
            slope = (cycles[hi] - cycles[lo]) / (hi - lo)
            slope = max(slope, 0.0)
            return cycles[hi] + slope * (requests - hi)
        position = 0
        while batches[position + 1] < requests:
            position += 1
        lo, hi = batches[position], batches[position + 1]
        frac = (requests - lo) / (hi - lo)
        return cycles[lo] + (cycles[hi] - cycles[lo]) * frac

    def saturation_rate(self, batch: int = 1) -> float:
        """Peak per-server throughput in requests per kilocycle when every
        batch holds ``batch`` requests (``batch=1`` = FIFO service)."""
        return batch * 1000.0 / self.cycles_for(batch)

    def __repr__(self) -> str:
        points = ", ".join(f"{b}:{self._cycles[b]:.0f}" for b in self._batches)
        return (f"ServiceModel({self.label!r}, "
                f"keys_per_request={self.keys_per_request}, {{{points}}})")
