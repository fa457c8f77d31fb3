"""The resilience figure: goodput under walker faults and overload.

Not a figure from the paper — the paper's Widx units never fail — but
the question its all-or-nothing offload model raises for a serving
deployment: when walkers start dying, how much *useful* work (requests
served inside the latency SLO) does each backend still deliver, and how
much traffic must admission control shed to keep the survivors in-SLO?

Method (see EXPERIMENTS.md): the same calibrated service models as
fig-serve — the campaign points are literally :func:`points_fig_serve`,
so a warm fig-serve cache renders this figure without a single new
simulation — swept over a fault-rate × offered-load grid.  Faults are a
seeded exponential time-to-failure per walker
(:class:`~repro.serve.faults.WalkerFaultModel`); a core that loses
walkers serves slower, and a core that loses *all* of them falls back
to the in-order host model, which is why the in-order calibration rides
along even though the in-order backend itself is not swept.  The sweep
is deterministic given the run seed, so serial, ``--jobs N`` and
cache-hit campaigns render bit-identical reports.
"""

from __future__ import annotations

from typing import List, Tuple

from ..serve.policies import parse_policy
from ..serve.simulate import ResilienceConfig, run_open_loop
from ..serve.faults import WalkerFaultModel
from .campaign import MeasurementPoint
from .figserve import (BACKENDS, PIM_BACKEND, SERVE_NAME, SWEEP_REQUESTS,
                       points_fig_serve, service_model)
from .report import Report
from .runner import MeasurementCache

#: Fault rates swept, in walker deaths per walker per megacycle.  Zero is
#: the control row — bit-identical latency to a fault-free run.
FAULT_RATES: Tuple[float, ...] = (0.0, 4.0, 16.0)

#: Offered loads swept, as fractions of each backend's fault-free
#: saturation rate (overload shows up as shed traffic, not extra rows).
LOAD_FRACTIONS: Tuple[float, ...] = (0.5, 0.8)

#: Admission policy: shed past this many queued requests per core.  The
#: open-loop source must never block, and under faults the backlog grows
#: without bound, so the resilience sweep always runs with shedding on.
SHED_DEPTH = 32

#: Latency SLO, as a multiple of each backend's fault-free single-request
#: service time: a request is "good" if it finishes within 20x the time
#: an unloaded, undamaged core would take.
SLO_SERVICE_MULTIPLE = 20.0

#: Only the Widx backends are swept — walkers are what fails.  The
#: in-order backend appears as every core's all-walkers-dead fallback.
FAULT_BACKENDS = tuple(entry for entry in BACKENDS if entry[2] > 0)


def _fault_backends(include_pim: bool):
    """The fault-swept backends; bank-side walkers die like any others."""
    return FAULT_BACKENDS + ((PIM_BACKEND,) if include_pim else ())


def points_fig_resilience(include_pim: bool = False) -> List[MeasurementPoint]:
    """Same calibration points as fig-serve (shared cache keys)."""
    return points_fig_serve(include_pim)


def run_fig_resilience(cache: MeasurementCache,
                       policy_spec: str = f"shed:{SHED_DEPTH}",
                       include_pim: bool = False) -> Report:
    """The resilience figure: goodput and shed fraction per backend
    across a walker-fault-rate x offered-load grid."""
    parse_policy(policy_spec)  # fail fast on a bad spec
    fallback = service_model(cache, *_backend_args("inorder"))
    cores = cache.config.num_cores
    fault_backends = _fault_backends(include_pim)
    report = Report(
        title=f"Resilience: goodput under walker faults on the "
              f"{SERVE_NAME} kernel (SLO = {SLO_SERVICE_MULTIPLE:g}x "
              f"unloaded service time, policy={policy_spec})",
        columns=["backend", "rate", "load", "offered", "goodput",
                 "shed_frac", "served", "expired", "faults", "p99"])
    for label, backend, walkers, mode in fault_backends:
        model = service_model(cache, label, backend, walkers, mode)
        saturation = cores * model.saturation_rate()
        slo = SLO_SERVICE_MULTIPLE * model.cycles_for(1)
        for rate in FAULT_RATES:
            faults = WalkerFaultModel(seed=cache.runs.seed, rate=rate,
                                      walkers_per_core=walkers)
            resilience = ResilienceConfig(
                slo=slo, faults=faults if faults.active else None,
                fallback=fallback if faults.active else None)
            for fraction in LOAD_FRACTIONS:
                policy = parse_policy(policy_spec)  # fresh instance per run
                result = run_open_loop(
                    model, rate=fraction * saturation,
                    num_requests=SWEEP_REQUESTS, policy=policy, cores=cores,
                    seed=cache.runs.seed, resilience=resilience)
                report.add_row(label, rate, fraction, result.offered,
                               round(result.goodput, 4),
                               round(result.shed_fraction, 4),
                               result.completed, result.expired,
                               result.faults, result.p99)
    for label, backend, walkers, mode in fault_backends:
        model = service_model(cache, label, backend, walkers, mode)
        report.add_note(
            f"{label}: SLO {SLO_SERVICE_MULTIPLE * model.cycles_for(1):.1f} "
            f"cycles, {walkers} walkers/core across {cores} cores "
            f"(all-dead fallback: {fallback.label})")
    report.add_note(
        "rate is walker deaths per walker per megacycle (seeded "
        "exponential TTF; draws shared across rates, so goodput is "
        "weakly non-increasing in rate); goodput is in-SLO completions "
        "per kilocycle; load is the fraction of the backend's fault-free "
        "saturation rate")
    return report


def _backend_args(label: str) -> Tuple[str, str, int, str]:
    """The (label, backend, walkers, mode) tuple for one BACKENDS row."""
    for entry in BACKENDS:
        if entry[0] == label:
            return entry
    raise KeyError(label)
