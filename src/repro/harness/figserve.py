"""The serving figure: throughput–latency curves per indexing backend.

Not a figure from the paper — the paper measures one-shot bulk probes —
but the question its Section 6 results raise for a serving layer: at
what offered load does each backend's tail latency take off, and how
much more load does Widx sustain than a baseline core?

Method (see EXPERIMENTS.md): service times are *calibrated* per
(backend, batch size) on the detailed simulators — those are this
figure's campaign points, cached and parallelized like every other
figure's — and the open-loop queueing composition
(:mod:`repro.serve.simulate`) then sweeps offered load as a fraction of
each backend's saturation rate.  The sweep itself is deterministic given
the run seed, so serial, ``--jobs N`` and cache-hit campaigns render
bit-identical reports.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from ..serve.control import parse_controller
from ..serve.policies import parse_policy
from ..serve.service import ServiceModel
from ..serve.simulate import ResilienceConfig, ServeResult, run_open_loop
from .campaign import MeasurementPoint, serve_point
from .report import Report
from .runner import MeasurementCache

#: The serving workload: probe batches against the Small hash-join kernel
#: (shares its index build with the Figure 8 campaign points).
SERVE_KIND = "kernel"
SERVE_NAME = "Small"

#: Probe keys per client request.
KEYS_PER_REQUEST = 8

#: Calibrated batch sizes, in requests per served batch.
CALIBRATED_BATCHES = (1, 2, 4)

#: Backends swept: the in-order baseline core and Widx at 1/2/4 walkers.
BACKENDS: Tuple[Tuple[str, str, int, str], ...] = (
    ("inorder", "inorder", 0, ""),
    ("widx-1", "widx", 1, "shared"),
    ("widx-2", "widx", 2, "shared"),
    ("widx-4", "widx", 4, "shared"),
)

#: The bank-side walker backend added by ``--pim``: same walker count as
#: the strongest Widx column, attached at the DRAM banks.
PIM_BACKEND: Tuple[str, str, int, str] = ("pim-4", "pim", 4, "shared")

#: The level-wise batched B+-tree backend added by ``--batched-tree``:
#: coupled-mode walkers sharing each served batch's node visits.  It is
#: calibrated on the ordered-index zoo's Small B+-tree rather than the
#: hash kernel, so its rows answer how an ordered index serves under the
#: same open-loop composition.
BATCHED_BACKEND: Tuple[str, str, int, str] = ("batched-4", "batched", 4,
                                              "coupled")

#: The workload the batched backend calibrates against.
BATCHED_KIND = "ordered"
BATCHED_NAME = "batched:Small"

#: Offered load sweep, as fractions of each backend's saturation rate.
LOAD_FRACTIONS = (0.3, 0.5, 0.7, 0.85, 0.95)

#: Requests per sweep step (per offered-load level).
SWEEP_REQUESTS = 512


def _backends(include_pim: bool, include_batched: bool = False
              ) -> Tuple[Tuple[str, str, int, str], ...]:
    """The swept backends, with opt-in columns appended on request."""
    extra: Tuple[Tuple[str, str, int, str], ...] = ()
    if include_pim:
        extra += (PIM_BACKEND,)
    if include_batched:
        extra += (BATCHED_BACKEND,)
    return BACKENDS + extra


def _workload_for(backend: str) -> Tuple[str, str]:
    """The (kind, name) a backend's calibration runs against."""
    if backend == "batched":
        return BATCHED_KIND, BATCHED_NAME
    return SERVE_KIND, SERVE_NAME


def points_fig_serve(include_pim: bool = False,
                     include_batched: bool = False
                     ) -> List[MeasurementPoint]:
    """The calibration measurements the serving sweep needs."""
    points = []
    for _label, backend, walkers, mode in _backends(include_pim,
                                                    include_batched):
        kind, name = _workload_for(backend)
        for batch in CALIBRATED_BATCHES:
            points.append(serve_point(kind, name, backend,
                                      batch * KEYS_PER_REQUEST,
                                      walkers, mode))
    return points


def service_model(cache: MeasurementCache, label: str, backend: str,
                  walkers: int, mode: str) -> ServiceModel:
    """Build one backend's service model from cached calibrations."""
    kind, name = _workload_for(backend)
    measurements = [
        cache.measure(serve_point(kind, name, backend,
                                  batch * KEYS_PER_REQUEST, walkers, mode))
        for batch in CALIBRATED_BATCHES
    ]
    return ServiceModel.from_measurements(label, KEYS_PER_REQUEST,
                                          measurements)


def sweep_backend(cache: MeasurementCache, model: ServiceModel,
                  policy_spec: str,
                  load_fractions: Iterable[float] = LOAD_FRACTIONS,
                  resilience: Optional[ResilienceConfig] = None
                  ) -> List[ServeResult]:
    """Sweep offered load for one backend; one ServeResult per level.

    ``resilience`` arms the serving core's SLO accounting and
    degraded-mode controller for each level; every level runs on the
    one discrete-event driver either way.
    """
    cores = cache.config.num_cores
    saturation = cores * model.saturation_rate()
    results = []
    for fraction in load_fractions:
        policy = parse_policy(policy_spec)  # fresh instance per run
        results.append(run_open_loop(
            model, rate=fraction * saturation, num_requests=SWEEP_REQUESTS,
            policy=policy, cores=cores, seed=cache.runs.seed,
            resilience=resilience))
    return results


def run_fig_serve(cache: MeasurementCache,
                  policy_spec: str = "fifo",
                  slo: Optional[float] = None,
                  controller_spec: Optional[str] = None,
                  include_pim: bool = False,
                  include_batched: bool = False) -> Report:
    """The serving figure: offered load vs achieved throughput and
    latency percentiles, per backend.

    ``slo`` (cycles) arms SLO accounting and adds goodput/shed columns;
    ``controller_spec`` (see :func:`~repro.serve.control
    .parse_controller`) additionally closes the degraded-mode control
    loop.  ``include_pim`` sweeps the bank-side walker backend alongside
    the others (``--pim``) — its service times carry the per-batch
    host↔PIM launch latency, so it answers whether near-memory wins
    survive a serving workload's small batches.  ``include_batched``
    sweeps the level-wise batched B+-tree backend (``--batched-tree``),
    calibrated on the ordered-index zoo's Small tree.  All default off,
    leaving the report byte-identical to the original throughput–latency
    figure.
    """
    parse_policy(policy_spec)  # fail fast on a bad spec
    resilience = None
    if slo is not None or controller_spec is not None:
        controller = (parse_controller(controller_spec)
                      if controller_spec is not None else None)
        resilience = ResilienceConfig(slo=slo, controller=controller)
    columns = ["backend", "load", "offered", "achieved", "p50", "p95", "p99"]
    title_extra = ""
    if resilience is not None:
        columns += ["goodput", "shed"]
        title_extra = f", slo={slo:g}"
        if controller_spec is not None:
            title_extra += f", controller={controller_spec}"
    report = Report(
        title=f"Serving: open-loop throughput vs latency on the "
              f"{SERVE_NAME} kernel ({KEYS_PER_REQUEST} keys/request, "
              f"policy={policy_spec}{title_extra})",
        columns=columns)
    backends = _backends(include_pim, include_batched)
    saturations = {}
    for label, backend, walkers, mode in backends:
        model = service_model(cache, label, backend, walkers, mode)
        cores = cache.config.num_cores
        saturations[label] = cores * model.saturation_rate()
        for result in sweep_backend(cache, model, policy_spec,
                                    resilience=resilience):
            row = [label, round(result.offered / saturations[label], 2),
                   result.offered, result.achieved,
                   result.p50, result.p95, result.p99]
            if resilience is not None:
                row += [round(result.goodput, 4), result.shed]
            report.add_row(*row)
    for label, _backend, _walkers, _mode in backends:
        report.add_note(
            f"{label}: saturation {saturations[label]:.3f} requests/kcycle "
            f"across {cache.config.num_cores} cores")
    inorder_sat = saturations["inorder"]
    widx_sat = saturations["widx-1"]
    report.add_note(
        f"widx-1 sustains {widx_sat / inorder_sat:.2f}x the in-order "
        f"saturation load at equal walker/core count"
        + ("" if widx_sat > inorder_sat else " (UNEXPECTED: not faster)"))
    if include_pim:
        pim_label = PIM_BACKEND[0]
        widx_peer = f"widx-{PIM_BACKEND[2]}"
        ratio = saturations[pim_label] / saturations[widx_peer]
        report.add_note(
            f"{pim_label} sustains {ratio:.2f}x the {widx_peer} saturation "
            f"load (per-batch host-to-PIM launch included)")
    if include_batched:
        batched_label = BATCHED_BACKEND[0]
        report.add_note(
            f"{batched_label}: level-wise batched traversals of the "
            f"{BATCHED_NAME} B+-tree ({saturations[batched_label]:.3f} "
            f"requests/kcycle at saturation; per-batch offload "
            f"configuration included)")
    report.add_note("latencies in cycles; load is the fraction of each "
                    "backend's own saturation rate")
    return report
