"""The serving layer: open-loop traffic against the indexing backends.

The paper measures one-shot bulk probes; this package asks the follow-on
question a database serving layer cares about: what throughput–latency
curve does each backend trace when requests *arrive* instead of being
handed over in bulk?  Seven pieces:

* :mod:`~repro.serve.arrivals` — seeded open-loop arrival processes
  (deterministic and Poisson) emitting probe-batch requests.
* :mod:`~repro.serve.service` — calibrated service-time models measured
  on the detailed core/Widx simulators, cached through the campaign.
* :mod:`~repro.serve.policies` — pluggable batch schedulers (FIFO,
  batch-by-size, batch-by-deadline) over per-core admission queues, plus
  composable admission wrappers (``shed:``, ``timeout:``).
* :mod:`~repro.serve.faults` — the seeded walker-fault model: per-core
  death schedules and the time-varying capacity they induce.
* :mod:`~repro.serve.control` — the deterministic degraded-mode
  controller regulating windowed p99 against an SLO.
* :mod:`~repro.serve.core` — the transport-agnostic serving core: one
  clock-free state machine (:class:`~repro.serve.core.ServingCore`)
  holding every admission/shedding/deadline/SLO/controller decision,
  driven by explicit timestamps.
* :mod:`~repro.serve.simulate` — the discrete-event *driver*: one
  source, one server per core and an optional controller tick feeding
  the core engine timestamps, for every run with or without resilience
  features armed.  End-to-end latency lands in an observability
  :class:`~repro.obs.metrics.Distribution` for p50/p95/p99 extraction.
  The wall-clock driver is :mod:`repro.live`.

The ``fig-serve`` and ``fig-resilience`` CLI verbs
(:mod:`repro.harness.figserve`, :mod:`repro.harness.figresilience`)
sweep offered load — and fault rate — over these pieces.
"""

from .arrivals import (ArrivalProcess, DeterministicArrivals, PoissonArrivals,
                       Request, merge_requests)
from .control import (CONTROLLER_ACTIONS, Controller, ControllerSpec,
                      parse_controller)
from .core import ServingCore, validate_run
from .faults import CoreCapacity, WalkerFaultModel, fault_draw
from .policies import (AdmissionWrapper, BatchByDeadline, BatchBySize,
                       FifoPolicy, SchedulingPolicy, ShedPolicy,
                       TimeoutPolicy, admission_depth, base_policy,
                       parse_policy, request_timeout)
from .service import (SERVICE_BACKENDS, ServiceMeasurement, ServiceModel,
                      measure_service)
from .simulate import (ResilienceConfig, ServeResult, build_requests,
                       run_open_loop, simulate_service)

__all__ = [
    "AdmissionWrapper",
    "ArrivalProcess",
    "BatchByDeadline",
    "BatchBySize",
    "CONTROLLER_ACTIONS",
    "Controller",
    "ControllerSpec",
    "CoreCapacity",
    "DeterministicArrivals",
    "FifoPolicy",
    "PoissonArrivals",
    "Request",
    "ResilienceConfig",
    "SERVICE_BACKENDS",
    "SchedulingPolicy",
    "ServeResult",
    "ServiceMeasurement",
    "ServiceModel",
    "ServingCore",
    "ShedPolicy",
    "TimeoutPolicy",
    "WalkerFaultModel",
    "admission_depth",
    "base_policy",
    "build_requests",
    "fault_draw",
    "measure_service",
    "merge_requests",
    "parse_controller",
    "parse_policy",
    "request_timeout",
    "run_open_loop",
    "simulate_service",
    "validate_run",
]
