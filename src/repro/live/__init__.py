"""repro.live: the wall-clock serving front-end.

The serving layer's second transport (after the discrete-event path):
the same transport-agnostic
:class:`~repro.serve.core.ServingCore` and the same per-core server
processes, driven by real time and real request ingestion instead of a
simulated schedule.

Layers, innermost first:

* :mod:`~repro.live.clock` — :class:`WallClock` (monotonic seconds →
  cycles) and :class:`ManualClock` (deterministic replay).
* :mod:`~repro.live.service` — :class:`LiveService`, a synchronous
  poll-able front: arrivals via ``offer``, time via ``advance``, which
  steps a discrete-event engine running the DES driver's server and
  controller processes.  Adds the live-level adaptation: elastic walker
  allocation on the controller's windowed-p99 level delta.
* :mod:`~repro.live.server` / :mod:`~repro.live.client` — an asyncio
  newline-JSON transport (probe / stats / trail / shutdown) and a
  seeded burst client.  asyncio is import-guarded and only touched by
  these modules, so the clock and service layers stay hermetic.

``python -m repro.live --demo`` boots the whole stack against a seeded
overload burst and checks request conservation plus at least one
obs-driven adaptive action — the CI live-smoke entry point.
"""

from .clock import ManualClock, WallClock
from .service import LiveService

__all__ = [
    "LiveService",
    "LiveServer",
    "ManualClock",
    "WallClock",
    "run_burst",
    "start_server",
]


def __getattr__(name):
    # The transport layer imports asyncio; load it only when asked for,
    # so `import repro.live` stays transport-free.
    if name in ("LiveServer", "start_server"):
        from . import server
        return getattr(server, name)
    if name == "run_burst":
        from .client import run_burst
        return run_burst
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
