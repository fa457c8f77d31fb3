"""The asyncio front-end over :class:`~repro.live.service.LiveService`.

A newline-delimited JSON protocol on a TCP socket; asyncio is purely
transport — every serving decision stays inside the synchronous
:class:`LiveService` state machine, so the protocol layer holds no
policy at all.  Requests:

* ``{"op": "probe", "keys": K, "at": CYCLES}`` — offer one request.
  Shed arrivals answer immediately; admitted ones answer when they
  settle (``served`` with latency, or ``expired``).  ``at`` is only
  honored in replay mode (below).
* ``{"op": "stats"}`` — the live summary snapshot.
* ``{"op": "trail", "last": N}`` — the last N captured walker trails
  (per-request traversal paths; see :mod:`repro.widx.trail`), when a
  trail ring is attached.
* ``{"op": "shutdown"}`` — close admission, drain all queued work, and
  answer with the final conservation-checked result.

Two time modes:

* **replay** (default): virtual time on a
  :class:`~repro.live.clock.ManualClock`.  Each probe carries its
  arrival cycle in ``at`` and the server advances the clock to it —
  fully deterministic no matter how fast the host or network is, which
  is what the CI smoke test and the demo rely on.
* **wall**: a :class:`~repro.live.clock.WallClock` maps
  ``time.monotonic`` to cycles and a background pump task sleeps until
  the service's next timed event.

asyncio is stdlib, but the import is guarded so that environments
without it (or with it deliberately stubbed out) can still import
:mod:`repro.live`'s clock and service layers — only this transport
needs it.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

try:  # pragma: no cover - asyncio ships with every supported CPython
    import asyncio
except ImportError:  # pragma: no cover
    asyncio = None  # type: ignore[assignment]

from ..errors import ServeError
from ..serve.arrivals import Request
from .clock import ManualClock
from .service import LiveService

#: Pump granularity in wall mode: the longest the server sleeps before
#: re-checking the service's next scheduled event (seconds).
PUMP_SLICE_SECONDS = 0.02


def _require_asyncio() -> None:
    if asyncio is None:  # pragma: no cover - exercised only when stubbed
        raise ServeError(
            "the live server transport needs asyncio; the clock and "
            "LiveService layers work without it")


class LiveServer:
    """One TCP server wrapping one :class:`LiveService`."""

    def __init__(self, service: LiveService, *, trail=None,
                 replay: bool = True) -> None:
        _require_asyncio()
        if replay and not isinstance(service.clock, ManualClock):
            raise ServeError("replay mode needs a ManualClock on the service")
        self.service = service
        self.trail = trail
        self.replay = replay
        self.port: Optional[int] = None
        self._server = None
        self._pump_task = None
        self._stopping = None
        self._settled: List[Tuple[Request, str, float]] = []
        self._waiters: Dict[int, Any] = {}  # seq -> StreamWriter
        service.on_settled = self._on_settled

    # -- lifecycle -------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind and listen; port 0 picks an ephemeral port (see ``.port``)."""
        self._stopping = asyncio.Event()
        self._server = await asyncio.start_server(self._handle, host, port)
        self.port = self._server.sockets[0].getsockname()[1]
        if not self.replay:
            self._pump_task = asyncio.ensure_future(self._pump())

    async def wait_closed(self) -> None:
        """Block until a shutdown op stops the server."""
        await self._stopping.wait()
        self._server.close()
        await self._server.wait_closed()
        if self._pump_task is not None:
            self._pump_task.cancel()

    async def _pump(self) -> None:
        """Wall mode: fire the service's timed events as real time passes."""
        service = self.service
        while not self._stopping.is_set():
            service.advance(service.clock.now())
            self._flush_settled()
            upcoming = service.next_event()
            delay = (PUMP_SLICE_SECONDS if upcoming is None
                     else min(PUMP_SLICE_SECONDS,
                              service.clock.seconds_until(upcoming)))
            await asyncio.sleep(max(delay, 0.0))

    # -- settlement fan-out ----------------------------------------------

    def _on_settled(self, request: Request, status: str, now: float) -> None:
        self._settled.append((request, status, now))

    def _flush_settled(self) -> None:
        while self._settled:
            request, status, now = self._settled.pop(0)
            writer = self._waiters.pop(request.seq, None)
            if writer is None or writer.is_closing():
                continue
            payload: Dict[str, Any] = {"seq": request.seq, "status": status}
            if status == "served":
                payload["latency"] = now - request.arrival
            _write(writer, payload)

    # -- protocol --------------------------------------------------------

    async def _handle(self, reader, writer) -> None:
        try:
            while not self._stopping.is_set():
                line = await reader.readline()
                if not line:
                    break
                try:
                    message = json.loads(line)
                    if not isinstance(message, dict):
                        raise ValueError("message must be a JSON object")
                except ValueError as exc:
                    _write(writer, {"error": f"bad message: {exc}"})
                    continue
                try:
                    self._dispatch(message, writer)
                except ServeError as exc:
                    _write(writer, {"error": str(exc)})
                self._flush_settled()
                await writer.drain()
        finally:
            writer.close()

    def _dispatch(self, message: Dict[str, Any], writer) -> None:
        op = message.get("op")
        if op == "probe":
            self._op_probe(message, writer)
        elif op == "stats":
            _write(writer, {"stats": self.service.summary()})
        elif op == "trail":
            self._op_trail(message, writer)
        elif op == "shutdown":
            self._op_shutdown(writer)
        else:
            _write(writer, {"error": f"unknown op {op!r}; valid ops are "
                                     f"'probe', 'stats', 'trail', "
                                     f"'shutdown'"})

    def _op_probe(self, message: Dict[str, Any], writer) -> None:
        service = self.service
        if self.replay and "at" in message:
            service.clock.advance_to(float(message["at"]))
        outcome = service.offer(keys=message.get("keys"))
        if outcome["status"] == "admitted":
            # Answer when the request settles (served or expired).
            self._waiters[outcome["seq"]] = writer
        else:
            _write(writer, outcome)

    def _op_trail(self, message: Dict[str, Any], writer) -> None:
        if self.trail is None:
            _write(writer, {"error": "no trail ring attached; start the "
                                     "server with trail capture enabled"})
            return
        last = message.get("last")
        entries = list(self.trail.entries)
        if last is not None:
            entries = entries[-int(last):]
        _write(writer, {"trails": entries,
                        "recorded": self.trail.recorded,
                        "dropped_entries": self.trail.dropped_entries,
                        "dropped_hops": self.trail.dropped_hops})

    def _op_shutdown(self, writer) -> None:
        service = self.service
        service.close()
        service.drain()
        self._flush_settled()
        result = service.result()
        _write(writer, {"result": {
            "requests": result.requests,
            "completed": result.completed,
            "shed": result.shed,
            "expired": result.expired,
            "in_slo": result.in_slo,
            "makespan": result.makespan,
            "p99": result.p99 if result.latency.count else None,
            "goodput": result.goodput,
            "adaptations": int(service.adaptations.value),
            "walkers_allocated": int(service.walkers_allocated.value),
            "walkers_released": int(service.walkers_released.value),
            "conservation": (result.completed + result.shed
                             + result.expired == result.requests),
        }})
        self._stopping.set()


def _write(writer, payload: Dict[str, Any]) -> None:
    writer.write(json.dumps(payload, sort_keys=True).encode("utf-8") + b"\n")


async def start_server(service: LiveService, *, host: str = "127.0.0.1",
                       port: int = 0, trail=None,
                       replay: bool = True) -> LiveServer:
    """Start a :class:`LiveServer` and return it (``server.port`` is
    bound; ``await server.wait_closed()`` blocks until shutdown)."""
    server = LiveServer(service, trail=trail, replay=replay)
    await server.start(host, port)
    return server
