"""``python -m repro.live`` — boot the live serving stack end to end.

The demo starts the asyncio server on an ephemeral localhost port,
replays a seeded open-loop burst through the TCP client, and prints the
final conservation-checked summary as one JSON line.  By default it
runs in deterministic replay mode (virtual time carried on each probe),
so the outcome is identical on any host at any speed — the CI
live-smoke job asserts request conservation and at least one
obs-driven adaptive action on exactly this output.

``--wall`` switches to the wall-clock path (real sleeps, real
monotonic time); ``--trails N`` additionally runs one small seeded Widx
offload with walker-trail capture and serves the traversal paths on the
``trail`` endpoint.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from ..config import DEFAULT_CONFIG
from ..errors import ReproError
from ..serve.control import parse_controller
from ..serve.core import ResilienceConfig
from ..serve.service import ServiceModel
from ..serve.simulate import build_requests
from .clock import ManualClock, WallClock
from .service import LiveService

#: Synthetic calibration for the demo service (cycles per batch size):
#: batching amortizes, exactly like the measured models.
DEMO_CYCLES = {1: 100.0, 2: 160.0, 4: 280.0}


def build_parser() -> argparse.ArgumentParser:
    """Argument parser for the ``python -m repro.live`` entry point."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.live",
        description="Live (wall-clock) serving front-end demo.")
    parser.add_argument("--demo", action="store_true",
                        help="serve a seeded burst end to end and print "
                             "the final summary as JSON")
    parser.add_argument("--requests", type=int, default=400,
                        help="burst size (default: 400)")
    parser.add_argument("--rate", type=float, default=20.0,
                        help="offered load, requests per kilocycle "
                             "(default: 20 — a deliberate overload)")
    parser.add_argument("--seed", type=int, default=42,
                        help="arrival-schedule seed")
    parser.add_argument("--keys", type=int, default=8,
                        help="probe keys per request")
    parser.add_argument("--cores", type=int, default=1)
    parser.add_argument("--policy", default="shed:64:size:4",
                        help="scheduling policy spec (default: "
                             "shed:64:size:4)")
    parser.add_argument("--slo", type=float, default=2500.0,
                        help="latency SLO in cycles (default: 2500)")
    parser.add_argument("--controller", default="p99:2000:2:3:all",
                        help="degraded-mode controller spec (default: "
                             "p99:2000:2:3:all; pass 'off' to disable)")
    parser.add_argument("--walkers", default="2:4", metavar="MIN:MAX",
                        help="elastic walker range (default: 2:4; pass "
                             "'off' to pin full power)")
    parser.add_argument("--wall", action="store_true",
                        help="use the wall clock (real sleeps) instead of "
                             "deterministic replay")
    parser.add_argument("--cps", type=float, default=1.0e6,
                        help="cycles per second for --wall (default: 1e6)")
    parser.add_argument("--trails", type=int, default=None, metavar="N",
                        help="capture N walker trails from a seeded Widx "
                             "offload and serve them on the trail endpoint")
    return parser


def demo_service(args, clock) -> LiveService:
    """The demo's LiveService: synthetic model, SLO, controller, elastic
    walkers — every adaptive path armed."""
    model = ServiceModel("live-demo", args.keys, dict(DEMO_CYCLES))
    resilience = None
    if args.controller != "off":
        resilience = ResilienceConfig(
            slo=args.slo, controller=parse_controller(args.controller))
    elif args.slo:
        resilience = ResilienceConfig(slo=args.slo)
    walkers = None
    if args.walkers != "off":
        low, _, high = args.walkers.partition(":")
        walkers = (int(low), int(high or low))
    return LiveService(model, policy=args.policy, cores=args.cores,
                       resilience=resilience, clock=clock, walkers=walkers)


def capture_demo_trails(capacity: int, seed: int = 17, probes: int = 120):
    """Run one small seeded Widx offload with trail capture attached.

    The live demo serves *calibrated* requests (no per-request machine
    simulation), so the trail endpoint's traversal paths come from a
    representative offload over a seeded index — same shape of data a
    widx-backed deployment would stream per request.
    """
    import numpy as np

    from ..db.column import Column
    from ..db.datagen import make_rng, probe_keys, unique_keys
    from ..db.hashfn import ROBUST_HASH_32
    from ..db.hashtable import HashIndex, choose_num_buckets
    from ..db.node import KERNEL_LAYOUT
    from ..db.types import DataType
    from ..mem.layout import AddressSpace
    from ..obs import Trail
    from ..widx.offload import offload_probe

    space = AddressSpace()
    rng = make_rng(seed)
    num_keys = 800
    keys = unique_keys(num_keys, 4, rng)
    index = HashIndex(space, KERNEL_LAYOUT,
                      choose_num_buckets(num_keys, 1.0),
                      ROBUST_HASH_32, capacity=num_keys)
    index.build(keys, np.arange(1, num_keys + 1))
    values = probe_keys(np.asarray(keys), probes, 1.0, 4, make_rng(seed + 1))
    column = Column("probes", DataType.for_key_bytes(4), values)
    column.materialize(space)
    trail = Trail(capacity=capacity)
    offload_probe(index, column, probes=probes, trail=trail,
                  config=DEFAULT_CONFIG.with_widx(mode="shared",
                                                  num_walkers=2))
    return trail


async def run_demo(args, out) -> int:
    """Boot the server, fire the seeded client burst, print the summary.

    Returns a process exit code: 0 on success, 1 when conservation or
    (in replay mode) the at-least-one-adaptation check fails.
    """
    from .client import run_burst
    from .server import start_server

    clock = WallClock(cycles_per_second=args.cps) if args.wall \
        else ManualClock()
    service = demo_service(args, clock)
    trail = (capture_demo_trails(args.trails, seed=args.seed)
             if args.trails is not None else None)
    server = await start_server(service, trail=trail, replay=not args.wall)
    requests = build_requests(args.rate, args.requests, args.keys,
                              seed=args.seed)
    outcome = await run_burst("127.0.0.1", server.port, requests,
                              replay=not args.wall,
                              cycles_per_second=args.cps)
    await server.wait_closed()

    result = outcome["result"]
    if trail is not None:
        result["trails_captured"] = len(trail)
    print(json.dumps({"live_demo": result}, sort_keys=True), file=out)
    failures: List[str] = []
    if not result["conservation"]:
        failures.append("request conservation violated")
    if result["adaptations"] < 1 and not args.wall:
        # Only deterministic replay guarantees the overload pattern; on
        # the wall clock the offered load depends on host speed.
        failures.append("no adaptive action fired")
    for failure in failures:
        print(f"FAIL: {failure}", file=out)
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None, out=sys.stdout) -> int:
    """CLI entry point; parses ``argv`` and runs the demo."""
    args = build_parser().parse_args(argv)
    if not args.demo:
        build_parser().print_usage(file=out)
        print("nothing to do: pass --demo", file=out)
        return 2
    try:
        import asyncio
        return asyncio.run(run_demo(args, out))
    except ReproError as exc:
        print(f"error: {exc}", file=out)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
