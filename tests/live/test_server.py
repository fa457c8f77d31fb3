"""End-to-end tests for the asyncio live transport.

Every test runs the full in-process stack — ``start_server`` on an
ephemeral localhost port plus a real TCP client — in deterministic
replay mode, so outcomes are independent of host speed.  Tests drive
their own event loop with ``asyncio.run``; no pytest plugin needed.
"""

import asyncio
import json

import pytest

from repro.errors import ServeError
from repro.live.client import run_burst
from repro.live.clock import ManualClock, WallClock
from repro.live.server import LiveServer, start_server
from repro.live.service import LiveService
from repro.obs import Trail
from repro.serve.control import parse_controller
from repro.serve.core import ResilienceConfig
from repro.serve.service import ServiceModel
from repro.serve.simulate import build_requests

MODEL = ServiceModel("synthetic", 8, {1: 100.0, 2: 160.0, 4: 280.0})


def overload_service():
    resilience = ResilienceConfig(
        slo=2500.0, controller=parse_controller("p99:2000:2:3:all"))
    return LiveService(MODEL, policy="shed:64:size:4",
                       resilience=resilience, clock=ManualClock(),
                       walkers=(2, 4))


async def serve_burst(service, requests, *, trail=None, shutdown=True):
    server = await start_server(service, trail=trail)
    outcome = await run_burst("127.0.0.1", server.port, requests,
                              shutdown=shutdown)
    if shutdown:
        await server.wait_closed()
    else:
        server._stopping.set()
        await server.wait_closed()
    return outcome


async def raw_session(service, lines, *, trail=None):
    """Send raw protocol lines; collect one response line per send."""
    server = await start_server(service, trail=trail)
    reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
    replies = []
    for line in lines:
        writer.write(line.encode("utf-8") + b"\n")
        await writer.drain()
        replies.append(json.loads(await reader.readline()))
    writer.close()
    server._stopping.set()
    await server.wait_closed()
    return replies


class TestEndToEnd:
    def test_burst_conserves_and_answers_every_request(self):
        requests = build_requests(20.0, 80, 8, seed=42)
        outcome = asyncio.run(serve_burst(overload_service(), requests))
        result = outcome["result"]
        assert result["conservation"] is True
        assert result["requests"] == 80
        assert (result["completed"] + result["shed"] + result["expired"]
                == 80)
        # Every request got a settlement line: shed immediately, admitted
        # on completion — none lost in the transport.
        assert len(outcome["responses"]) == 80
        assert not outcome["errors"]

    def test_served_responses_carry_latency(self):
        requests = build_requests(5.0, 12, 8, seed=3)
        outcome = asyncio.run(
            serve_burst(LiveService(MODEL, clock=ManualClock()), requests))
        statuses = {r["status"] for r in outcome["responses"].values()}
        assert statuses == {"served"}
        # >= one service time, modulo float accumulation in virtual time.
        assert all(r["latency"] > 99.0
                   for r in outcome["responses"].values())

    def test_shed_requests_answer_immediately(self):
        requests = build_requests(80.0, 60, 8, seed=7)
        service = LiveService(MODEL, policy="shed:2:fifo",
                              clock=ManualClock())
        outcome = asyncio.run(serve_burst(service, requests))
        shed = [r for r in outcome["responses"].values()
                if r["status"] == "shed"]
        assert shed and outcome["result"]["shed"] == len(shed)

    def test_adaptive_actions_surface_in_the_result(self):
        requests = build_requests(20.0, 400, 8, seed=42)
        result = asyncio.run(
            serve_burst(overload_service(), requests))["result"]
        assert result["adaptations"] >= 1
        assert result["walkers_allocated"] >= 1

    def test_stats_snapshot_without_shutdown(self):
        requests = build_requests(5.0, 10, 8, seed=3)
        outcome = asyncio.run(serve_burst(
            LiveService(MODEL, clock=ManualClock()), requests,
            shutdown=False))
        assert outcome["result"] is None
        assert outcome["stats"]["offered"] == 10

    def test_replay_runs_are_identical(self):
        requests = build_requests(20.0, 120, 8, seed=42)
        first = asyncio.run(serve_burst(overload_service(), requests))
        second = asyncio.run(serve_burst(overload_service(), requests))
        assert first["result"] == second["result"]
        assert first["responses"] == second["responses"]


class TestProtocol:
    def test_unknown_op_and_bad_json_answer_with_errors(self):
        replies = asyncio.run(raw_session(
            LiveService(MODEL, clock=ManualClock()),
            ['{"op": "nope"}', "not json"]))
        assert "unknown op" in replies[0]["error"]
        assert "bad message" in replies[1]["error"]

    def test_wrong_key_count_is_a_protocol_error(self):
        replies = asyncio.run(raw_session(
            LiveService(MODEL, clock=ManualClock()),
            ['{"op": "probe", "keys": 3, "at": 0.0}']))
        assert "calibrated" in replies[0]["error"]

    def test_trail_op_without_a_ring_is_an_error(self):
        replies = asyncio.run(raw_session(
            LiveService(MODEL, clock=ManualClock()), ['{"op": "trail"}']))
        assert "no trail ring" in replies[0]["error"]

    def test_trail_op_serves_captured_entries(self):
        trail = Trail(capacity=8)
        trail.record("walker0", [17], 0.0, 42.0,
                     [(1.0, 0x1000, "L1"), (9.0, 0x2000, "DRAM")])
        trail.record("walker1", [23], 5.0, 60.0, [(6.0, 0x3000, "LLC")])
        replies = asyncio.run(raw_session(
            LiveService(MODEL, clock=ManualClock()),
            ['{"op": "trail"}', '{"op": "trail", "last": 1}'],
            trail=trail))
        assert replies[0]["recorded"] == 2
        assert len(replies[0]["trails"]) == 2
        assert len(replies[1]["trails"]) == 1
        assert replies[1]["trails"][0]["walker"] == "walker1"

    def test_replay_mode_requires_a_manual_clock(self):
        service = LiveService(MODEL, clock=WallClock())
        with pytest.raises(ServeError, match="ManualClock"):
            LiveServer(service, replay=True)


class TestDemo:
    def test_demo_main_passes_its_own_checks(self):
        import io

        from repro.live.__main__ import main
        out = io.StringIO()
        assert main(["--demo", "--requests", "120"], out=out) == 0
        payload = json.loads(out.getvalue())
        result = payload["live_demo"]
        assert result["conservation"] is True
        assert result["adaptations"] >= 1

    def test_demo_replay_summary_is_pinned(self):
        """The default replay demo arms every adaptive path (shed, SLO,
        controller, elastic walkers); its summary is pinned exactly, so
        a change to how live batches are formed, priced or settled
        shows up here."""
        import io

        from repro.live.__main__ import main
        out = io.StringIO()
        assert main(["--demo"], out=out) == 0
        result = json.loads(out.getvalue())["live_demo"]
        assert result == {
            "adaptations": 4, "completed": 249, "conservation": True,
            "expired": 0, "goodput": 7.094594594594598, "in_slo": 161,
            "makespan": 22744.336347697063, "p99": 6616.123046875,
            "requests": 400, "shed": 151, "walkers_allocated": 2,
            "walkers_released": 2}

    def test_demo_requires_the_flag(self):
        import io

        from repro.live.__main__ import main
        assert main([], out=io.StringIO()) == 2
