"""Deterministic-replay tests for the live serving driver.

Everything here drives :class:`~repro.live.service.LiveService` from a
:class:`~repro.live.clock.ManualClock` — no asyncio, no sleeping, no
dependence on host speed.  The differential tests replay the same
request schedules through the discrete-event driver and compare
outcomes, pinning the live driver to the extracted core's semantics.
"""

import pytest

from repro.errors import ServeError
from repro.live.clock import ManualClock
from repro.live.service import LiveService
from repro.serve.control import parse_controller
from repro.serve.core import ResilienceConfig
from repro.serve.faults import WalkerFaultModel
from repro.serve.policies import parse_policy
from repro.serve.service import ServiceModel
from repro.serve.simulate import build_requests, simulate_service

MODEL = ServiceModel("synthetic", 8, {1: 100.0, 2: 160.0, 4: 280.0})


def replay(requests, *, policy="fifo", cores=1, resilience=None,
           walkers=None, model=MODEL):
    """Push a request schedule through a LiveService and finalize it."""
    service = LiveService(model, policy=policy, cores=cores,
                          resilience=resilience, clock=ManualClock(),
                          walkers=walkers)
    for request in requests:
        service.clock.advance_to(request.arrival)
        service.offer(keys=request.keys, now=request.arrival)
    service.close()
    service.drain()
    return service


class TestBasicServing:
    def test_single_request_served_at_service_time(self):
        settled = []
        service = LiveService(
            MODEL, clock=ManualClock(),
            on_settled=lambda r, s, t: settled.append((r.seq, s, t)))
        assert service.offer(now=0.0)["status"] == "admitted"
        service.close()
        service.drain()
        result = service.result()
        assert result.completed == 1
        assert settled == [(0, "served", 100.0)]
        assert result.latency.count == 1
        assert result.makespan == 100.0

    def test_queued_requests_serve_back_to_back(self):
        requests = build_requests(5.0, 10, 8, seed=3,
                                  arrival="deterministic")
        service = replay(requests, policy="fifo")
        result = service.result()
        assert result.completed == 10
        assert result.shed == result.expired == 0

    def test_batching_policy_groups_backlog(self):
        # The live driver is work-conserving: the first arrival starts
        # alone, the four that land while the core is busy form one
        # size-capped batch when it frees up.
        service = LiveService(MODEL, policy="size:4", clock=ManualClock())
        for _ in range(5):
            service.offer(now=0.0)
        service.close()
        service.drain()
        result = service.result()
        assert result.stats["serve.batches"]["value"] == 2
        assert result.makespan == 100.0 + 280.0

    def test_deadline_policy_holds_the_batch_open(self):
        policy = parse_policy("deadline:50")
        service = LiveService(MODEL, policy=policy, clock=ManualClock())
        service.offer(now=0.0)
        service.clock.advance_to(30.0)
        service.offer(now=30.0)  # lands inside the hold window
        service.close()
        service.drain()
        result = service.result()
        # One batch of two, started when the hold expired at t=50.
        assert result.stats["serve.batches"]["value"] == 1
        assert result.makespan == 50.0 + 160.0

    def test_offer_validates_key_count(self):
        service = LiveService(MODEL, clock=ManualClock())
        with pytest.raises(ServeError, match="calibrated"):
            service.offer(keys=99)

    def test_offer_after_close_raises(self):
        service = LiveService(MODEL, clock=ManualClock())
        service.close()
        with pytest.raises(ServeError, match="closed"):
            service.offer()

    def test_result_needs_close_and_drain(self):
        service = LiveService(MODEL, clock=ManualClock())
        service.offer(now=0.0)
        with pytest.raises(ServeError, match="closed, drained"):
            service.result()

    def test_drain_needs_close(self):
        service = LiveService(MODEL, clock=ManualClock())
        with pytest.raises(ServeError, match="close"):
            service.drain()

    def test_unbounded_admission_never_sheds(self):
        requests = build_requests(50.0, 40, 8, seed=5)
        result = replay(requests, policy="fifo").result()
        assert result.shed == 0
        assert result.completed == 40


class TestWalkerFaults:
    """Live batches run through the DES server processes, so a walker
    death inside a batch aborts it at the death instant in both drivers."""

    @staticmethod
    def faulted(rate, model=MODEL):
        return ResilienceConfig(
            slo=30_000.0, fallback=model.scaled(2.5),
            faults=WalkerFaultModel(seed=7, rate=rate, walkers_per_core=2))

    def test_fault_scenario_matches_des(self):
        # EXPERIMENTS.md's fault scenario: the bench model, 4 cores at
        # 0.9x saturation, 2000 requests, shed:32, 40 deaths/walker/Mcycle.
        model = ServiceModel("bench", 8, {1: 840.0, 4: 2260.0,
                                          16: 7400.0, 64: 26000.0})
        rate = 0.9 * 4 * model.saturation_rate()
        requests = build_requests(rate, 2000, 8, seed=7)
        resilience = self.faulted(40.0, model)
        des = simulate_service(requests, model,
                               policy=parse_policy("shed:32"), cores=4,
                               resilience=resilience)
        live = replay(requests, policy="shed:32", cores=4,
                      resilience=resilience, model=model).result()
        assert (des.completed, des.shed,
                des.stats["serve.aborts"]["value"]) == (1054, 946, 8)
        assert (live.completed, live.shed, live.faults) == \
            (des.completed, des.shed, des.faults)
        assert live.stats["serve.aborts"] == des.stats["serve.aborts"]
        assert live.makespan == des.makespan
        assert live.p99 == des.p99

    def test_degraded_core_still_flexes_its_walkers(self):
        # One of the core's two walkers dies at ~138 cycles; the frugal
        # pool (2 of 4 active) doubles the degraded price: 100 * 2 * 2.
        resilience = ResilienceConfig(
            slo=2500.0, controller=parse_controller("p99:2000:2:3:all"),
            fallback=MODEL.scaled(2.5),
            faults=WalkerFaultModel(seed=7, rate=1000.0,
                                    walkers_per_core=2))
        service = LiveService(MODEL, resilience=resilience,
                              clock=ManualClock(), walkers=(2, 4))
        service.offer(now=200.0)
        service.close()
        service.drain()
        assert service.result().makespan == 200.0 + 400.0

    def test_inactive_fault_model_serves_like_the_des(self):
        requests = build_requests(30.0, 80, 8, seed=7)
        resilience = self.faulted(0.0)
        des = simulate_service(requests, MODEL, policy=parse_policy("shed:32"),
                               cores=4, resilience=resilience)
        live = replay(requests, policy="shed:32", cores=4,
                      resilience=resilience).result()
        assert (live.completed, live.shed, live.faults) == \
            (des.completed, des.shed, 0)
        assert live.makespan == pytest.approx(des.makespan)
        assert live.p99 == des.p99


class TestAdmissionAndDeadlines:
    def test_shed_policy_bounds_the_queue(self):
        requests = build_requests(60.0, 80, 8, seed=7)
        result = replay(requests, policy="shed:4:fifo").result()
        assert result.shed > 0
        assert result.completed + result.shed + result.expired == 80

    def test_timeout_policy_expires_stale_requests(self):
        requests = build_requests(60.0, 60, 8, seed=9)
        result = replay(requests, policy="timeout:300:fifo").result()
        assert result.expired > 0
        assert result.completed + result.shed + result.expired == 60

    def test_settled_callback_covers_every_admitted_request(self):
        settled = []
        requests = build_requests(60.0, 60, 8, seed=11)
        service = LiveService(
            MODEL, policy="shed:4:timeout:400:fifo", clock=ManualClock(),
            on_settled=lambda r, s, t: settled.append((r.seq, s)))
        admitted = 0
        for request in requests:
            service.clock.advance_to(request.arrival)
            if service.offer(now=request.arrival)["status"] == "admitted":
                admitted += 1
        service.close()
        service.drain()
        service.result()
        assert len(settled) == admitted
        assert {status for _seq, status in settled} <= {"served", "expired"}

    def test_conservation_across_policies(self):
        requests = build_requests(40.0, 100, 8, seed=13)
        for spec in ("fifo", "size:4", "shed:8:size:2",
                     "shed:8:timeout:1000:size:2", "deadline:100:4"):
            result = replay(requests, policy=spec).result()
            assert (result.completed + result.shed + result.expired
                    == 100), spec


class TestDifferentialAgainstDES:
    """The live driver and the DES driver run the same core — identical
    schedules must produce identical serving outcomes."""

    @pytest.mark.parametrize("spec,cores", [
        ("fifo", 1), ("fifo", 2), ("size:4", 1), ("size:4", 3),
    ])
    def test_plain_path_matches_des(self, spec, cores):
        requests = build_requests(12.0, 60, 8, seed=21)
        des = simulate_service(requests, MODEL, policy=parse_policy(spec),
                               cores=cores)
        live = replay(requests, policy=spec, cores=cores).result()
        assert live.completed == des.completed
        assert live.makespan == pytest.approx(des.makespan)
        assert live.latency.count == des.latency.count
        assert live.p50 == des.p50
        assert live.p99 == des.p99

    @pytest.mark.parametrize("cores", [1, 2])
    @pytest.mark.parametrize("rate", [5.0, 12.0, 30.0])
    @pytest.mark.parametrize("spec", [
        "deadline:100", "deadline:100:4", "deadline:300:2",
        "timeout:800:deadline:100:4",
    ])
    def test_deadline_policies_match_des(self, spec, rate, cores):
        # A deadline policy holds its batch open from the moment the
        # server takes the first request, not from that request's
        # arrival; both drivers run the policy's own collect.
        requests = build_requests(rate, 200, 8, seed=21)
        des = simulate_service(requests, MODEL, policy=parse_policy(spec),
                               cores=cores)
        live = replay(requests, policy=spec, cores=cores).result()
        assert (live.completed, live.expired) == (des.completed, des.expired)
        assert live.makespan == des.makespan
        assert live.p50 == des.p50
        assert live.p99 == des.p99

    @pytest.mark.parametrize("spec", ["shed:6:size:2", "timeout:800:fifo"])
    def test_resilient_path_matches_des(self, spec):
        requests = build_requests(30.0, 80, 8, seed=23)
        resilience = ResilienceConfig(slo=2000.0)
        des = simulate_service(requests, MODEL, policy=parse_policy(spec),
                               cores=2, resilience=resilience)
        live = replay(requests, policy=spec, cores=2,
                      resilience=ResilienceConfig(slo=2000.0)).result()
        assert live.completed == des.completed
        assert live.shed == des.shed
        assert live.expired == des.expired
        assert live.in_slo == des.in_slo
        assert live.p99 == des.p99


class TestAdaptiveControl:
    RESILIENCE = ResilienceConfig(
        slo=2500.0, controller=parse_controller("p99:2000:2:3:all"))

    def overloaded(self, walkers=(2, 4)):
        requests = build_requests(20.0, 400, 8, seed=42)
        return replay(requests, policy="shed:64:size:4",
                      resilience=self.RESILIENCE, walkers=walkers)

    def test_controller_fires_and_walkers_flex(self):
        service = self.overloaded()
        result = service.result()
        assert int(service.adaptations.value) >= 1
        assert int(service.walkers_allocated.value) >= 1
        assert int(service.walkers_released.value) >= 1
        assert result.completed + result.shed + result.expired == 400
        assert result.shed > 0

    def test_walkers_start_frugal_under_a_controller(self):
        service = LiveService(MODEL, resilience=self.RESILIENCE,
                              clock=ManualClock(), walkers=(2, 4))
        assert service.walkers_active == 2

    def test_walkers_start_full_power_without_a_controller(self):
        service = LiveService(MODEL, clock=ManualClock(), walkers=(2, 4))
        assert service.walkers_active == 4

    def test_frugal_walkers_scale_service_time(self):
        service = LiveService(MODEL, resilience=self.RESILIENCE,
                              clock=ManualClock(), walkers=(2, 4))
        service.offer(now=0.0)
        service.close()
        service.drain()
        # 2 of 4 walkers active: the single request costs 2x calibrated.
        assert service.result().makespan == 200.0

    def test_replay_is_deterministic(self):
        first = self.overloaded().summary()
        second = self.overloaded().summary()
        assert first == second

    def test_adaptations_counted_in_registry(self):
        service = self.overloaded()
        stats = service.result().stats
        assert stats["live.adaptations"]["value"] == service.adaptations.value
        assert "live.walkers_allocated" in stats
        assert "live.walkers_released" in stats

    def test_bad_walker_range_rejected(self):
        with pytest.raises(ServeError, match="walkers"):
            LiveService(MODEL, clock=ManualClock(), walkers=(0, 4))
        with pytest.raises(ServeError, match="walkers"):
            LiveService(MODEL, clock=ManualClock(), walkers=(4, 2))
