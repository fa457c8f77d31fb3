"""Tests for the degraded-mode controller."""

import pytest

from repro.errors import ServeError
from repro.obs import StatsRegistry
from repro.serve.control import (Controller, ControllerSpec, parse_controller)
from repro.serve.faults import WalkerFaultModel
from repro.serve.policies import FifoPolicy
from repro.serve.service import ServiceModel
from repro.serve.simulate import ResilienceConfig, run_open_loop

MODEL = ServiceModel("synthetic", 8, {1: 100.0, 2: 160.0, 4: 280.0})
FALLBACK = ServiceModel("host", 8, {1: 300.0, 2: 520.0, 4: 960.0})


# ---------------------------------------------------------------------------
# spec parsing
# ---------------------------------------------------------------------------

def test_parse_controller_full_spec():
    spec = parse_controller("p99:5000:3:4:all")
    assert spec.window == 5000.0
    assert spec.breach == 3
    assert spec.recover == 4
    assert spec.action == "all"


def test_parse_controller_defaults():
    spec = parse_controller("p99:2000")
    assert spec.window == 2000.0
    assert spec.breach == 2
    assert spec.recover == 3
    assert spec.action == "shed"


def test_parse_controller_rejects_bad_specs():
    for bad in ("", "p99", "p50:1000", "p99:0", "p99:1000:0",
                "p99:1000:2:0", "p99:1000:2:3:explode",
                "p99:1000:2:3:all:extra"):
        with pytest.raises(ServeError):
            parse_controller(bad)


def test_controller_spec_validation():
    with pytest.raises(ServeError):
        ControllerSpec(window=0.0)
    with pytest.raises(ServeError):
        ControllerSpec(window=100.0, margin=0.0)
    with pytest.raises(ServeError):
        ControllerSpec(window=100.0, action="panic")
    with pytest.raises(ServeError):
        ControllerSpec(window=100.0, spares=-1)


def test_shed_depth_tightens_with_level():
    spec = ControllerSpec(window=100.0, depth=16)
    assert spec.shed_depth_at(0) is None
    assert spec.shed_depth_at(1) == 16
    assert spec.shed_depth_at(2) == 8
    assert spec.shed_depth_at(3) == 4
    assert spec.shed_depth_at(10) == 1   # floors at 1, never 0


# ---------------------------------------------------------------------------
# the hysteretic state machine (engine-free)
# ---------------------------------------------------------------------------

def test_controller_degrades_after_consecutive_breaches():
    ctl = Controller(ControllerSpec(window=100.0, breach=2, recover=3),
                     slo=1000.0)
    assert ctl.observe(2000.0) == 0       # first breach: not yet
    assert ctl.level == 0
    assert ctl.observe(2000.0) == 1       # second consecutive: degrade
    assert ctl.level == 1
    assert ctl.breaches == 2
    assert ctl.degradations == 1


def test_breach_streak_resets_on_a_clean_window():
    ctl = Controller(ControllerSpec(window=100.0, breach=2, recover=3),
                     slo=1000.0)
    ctl.observe(2000.0)
    assert ctl.observe(100.0) == 0        # clean window breaks the streak
    assert ctl.observe(2000.0) == 0       # streak starts over
    assert ctl.level == 0


def test_controller_recovers_hysteretically():
    ctl = Controller(ControllerSpec(window=100.0, breach=1, recover=3),
                     slo=1000.0)
    assert ctl.observe(2000.0) == 1
    assert ctl.level == 1
    assert ctl.observe(100.0) == 0        # 1 clean
    assert ctl.observe(100.0) == 0        # 2 clean
    assert ctl.observe(100.0) == -1       # 3 clean: recover one level
    assert ctl.level == 0
    assert ctl.recoveries == 1


def test_margin_treats_near_slo_as_breach():
    """The controller regulates against margin * slo, not the SLO
    itself, so it reacts before the SLO is actually blown."""
    ctl = Controller(ControllerSpec(window=100.0, breach=1, margin=0.8),
                     slo=1000.0)
    assert ctl.observe(900.0) == 1        # above 800 = breach
    ctl2 = Controller(ControllerSpec(window=100.0, breach=1, margin=0.8),
                      slo=1000.0)
    assert ctl2.observe(700.0) == 0


def test_empty_window_breaches_only_while_degraded():
    """No completions at level 0 means idle (clean); at level > 0 it
    means the system is so degraded nothing finished — keep degrading."""
    ctl = Controller(ControllerSpec(window=100.0, breach=1, recover=2),
                     slo=1000.0)
    assert ctl.observe(None) == 0
    assert ctl.level == 0
    ctl.observe(2000.0)                   # degrade to 1
    assert ctl.observe(None) == 1         # empty while degraded: worse
    assert ctl.level == 2


def test_level_is_capped_and_peak_is_tracked():
    ctl = Controller(ControllerSpec(window=100.0, breach=1, max_level=2),
                     slo=1000.0)
    for _ in range(5):
        ctl.observe(9000.0)
    assert ctl.level == 2
    assert ctl.peak_level == 2


# ---------------------------------------------------------------------------
# closed loop on the serving simulation
# ---------------------------------------------------------------------------

def overloaded(controller_spec, *, requests=400, fault_rate=0.0, seed=42):
    rate = 3 * 2 * MODEL.saturation_rate()   # far beyond capacity
    faults = WalkerFaultModel(seed=seed, rate=fault_rate,
                              walkers_per_core=2)
    resilience = ResilienceConfig(
        slo=2000.0, controller=parse_controller(controller_spec),
        faults=faults if faults.active else None,
        fallback=FALLBACK if faults.active else None)
    return run_open_loop(MODEL, rate=rate, num_requests=requests,
                         policy=FifoPolicy(), cores=2, seed=seed,
                         resilience=resilience)


def test_controller_sheds_under_overload_and_conserves():
    result = overloaded("p99:2000:1:3:shed")
    registry = StatsRegistry.from_dict(result.stats)
    assert registry.get("serve.controller.degradations").value >= 1
    assert registry.get("serve.controller.peak_level").value >= 1
    assert result.shed > 0                   # shedding was switched on
    assert result.completed + result.shed + result.expired == \
        result.requests


def test_controller_shedding_beats_no_controller_on_goodput():
    """Under sustained overload, shedding keeps the admitted traffic
    in-SLO: goodput (not throughput) is what the controller buys."""
    rate = 3 * 2 * MODEL.saturation_rate()
    plain = run_open_loop(MODEL, rate=rate, num_requests=400,
                          policy=FifoPolicy(), cores=2, seed=42,
                          resilience=ResilienceConfig(slo=2000.0))
    controlled = overloaded("p99:2000:1:3:shed")
    assert controlled.goodput > plain.goodput
    assert controlled.p99 < plain.p99


def test_controller_run_is_deterministic():
    a = overloaded("p99:2000:1:3:all", fault_rate=40.0)
    b = overloaded("p99:2000:1:3:all", fault_rate=40.0)
    assert a.latency.to_dict() == b.latency.to_dict()
    assert (a.shed, a.completed, a.makespan) == (b.shed, b.completed,
                                                 b.makespan)


def test_walker_action_repairs_dead_cores():
    """The 'walkers' action spends spare walkers on the most-degraded
    core; with faults landing early the repair must show up in the
    recovery counters and keep the run conserving."""
    result = overloaded("p99:1500:1:2:walkers", fault_rate=60.0)
    assert result.faults > 0
    assert result.completed + result.shed + result.expired == \
        result.requests
    registry = StatsRegistry.from_dict(result.stats)
    assert registry.get("serve.controller.windows").value >= 1


def test_makespan_is_last_completion_not_last_window():
    """The controller ticks on a fixed window and may outlive the
    drain; the reported makespan must still be the last completion."""
    result = overloaded("p99:100000:1:3:shed")  # windows far apart
    plain = run_open_loop(MODEL, rate=3 * 2 * MODEL.saturation_rate(),
                          num_requests=400, policy=FifoPolicy(), cores=2,
                          seed=42, resilience=ResilienceConfig(slo=2000.0))
    # One idle mega-window must not inflate the makespan.
    assert result.makespan <= plain.makespan * 1.01


def test_controller_requires_an_slo():
    with pytest.raises(ServeError):
        ResilienceConfig(controller=parse_controller("p99:1000"))
