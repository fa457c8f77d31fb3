"""Full-stack differential tests: optimized vs all-naive PIM offload.

The bank-side backend gets the same wall the Widx overhaul got: complete
bulk probes run twice — once on the optimized stack and once with every
layer swapped for its deliberately naive twin (reference engine,
reference bank-buffer array via
:func:`~repro.mem.reference.use_reference_arrays`,
:class:`~repro.pim.ReferencePimUnit` interpreter) — and the *entire*
simulated outcome must be bit-identical: total cycles, payloads,
per-unit accounting, buffer/TLB counters and per-bank port traffic.
Swept across bank geometries, walker counts, launch latencies and
fault-injected runs, so a behavioural drift anywhere in the new
attachment point fails loudly.
"""

from __future__ import annotations

import pytest

from repro.mem.pimside import PimBankMemory
from repro.mem.reference import use_reference_arrays
from repro.pim import ReferencePimUnit, pim_config
from repro.serve.faults import WalkerFaultModel
from repro.serve.policies import parse_policy
from repro.serve.service import ServiceModel, measure_service
from repro.serve.simulate import ResilienceConfig, run_open_loop
from repro.sim.reference import ReferenceEngine
from repro.widx.machine import UnitFault
from repro.widx.offload import offload_probe
from tests.conftest import build_direct_index, materialized_probe_column

PROBES = 200


def outcome_key(outcome):
    """Every externally observable artifact of one bank-side offload."""
    run = outcome.run
    units = tuple(
        (name, stats.invocations.value, stats.instructions.value,
         stats.loads.value, stats.stores.value, stats.emitted.value,
         stats.cycles.comp, stats.cycles.mem, stats.cycles.tlb,
         stats.cycles.queue)
        for name, stats in sorted(run.unit_stats.items()))
    mem = {path: value for path, value in outcome.stats.items()
           if path.startswith("mem.")}
    return (run.total_cycles, run.config_cycles, run.matches,
            tuple(outcome.payloads), outcome.validated, units, mem)


def run_pair(space, *, walkers=2, mode="shared", banks=8,
             walkers_per_bank=None, launch_cycles=None, probes=PROBES,
             num_keys=1500, match_fraction=1.0, warm=True, faults=()):
    index, keys, _truth = build_direct_index(space, num_keys=num_keys)
    column = materialized_probe_column(space, keys, count=probes,
                                       match_fraction=match_fraction)
    config = pim_config(walkers=walkers, mode=mode, banks=banks,
                        walkers_per_bank=walkers_per_bank,
                        launch_cycles=launch_cycles)
    optimized = offload_probe(index, column, config=config, probes=probes,
                              warm=warm, faults=faults)
    reference = offload_probe(
        index, column, config=config, probes=probes, warm=warm,
        faults=faults,
        memory=use_reference_arrays(PimBankMemory(config)),
        engine=ReferenceEngine(),
        unit_cls=ReferencePimUnit)
    return outcome_key(optimized), outcome_key(reference)


@pytest.mark.parametrize("walkers", [1, 2, 4])
def test_pim_offload_identical_across_walker_counts(space, walkers):
    optimized, reference = run_pair(space, walkers=walkers)
    assert optimized == reference


@pytest.mark.parametrize("banks,walkers_per_bank",
                         [(1, 1), (2, 2), (4, 1), (8, 4)])
def test_pim_offload_identical_across_bank_geometries(space, banks,
                                                      walkers_per_bank):
    """The grid that stresses the new code: conflict-heavy single-bank
    single-slot up through wide geometries where ports never saturate."""
    optimized, reference = run_pair(space, walkers=4, banks=banks,
                                    walkers_per_bank=walkers_per_bank)
    assert optimized == reference


@pytest.mark.parametrize("launch_cycles", [0.0, 137.5, 2000.0])
def test_pim_offload_identical_across_launch_latencies(space, launch_cycles):
    optimized, reference = run_pair(space, launch_cycles=launch_cycles)
    assert optimized == reference


@pytest.mark.parametrize("mode", ["shared", "private", "coupled"])
def test_pim_offload_identical_across_organizations(space, mode):
    optimized, reference = run_pair(space, mode=mode)
    assert optimized == reference


def test_pim_offload_identical_with_cold_buffer_and_misses(space):
    """No warm-up and 60% matching probes: buffer evictions and bank
    traffic differ most between the stacks, and must still agree."""
    optimized, reference = run_pair(space, warm=False, match_fraction=0.6)
    assert optimized == reference


# ---------------------------------------------------------------------------
# fault-injected differentials: walkers die the same way on both stacks
# ---------------------------------------------------------------------------

KILL_EARLY = (UnitFault(unit="walker1", cycle=1000.0),)


def test_pim_offload_identical_under_survivable_walker_kill(space):
    """Shared mode salvages a dead bank-side walker's in-flight probe on
    both stacks; the salvage path must not drift between them."""
    optimized, reference = run_pair(space, faults=KILL_EARLY)
    assert optimized == reference
    assert optimized[4] is True  # still validates


def test_pim_fallback_to_host_matches_reference_results(space):
    """A coupled-mode walker kill is unsurvivable: with
    ``fallback_to_host`` both stacks re-run on the host and must agree on
    the architectural results (the host re-run's timing is not part of
    the PIM differential contract)."""
    index, keys, _truth = build_direct_index(space, num_keys=1500)
    column = materialized_probe_column(space, keys, count=PROBES)
    config = pim_config(walkers=1, mode="coupled")
    kill = (UnitFault(unit="walker0", cycle=500.0),)
    optimized = offload_probe(index, column, config=config, probes=PROBES,
                              faults=kill, fallback_to_host=True)
    reference = offload_probe(
        index, column, config=config, probes=PROBES, faults=kill,
        fallback_to_host=True,
        memory=use_reference_arrays(PimBankMemory(config)),
        engine=ReferenceEngine(),
        unit_cls=ReferencePimUnit)
    assert optimized.fell_back and reference.fell_back
    assert tuple(optimized.payloads) == tuple(reference.payloads)
    assert optimized.run.matches == reference.run.matches


# ---------------------------------------------------------------------------
# serve-level faults: seeded walker deaths are deterministic on PIM models
# ---------------------------------------------------------------------------

def test_pim_service_sweep_with_walker_faults_is_deterministic(space):
    """A fault-injected open-loop sweep over a PIM-calibrated service
    model is a pure function of the seed — two runs agree exactly."""
    index, keys, _truth = build_direct_index(space, num_keys=1500)
    column = materialized_probe_column(space, keys, count=64)
    measurements = [
        measure_service(index, column, backend="pim", batch_keys=batch * 8,
                        walkers=2, mode="shared")
        for batch in (1, 2)
    ]
    model = ServiceModel.from_measurements("pim-2", 8, measurements)
    fallback = model.scaled(4.0)

    def sweep():
        faults = WalkerFaultModel(seed=42, rate=16.0, walkers_per_core=2)
        resilience = ResilienceConfig(slo=20.0 * model.cycles_for(1),
                                      faults=faults, fallback=fallback)
        result = run_open_loop(model, rate=0.8 * model.saturation_rate(),
                               num_requests=128, policy=parse_policy("fifo"),
                               cores=2, seed=42, resilience=resilience)
        return (result.completed, result.expired, result.faults,
                result.goodput, result.p99)

    assert sweep() == sweep()
