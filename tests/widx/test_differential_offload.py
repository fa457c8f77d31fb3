"""Full-stack differential test: optimized vs all-naive-reference offload.

Runs complete Widx bulk probes twice — once on the optimized stack
(pooled/batching engine, flat tick-LRU caches, memoized-decode
interpreter) and once with every overhauled layer swapped for its
deliberately naive reference twin via ``offload_probe``'s injection
points — and asserts the *entire* simulated outcome is bit-identical:
total cycles, emitted payloads, per-unit instruction/invocation/cycle
accounting, and every memory-system counter in the stats snapshot.
This is the end-to-end guarantee behind the performance overhaul: every
optimization is purely mechanical, with zero modelled-behaviour drift.
"""

from __future__ import annotations

import pytest

from repro.config import DEFAULT_CONFIG
from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.reference import use_reference_arrays
from repro.sim.reference import ReferenceEngine
from repro.widx.offload import offload_probe
from repro.widx.reference import ReferenceWidxUnit
from tests.conftest import build_direct_index, materialized_probe_column


def outcome_key(outcome):
    """Every externally observable artifact of one offload run."""
    run = outcome.run
    units = tuple(
        (name, stats.invocations.value, stats.instructions.value,
         stats.loads.value, stats.stores.value, stats.emitted.value,
         stats.cycles.comp, stats.cycles.mem, stats.cycles.tlb,
         stats.cycles.queue)
        for name, stats in sorted(run.unit_stats.items()))
    memory = {path: value for path, value in outcome.stats.items()
              if path.startswith("mem.")}
    return (run.total_cycles, run.matches, tuple(outcome.payloads),
            outcome.validated, units, memory)


def run_pair(space, *, walkers, mode="shared", probes=200, num_keys=1500,
             match_fraction=1.0, warm=True):
    index, keys, _truth = build_direct_index(space, num_keys=num_keys)
    column = materialized_probe_column(space, keys, count=probes,
                                       match_fraction=match_fraction)
    config = DEFAULT_CONFIG.with_widx(mode=mode, num_walkers=walkers)
    optimized = offload_probe(index, column, config=config, probes=probes,
                              warm=warm)
    reference = offload_probe(
        index, column, config=config, probes=probes, warm=warm,
        memory=use_reference_arrays(MemoryHierarchy(config)),
        engine=ReferenceEngine(),
        unit_cls=ReferenceWidxUnit)
    return outcome_key(optimized), outcome_key(reference)


@pytest.mark.parametrize("walkers", [1, 2, 4])
def test_full_offload_identical_across_walker_counts(space, walkers):
    optimized, reference = run_pair(space, walkers=walkers)
    assert optimized == reference


@pytest.mark.parametrize("mode", ["shared", "private", "coupled"])
def test_full_offload_identical_across_organizations(space, mode):
    optimized, reference = run_pair(space, walkers=2, mode=mode)
    assert optimized == reference


def test_full_offload_identical_with_misses_and_cold_caches(space):
    """No warm-up and 60% matching probes: the miss/evict paths differ
    most between the stacks, and must still agree exactly."""
    optimized, reference = run_pair(space, walkers=2, warm=False,
                                    match_fraction=0.6)
    assert optimized == reference
