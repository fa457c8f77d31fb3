"""Ablation benchmarks for the design choices DESIGN.md calls out.

These go beyond the paper's figures to probe *why* Widx is shaped the way
it is: the Figure 3 design progression measured end-to-end, queue-depth
sensitivity, walker scaling past the paper's four-walker cap, key-skew
sensitivity, and the hash-vs-sort-merge algorithm comparison the paper
cites.
"""

import numpy as np

from benchmarks.conftest import run_once
from repro.config import DEFAULT_CONFIG
from repro.db.column import Column
from repro.db.datagen import build_pair_tables, make_rng, zipf_keys
from repro.db.operators.sortmerge import sort_merge_cycles
from repro.db.types import DataType
from repro.harness.report import Report
from repro.mem.hierarchy import MemoryHierarchy
from repro.widx.offload import offload_probe


def design_progression_report(cache) -> Report:
    """Figure 3a-to-3d measured: each step of the paper's design evolution
    on the Medium kernel (1 -> N walkers -> decoupled -> shared)."""
    index, probes = cache.kernel_workload("Medium")
    report = Report("Ablation: the Figure 3 design progression "
                    "(Medium kernel, cycles per tuple)",
                    columns=["design", "figure", "walkers", "cycles_per_tuple"])
    points = [
        ("single coupled unit", "3a", "coupled", 1),
        ("parallel coupled walkers", "3b", "coupled", 4),
        ("private decoupled hashing", "3c", "private", 4),
        ("shared dispatcher (Widx)", "3d", "shared", 4),
    ]
    for name, figure, mode, walkers in points:
        config = DEFAULT_CONFIG.with_widx(mode=mode, num_walkers=walkers)
        outcome = offload_probe(index, probes, config=config,
                                probes=cache.runs.probes)
        report.add_row(name, figure, walkers, outcome.cycles_per_tuple)
    return report


def test_design_progression(benchmark, record, cache):
    report = run_once(benchmark, design_progression_report, cache)
    record(report, "ablation_design_progression")
    cycles = report.column("cycles_per_tuple")
    # Each design step helps: 3a > 3b > 3c; 3d stays within 15% of 3c
    # while using 3 fewer units.
    assert cycles[0] > 2.5 * cycles[1]       # parallel walkers
    assert cycles[1] > 1.1 * cycles[2]       # decoupled hashing (paper: ~29%
    #                                          per-traversal; end-to-end less)
    assert cycles[3] < 1.15 * cycles[2]      # shared dispatcher is ~free


def queue_depth_report(cache) -> Report:
    index, probes = cache.kernel_workload("Medium")
    report = Report("Ablation: dispatcher-walker queue depth (Medium kernel)",
                    columns=["queue_entries", "cycles_per_tuple"])
    for entries in (1, 2, 4, 8):
        config = DEFAULT_CONFIG.with_widx(num_walkers=4,
                                          queue_entries=entries)
        outcome = offload_probe(index, probes, config=config,
                                probes=cache.runs.probes)
        report.add_row(entries, outcome.cycles_per_tuple)
    return report


def test_queue_depth(benchmark, record, cache):
    report = run_once(benchmark, queue_depth_report, cache)
    record(report, "ablation_queue_depth")
    cycles = dict(zip(report.column("queue_entries"),
                      report.column("cycles_per_tuple")))
    # The paper's 2-entry queues capture nearly all the benefit: deeper
    # queues buy <10% more, single-entry costs measurably.
    assert cycles[1] >= cycles[2] * 0.99
    assert cycles[8] > 0.9 * cycles[2]


def walker_scaling_report(cache) -> Report:
    """Scaling past the paper's cap: the Section 3.2 MSHR/bandwidth wall."""
    index, probes = cache.kernel_workload("Large")
    report = Report("Ablation: walker scaling on the Large kernel",
                    columns=["walkers", "cycles_per_tuple", "speedup_vs_1"])
    base = None
    for walkers in (1, 2, 4, 8, 12, 16):
        config = DEFAULT_CONFIG.with_widx(num_walkers=walkers)
        outcome = offload_probe(index, probes, config=config,
                                probes=cache.runs.probes)
        if base is None:
            base = outcome.cycles_per_tuple
        report.add_row(walkers, outcome.cycles_per_tuple,
                       base / outcome.cycles_per_tuple)
    return report


def test_walker_scaling_wall(benchmark, record, cache):
    report = run_once(benchmark, walker_scaling_report, cache)
    record(report, "ablation_walker_scaling")
    speedups = dict(zip(report.column("walkers"),
                        report.column("speedup_vs_1")))
    # Near-linear to 4 walkers (the paper's design point, ~90%+ efficient).
    assert speedups[4] > 3.2
    # Past the L1's 10 MSHRs (each walker holds ~1, the dispatcher ~2),
    # scaling efficiency collapses — Section 3.2's Equation 3 wall.  One
    # walker's own miss always progresses, so 16 walkers still run, just
    # far below linear.
    efficiency_4 = speedups[4] / 4
    efficiency_16 = speedups[16] / 16
    assert efficiency_16 < 0.85 * efficiency_4


def skew_report(cache) -> Report:
    """Zipf-skewed probe streams: hot chains concentrate walker work."""
    index, _ = cache.kernel_workload("Medium")
    report = Report("Ablation: probe-key skew (Medium kernel, 4 walkers)",
                    columns=["zipf_skew", "cycles_per_tuple", "l1_miss"])
    space = index.space
    rng = make_rng(99)
    build_keys = None
    for skew in (0.0, 0.6, 1.2):
        # Draw probes from the built keys with a zipf rank distribution.
        ranks = zipf_keys(cache.runs.probes, index.num_keys, skew, rng)
        if build_keys is None:
            build_keys = _collect_keys(index)
        values = build_keys[(ranks - 1) % len(build_keys)]
        column = Column(f"skew{skew}", DataType.U32, values)
        column.materialize(space, f"skew:{skew}")
        memory = MemoryHierarchy(DEFAULT_CONFIG)
        outcome = offload_probe(index, column, config=DEFAULT_CONFIG,
                                memory=memory)
        report.add_row(skew, outcome.cycles_per_tuple,
                       memory.stats.l1d.miss_ratio)
    return report


def _collect_keys(index):
    keys = []
    for bucket in range(index.num_buckets):
        for node in _bucket_nodes(index, bucket):
            keys.append(index.node_key(node))
    return np.asarray(keys, dtype=np.uint32)


def _bucket_nodes(index, bucket):
    from repro.mem.physmem import NULL_PTR
    header = index.bucket_addr(bucket)
    if index._header_empty(header):
        return
    node = header
    while node != NULL_PTR:
        yield node
        node = index.node_next(node)


def test_skew_sensitivity(benchmark, record, cache):
    report = run_once(benchmark, skew_report, cache)
    record(report, "ablation_skew")
    cycles = dict(zip(report.column("zipf_skew"),
                      report.column("cycles_per_tuple")))
    misses = dict(zip(report.column("zipf_skew"), report.column("l1_miss")))
    # Skewed probes concentrate on hot blocks: locality improves, so Widx
    # gets *faster* (its walkers need no data locality, but benefit).
    assert cycles[1.2] < cycles[0.0]
    assert misses[1.2] < misses[0.0]


def hash_vs_sortmerge_report(cache) -> Report:
    """The algorithm comparison the paper cites [Kim et al., Balkesen et
    al.]: hash join vs sort-merge join, on the baseline cost models."""
    report = Report("Ablation: hash join vs sort-merge join (cycles, "
                    "first-order baseline models)",
                    columns=["build_rows", "probe_rows", "hash_cycles",
                             "sortmerge_cycles", "hash_wins"])
    from repro.db.executor import analytic_probe_cycles
    from repro.db.cost import DEFAULT_COST_MODEL
    from repro.mem.layout import AddressSpace
    from repro.db.build import build_index
    for build_rows, probe_rows in ((2_000, 50_000), (20_000, 200_000),
                                   (100_000, 500_000)):
        build, probe = build_pair_tables(build_rows, 16, seed=31)
        space = AddressSpace()
        index = build_index(space, build, "age")
        probe_column = Column("p", DataType.U32, [1])
        per_probe = analytic_probe_cycles(index, probe_column)
        hash_cycles = (DEFAULT_COST_MODEL.build_cycles(build_rows)
                       + per_probe * probe_rows)
        smj_cycles = sort_merge_cycles(build_rows, probe_rows)
        report.add_row(build_rows, probe_rows, hash_cycles, smj_cycles,
                       hash_cycles < smj_cycles)
    return report


def test_hash_beats_sortmerge(benchmark, record, cache):
    report = run_once(benchmark, hash_vs_sortmerge_report, cache)
    record(report, "ablation_hash_vs_sortmerge")
    # Paper (citing Balkesen et al.): hash join clearly outperforms
    # sort-merge join on these scales.
    assert all(report.column("hash_wins"))
