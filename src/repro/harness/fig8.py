"""Figure 8: Widx on the optimized hash-join kernel.

* **8a** — walker cycles per tuple, broken into Comp / Mem / TLB / Idle,
  for Small/Medium/Large indexes with 1/2/4 walkers, normalized to Small
  on one walker.  Paper shape: memory dominates and grows with index
  size; walkers cut memory time near-linearly; Small at 4 walkers shows
  Idle (the dispatcher cannot keep up with LLC-speed walkers); TLB cycles
  appear only for Large.
* **8b** — indexing speedup over the OoO baseline.  Paper shape: one
  walker is roughly baseline speed (+4% geomean — the kernel's
  oversimplified hash leaves decoupling little to overlap); speedup grows
  with walkers, reaching ~4x on Large.
"""

from __future__ import annotations

from typing import Iterable

from .campaign import MeasurementPoint, kernel_points, pim_point
from .report import Report
from .runner import MeasurementCache, geomean, measure_kernel

KERNEL_ORDER = ("Small", "Medium", "Large")

#: The PIM column added by ``--pim``: bank-side walkers at the paper's
#: best walker count, on the default bank geometry.
PIM_WALKERS = 4
PIM_BANKS = 8


def points_fig8(sizes: Iterable[str] = KERNEL_ORDER,
                walker_counts: Iterable[int] = (1, 2, 4),
                include_pim: bool = False) -> "list[MeasurementPoint]":
    """Measurement points Figures 8a/8b need (identical for both).

    ``include_pim`` adds one bank-side offload per size for the
    cross-backend speedup column (``--pim``).
    """
    points = kernel_points(sizes, walker_counts)
    if include_pim:
        for size in sizes:
            points.append(pim_point("kernel", size, PIM_WALKERS, PIM_BANKS))
    return points


def run_fig8a(cache: MeasurementCache,
              sizes: Iterable[str] = KERNEL_ORDER,
              walker_counts: Iterable[int] = (1, 2, 4)) -> Report:
    """Figure 8a: kernel walker cycle breakdown (Comp/Mem/TLB/Idle)."""
    report = Report(
        title="Figure 8a: Widx walker cycles per tuple on the hash-join "
              "kernel (normalized to Small @ 1 walker)",
        columns=["size", "walkers", "comp", "mem", "tlb", "idle", "total"])
    walker_counts = list(walker_counts)
    sizes = list(sizes)
    baseline_total = None
    for size in sizes:
        measurement = measure_kernel(cache, size, walker_counts)
        for walkers in walker_counts:
            breakdown = measurement.walker_breakdown(walkers)
            idle = breakdown.idle + breakdown.queue  # paper folds queue stalls
            total = breakdown.comp + breakdown.mem + breakdown.tlb + idle
            if baseline_total is None:
                baseline_total = total  # Small @ 1 walker comes first
            scale = 1.0 / baseline_total
            report.add_row(size, walkers,
                           breakdown.comp * scale, breakdown.mem * scale,
                           breakdown.tlb * scale, idle * scale,
                           total * scale)
    report.add_note("paper: Mem dominates and scales ~linearly down with "
                    "walkers; Small@4 shows Idle (dispatcher-bound)")
    return report


def run_fig8b(cache: MeasurementCache,
              sizes: Iterable[str] = KERNEL_ORDER,
              walker_counts: Iterable[int] = (1, 2, 4),
              include_pim: bool = False) -> Report:
    """Figure 8b: kernel indexing speedup over the OoO baseline.

    ``include_pim`` appends a bank-side walker column (the cross-backend
    comparison the 2013 paper couldn't run); PIM speedups charge the
    amortized host↔PIM launch alongside the traversal cycles.  Default
    off, leaving the report byte-identical to the committed golden.
    """
    walker_counts = list(walker_counts)
    columns = ["size", "ooo"] + [f"{n}_walkers" for n in walker_counts]
    if include_pim:
        columns.append(f"pim_{PIM_WALKERS}w")
    report = Report(
        title="Figure 8b: kernel indexing speedup over the OoO baseline",
        columns=columns)
    speedups_by_walkers = {n: [] for n in walker_counts}
    pim_speedups = []
    for size in sizes:
        measurement = measure_kernel(cache, size, walker_counts)
        row = [size, 1.0]
        for walkers in walker_counts:
            speedup = measurement.speedup(walkers)
            speedups_by_walkers[walkers].append(speedup)
            row.append(speedup)
        if include_pim:
            outcome = cache.measure(
                pim_point("kernel", size, PIM_WALKERS, PIM_BANKS))
            run = outcome.run
            pim_cpt = (run.total_cycles + run.config_cycles) / run.tuples
            speedup = measurement.ooo.cycles_per_tuple / pim_cpt
            pim_speedups.append(speedup)
            row.append(speedup)
        report.add_row(*row)
    for walkers in walker_counts:
        report.add_note(
            f"{walkers} walker(s): geomean speedup "
            f"{geomean(speedups_by_walkers[walkers]):.2f}x "
            + ("(paper: ~1.04x)" if walkers == 1 else
               "(paper: up to 4x on Large)" if walkers == 4 else ""))
    if include_pim:
        report.add_note(
            f"pim: {PIM_WALKERS} bank-side walkers over {PIM_BANKS} banks, "
            f"geomean speedup {geomean(pim_speedups):.2f}x (launch latency "
            f"amortized over the bulk probe)")
    return report
