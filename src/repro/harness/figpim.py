"""The PIM figure: bank-parallelism sweep for near-memory walkers.

Not a figure from the paper — the paper's walkers live beside a host
core — but the question its placement study (Section 7) leads to once
HashMem-style near-memory hardware is on the table: if the walkers move
*into* the DRAM banks, how much bank parallelism do they need before
bank conflicts stop throttling the traversal, and where does the result
land against the host-side backends?

Method (see EXPERIMENTS.md): one bulk offload of the DRAM-resident
``Large`` kernel per bank count, on bank-side walkers
(:mod:`repro.pim`), next to the OoO baseline and the core-coupled Widx
run at the same walker count.  PIM cycles per tuple charge the amortized
host↔PIM launch (``config_cycles``) alongside the traversal, so the
speedup column is an end-to-end comparison.  Every point flows through
the measurement campaign and cache like any other figure's, so serial,
``--jobs N`` and cache-hit runs render bit-identical reports.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from .campaign import (MeasurementPoint, baseline_point, pim_point,
                       widx_point)
from .report import Report
from .runner import MeasurementCache

#: The swept workload: the DRAM-resident kernel, where node hops actually
#: reach the banks (Small/Medium mostly hit the host LLC, which bank-side
#: walkers do not have).
PIM_KIND = "kernel"
PIM_NAME = "Large"

#: Walker count, fixed at the paper's best host-side configuration so the
#: sweep isolates bank parallelism.
PIM_WALKERS = 4

#: DRAM bank counts swept (the walkers interleave blocks across banks).
BANK_SWEEP: Tuple[int, ...] = (1, 2, 4, 8)


def points_fig_pim() -> List[MeasurementPoint]:
    """Measurement points the PIM figure needs.

    The baseline and Widx rows share cache keys with the Figure 8
    campaign, so a warm fig8 cache only simulates the PIM sweep.
    """
    points = [baseline_point(PIM_KIND, PIM_NAME, "ooo"),
              widx_point(PIM_KIND, PIM_NAME, PIM_WALKERS)]
    for banks in BANK_SWEEP:
        points.append(pim_point(PIM_KIND, PIM_NAME, PIM_WALKERS, banks))
    return points


def run_fig_pim(cache: MeasurementCache,
                bank_sweep: Iterable[int] = BANK_SWEEP) -> Report:
    """The PIM figure: cycles/tuple and speedup across bank counts."""
    bank_sweep = list(bank_sweep)
    ooo = cache.measure(baseline_point(PIM_KIND, PIM_NAME, "ooo"))
    widx = cache.measure(widx_point(PIM_KIND, PIM_NAME, PIM_WALKERS))
    pim = cache.config.pim
    report = Report(
        title=f"PIM: bank-parallelism sweep on the {PIM_NAME} kernel "
              f"({PIM_WALKERS} bank-side walkers, "
              f"{pim.walkers_per_bank} access slots/bank, "
              f"launch={pim.launch_cycles:g} cycles)",
        columns=["backend", "banks", "cycles_per_tuple", "speedup_vs_ooo"])
    report.add_row("ooo", "-", ooo.cycles_per_tuple, 1.0)
    report.add_row(f"widx-{PIM_WALKERS}", "-", widx.run.cycles_per_tuple,
                   ooo.cycles_per_tuple / widx.run.cycles_per_tuple)
    speedups = []
    for banks in bank_sweep:
        run = cache.measure(
            pim_point(PIM_KIND, PIM_NAME, PIM_WALKERS, banks)).run
        cpt = (run.total_cycles + run.config_cycles) / run.tuples
        speedup = ooo.cycles_per_tuple / cpt
        speedups.append((banks, speedup))
        report.add_row(f"pim-{PIM_WALKERS}", banks, cpt, speedup)
    report.add_note(
        "pim cycles/tuple include the amortized host-to-PIM launch; "
        "widx excludes configuration (amortized separately, as in fig8)")
    first_banks, first = speedups[0]
    last_banks, last = speedups[-1]
    report.add_note(
        f"bank scaling: {first:.2f}x at {first_banks} bank(s) -> "
        f"{last:.2f}x at {last_banks} banks"
        + ("" if last >= first else " (UNEXPECTED: not monotone)"))
    return report
