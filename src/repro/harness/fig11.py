"""Figure 11 and Section 6.3: runtime, energy, energy-delay and area.

Measured DSS indexing runtimes (geomean over the simulated queries) for
the OoO baseline, the in-order core and Widx feed the §6.3 power model.

Paper anchors: in-order is ~2.2x slower than OoO but saves 86% energy;
Widx (3.1x faster) saves 83% while keeping OoO-class latency, improving
energy-delay by 5.5x over in-order and 17.5x over OoO.  Area: one Widx
unit is 0.039 mm² / 53 mW; the six-unit complex is 0.24 mm² / 320 mW —
18% of a Cortex-A8.
"""

from __future__ import annotations

from typing import Dict, List

from ..config import WidxConfig
from ..energy.metrics import energy_report
from ..energy.power import PowerModel
from ..workloads.queryspec import QuerySpec
from ..workloads.tpcds import TPCDS_SIMULATED
from ..workloads.tpch import TPCH_SIMULATED
from .campaign import MeasurementPoint, query_points
from .report import Report
from .runner import MeasurementCache, geomean, measure_query

SIMULATED: List[QuerySpec] = TPCH_SIMULATED + TPCDS_SIMULATED


def points_fig11(walkers: int = 4) -> List[MeasurementPoint]:
    """Measurement points Figure 11 needs (adds the in-order baseline)."""
    return query_points(SIMULATED, [walkers], include_inorder=True)


def measured_runtimes(cache: MeasurementCache, walkers: int = 4,
                      queries: List[QuerySpec] = None) -> Dict[str, float]:
    """Geomean indexing cycles/tuple per design over the DSS queries."""
    if queries is None:
        queries = SIMULATED
    ooo, inorder, widx = [], [], []
    for spec in queries:
        measurement = measure_query(cache, spec, [walkers],
                                    include_inorder=True)
        ooo.append(measurement.ooo.cycles_per_tuple)
        inorder.append(measurement.inorder.cycles_per_tuple)
        widx.append(measurement.widx[walkers].cycles_per_tuple)
    return {"ooo": geomean(ooo), "inorder": geomean(inorder),
            "widx": geomean(widx)}


def run_fig11(cache: MeasurementCache, walkers: int = 4,
              queries: List[QuerySpec] = None) -> Report:
    """Figure 11: runtime / energy / energy-delay, normalized to OoO."""
    runtimes = measured_runtimes(cache, walkers, queries)
    widx_config = WidxConfig(num_walkers=walkers)
    energy = energy_report(runtimes, widx=widx_config)
    report = Report(
        title="Figure 11: indexing runtime, energy and energy-delay "
              "(normalized to OoO; lower is better)",
        columns=["design", "runtime", "energy", "energy_delay"])
    for design in ("ooo", "inorder", "widx"):
        point = energy[design]
        report.add_row(design, point.runtime, point.energy, point.edp)
    report.add_note(
        f"Widx saves {energy.widx_energy_saving:.0%} energy vs OoO "
        f"(paper: 83%); in-order saves {energy.inorder_energy_saving:.0%} "
        f"(paper: 86%)")
    report.add_note(
        f"Widx energy-delay: {energy.widx_edp_gain_vs_ooo:.1f}x better than "
        f"OoO (paper: 17.5x), {energy.widx_edp_gain_vs_inorder:.1f}x better "
        f"than in-order (paper: 5.5x)")
    return report


def run_area(walkers: int = 4) -> Report:
    """Section 6.3's area/power table."""
    model = PowerModel()
    widx_config = WidxConfig(num_walkers=walkers)
    area = model.widx_area(widx_config)
    constants = model.constants
    report = Report(
        title="Section 6.3: area and peak power (TSMC 40 nm, 2 GHz)",
        columns=["component", "area_mm2", "power_w"])
    report.add_row("Widx unit (incl. 2-entry queues)",
                   constants.widx_unit_area_mm2, constants.widx_unit_power_w)
    report.add_row(f"Widx complex ({area.widx_units} units)",
                   area.widx_area_mm2, model.widx_power(widx_config))
    report.add_row("ARM Cortex-A8 (incl. L1)", constants.a8_area_mm2,
                   constants.a8_power_w)
    report.add_note(f"Widx complex is {area.fraction_of_a8:.0%} of a "
                    "Cortex-A8's area (paper: 18%)")
    return report
