"""Figure 11: indexing runtime, energy and energy-delay, normalized to OoO."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..config import WidxConfig
from .power import PowerModel


@dataclass(frozen=True)
class DesignPoint:
    """One bar group of Figure 11."""

    design: str
    runtime: float   # normalized to OoO = 1.0
    energy: float    # normalized
    edp: float       # normalized energy-delay product


@dataclass
class EnergyReport:
    """All three designs, normalized to the OoO baseline."""

    points: Dict[str, DesignPoint]

    def __getitem__(self, design: str) -> DesignPoint:
        return self.points[design]

    @property
    def widx_energy_saving(self) -> float:
        """Fractional energy reduction of Widx vs OoO (paper: 0.83)."""
        return 1.0 - self.points["widx"].energy

    @property
    def inorder_energy_saving(self) -> float:
        """Fractional energy reduction of in-order vs OoO (paper: 0.86)."""
        return 1.0 - self.points["inorder"].energy

    @property
    def widx_edp_gain_vs_ooo(self) -> float:
        """EDP improvement over OoO (paper: 17.5x)."""
        return 1.0 / self.points["widx"].edp

    @property
    def widx_edp_gain_vs_inorder(self) -> float:
        """EDP improvement over in-order (paper: 5.5x)."""
        return self.points["inorder"].edp / self.points["widx"].edp


def energy_report(runtime_cycles: Dict[str, float],
                  widx: WidxConfig = WidxConfig(),
                  model: PowerModel = PowerModel()) -> EnergyReport:
    """Build Figure 11 from measured indexing runtimes.

    ``runtime_cycles`` maps design name ('ooo', 'inorder', 'widx') to the
    measured indexing runtime in cycles (any consistent unit works — only
    ratios matter).
    """
    for required in ("ooo", "inorder", "widx"):
        if required not in runtime_cycles:
            raise ValueError(f"missing measured runtime for {required!r}")
    base_runtime = runtime_cycles["ooo"]
    base_energy = model.energy("ooo", base_runtime)
    points = {}
    for design, cycles in runtime_cycles.items():
        runtime = cycles / base_runtime
        energy = model.energy(design, cycles, widx=widx) / base_energy
        points[design] = DesignPoint(design=design, runtime=runtime,
                                     energy=energy, edp=runtime * energy)
    return EnergyReport(points)
