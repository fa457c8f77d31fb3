"""Equations 1-6 and the Figure 4/5 series generators.

Equation numbering follows Section 3.2 of the paper:

1. ``Cycles = AMAT * MemOps + CompCycles`` per operation (hash one key or
   walk one node), computed separately for H and W;
2. ``MemOps/cycle = [(MemOps/Cycles)_H + (MemOps/Cycles)_W] * N <= L1 ports``;
3. ``L1Misses = max(MLP_H + MLP_W) * N <= MSHRs``;
4. ``OffChipDemands = L1MR * LLCMR * MemOps`` per operation;
5. ``WalkersPerMC <= BW_MC / [(OffChipDemands/Cycles)_H + (OffChipDemands/Cycles)_W]``;
6. ``WalkerUtilization = (Cycles_node * Nodes/bucket) / (Cycles_hash * N)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .params import ModelParams

MissSeries = List[Tuple[float, float]]  # (llc miss ratio, value)


@dataclass(frozen=True)
class AnalyticalModel:
    """The Section 3.2 model, evaluated for one machine parameterization."""

    params: ModelParams = ModelParams()

    # --- Equation 1 ----------------------------------------------------

    def hash_cycles(self) -> float:
        """Cycles to hash one key on a decoupled hashing unit."""
        p = self.params
        return p.hash_amat() * p.hash_mem_ops + p.hash_comp_cycles

    def walk_cycles(self, llc_miss_ratio: float) -> float:
        """Cycles to walk one node; the second slot load hits the L1
        (both slots share the node's cache block)."""
        p = self.params
        long_access = p.walk_amat(llc_miss_ratio)
        extra_l1 = (p.walk_mem_ops - p.walk_blocks_per_node) * p.l1_latency
        return long_access + extra_l1 + p.walk_comp_cycles

    # --- Equation 2: L1-D bandwidth -------------------------------------

    def mem_ops_per_cycle(self, llc_miss_ratio: float, walkers: int) -> float:
        """Aggregate L1 accesses per cycle for N walkers + hashing units."""
        p = self.params
        hash_rate = p.hash_mem_ops / self.hash_cycles()
        walk_rate = p.walk_mem_ops / self.walk_cycles(llc_miss_ratio)
        return (hash_rate + walk_rate) * walkers

    def l1_bandwidth_ok(self, llc_miss_ratio: float, walkers: int) -> bool:
        """Equation 2 check: demand fits the L1's ports."""
        return (self.mem_ops_per_cycle(llc_miss_ratio, walkers)
                <= self.params.l1_ports)

    # --- Equation 3: MSHRs ----------------------------------------------

    def outstanding_misses(self, walkers: int) -> float:
        """Peak concurrent L1 misses for N walker+hasher pairs."""
        p = self.params
        return (p.hash_mlp + p.walk_mlp) * walkers

    def mshrs_ok(self, walkers: int) -> bool:
        """Equation 3 check: outstanding misses fit the MSHRs."""
        return self.outstanding_misses(walkers) <= self.params.mshrs

    # --- Equations 4-5: off-chip bandwidth ------------------------------

    def offchip_demand_hash(self) -> float:
        """Blocks demanded from memory per key hashed (Equation 4).

        L1MR = 1/8 (eight keys per block), LLCMR = 1 (first touch misses
        everywhere, per the paper's model).
        """
        p = self.params
        return (1.0 / p.keys_per_block) * 1.0 * p.hash_mem_ops

    def offchip_demand_walk(self, llc_miss_ratio: float) -> float:
        """Blocks demanded per node walked: L1MR = 1, one block per node."""
        return llc_miss_ratio * self.params.walk_blocks_per_node

    def walkers_per_mc(self, llc_miss_ratio: float) -> float:
        """Equation 5: walkers one memory controller can sustain."""
        p = self.params
        demand_rate = (self.offchip_demand_hash() / self.hash_cycles()
                       + self.offchip_demand_walk(llc_miss_ratio)
                       / self.walk_cycles(llc_miss_ratio))
        if demand_rate == 0:
            return float("inf")
        return p.mc_blocks_per_cycle / demand_rate

    # --- Equation 6: dispatcher balance ----------------------------------

    def walker_utilization(self, llc_miss_ratio: float, walkers: int,
                           nodes_per_bucket: float) -> float:
        """Fraction of time a walker is busy given one shared dispatcher."""
        busy = self.walk_cycles(llc_miss_ratio) * nodes_per_bucket
        supply = self.hash_cycles() * walkers
        return min(1.0, busy / supply)


def _miss_ratios(steps: int = 11) -> List[float]:
    return [round(i / (steps - 1), 3) for i in range(steps)]


def fig4a_series(model: AnalyticalModel = AnalyticalModel(),
                 walker_counts: Sequence[int] = (1, 2, 4, 8, 10),
                 ) -> Dict[int, MissSeries]:
    """Figure 4a: memory ops per cycle vs LLC miss ratio, per walker count."""
    return {
        n: [(m, model.mem_ops_per_cycle(m, n)) for m in _miss_ratios()]
        for n in walker_counts
    }


def fig4b_series(model: AnalyticalModel = AnalyticalModel(),
                 max_walkers: int = 10) -> List[Tuple[int, float]]:
    """Figure 4b: outstanding L1 misses vs number of walkers."""
    return [(n, model.outstanding_misses(n))
            for n in range(1, max_walkers + 1)]


def fig4c_series(model: AnalyticalModel = AnalyticalModel()) -> MissSeries:
    """Figure 4c: walkers per memory controller vs LLC miss ratio."""
    return [(m, model.walkers_per_mc(m)) for m in _miss_ratios()[1:]]


def fig5_series(model: AnalyticalModel = AnalyticalModel(),
                walker_counts: Sequence[int] = (2, 4, 8),
                nodes_per_bucket: Sequence[int] = (1, 2, 3),
                ) -> Dict[int, Dict[int, MissSeries]]:
    """Figures 5a-5c: walker utilization vs LLC miss ratio.

    Returns ``{nodes_per_bucket: {walkers: [(miss, util), ...]}}``.
    """
    return {
        b: {
            n: [(m, model.walker_utilization(m, n, b))
                for m in _miss_ratios()]
            for n in walker_counts
        }
        for b in nodes_per_bucket
    }


def max_walkers_by_mshrs(model: AnalyticalModel = AnalyticalModel()) -> int:
    """The paper's headline constraint: ~4 walkers fit the MSHR budget."""
    n = 1
    while model.mshrs_ok(n + 1):
        n += 1
        if n >= 64:
            break
    return n
