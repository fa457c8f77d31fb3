"""DSS query specifications.

We cannot run MonetDB on a 100 GB TPC dataset, so each evaluated query is
described by a :class:`QuerySpec` capturing exactly the characteristics the
paper shows drive its results:

* the hash index's cardinality and **locality class** (L1-resident /
  LLC-resident / DRAM-resident — Section 6.2 explains every per-query
  effect through this), scaled per DESIGN.md;
* key width and hash robustness (TPC-H q20's 8-byte "double integers"
  need computationally intensive hashing);
* MonetDB's indirect (row-id) node layout;
* the query's Figure 2a operator-time fractions, calibrated to the
  paper's profiling (VTune wall-clock shares, not simulation).

``build_query_index`` materializes the *real* scaled index + probe stream
for the detailed Figure 9/10 simulations; ``derive_volumes`` inverts the
operator cost models so the Figure 2a reconstruction is consistent with
the executor's costing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..db.column import Column
from ..db.cost import CostModel, DEFAULT_COST_MODEL
from ..db.datagen import make_rng, probe_keys, unique_keys
from ..db.hashfn import HashSpec, ROBUST_HASH_32, ROBUST_HASH_64
from ..db.hashtable import HashIndex, choose_num_buckets
from ..db.node import monetdb_layout
from ..db.types import DataType
from ..errors import WorkloadError
from ..mem.layout import AddressSpace


class IndexClass(enum.Enum):
    """Locality class of a query's hash index (the paper's explanatory
    variable for every per-query result)."""

    L1 = "l1"       # fits the 32 KB L1-D ("handful of unique entries")
    LLC = "llc"     # fits the 4 MB LLC ("relatively small index")
    DRAM = "dram"   # exceeds the LLC ("memory-intensive")

    @property
    def baseline_probe_cycles(self) -> float:
        """First-order OoO cycles/probe used by the Fig. 2a reconstruction."""
        return {"l1": 35.0, "llc": 70.0, "dram": 170.0}[self.value]


@dataclass(frozen=True)
class QuerySpec:
    """One evaluated DSS query."""

    benchmark: str          # 'tpch' | 'tpcds'
    number: int
    index_keys: int         # scaled build-side cardinality
    index_class: IndexClass
    fractions: Tuple[float, float, float, float]  # index, scan, sortjoin, other
    key_bytes: int = 4
    nodes_per_bucket: float = 1.0
    match_fraction: float = 0.9
    probe_rows: int = 200_000   # full-query probe volume (Fig. 2a scale)
    simulated: bool = False     # in the Figure 9/10 detailed subset

    def __post_init__(self) -> None:
        if self.benchmark not in ("tpch", "tpcds"):
            raise WorkloadError(f"unknown benchmark {self.benchmark!r}")
        if abs(sum(self.fractions) - 1.0) > 1e-6:
            raise WorkloadError(
                f"{self.label}: operator fractions must sum to 1, got "
                f"{self.fractions}")
        if self.key_bytes not in (4, 8):
            raise WorkloadError("keys must be 4 or 8 bytes")

    @property
    def label(self) -> str:
        return f"qry{self.number}"

    @property
    def index_fraction(self) -> float:
        return self.fractions[0]

    @property
    def hash_spec(self) -> HashSpec:
        return ROBUST_HASH_64 if self.key_bytes == 8 else ROBUST_HASH_32

    def describe(self) -> str:
        """One-line human-readable summary of the spec."""
        return (f"{self.benchmark.upper()} {self.label}: "
                f"{self.index_keys} keys, {self.index_class.value} index, "
                f"{self.key_bytes}B keys, index share "
                f"{self.index_fraction:.0%}")


def build_query_index(spec: QuerySpec, *,
                      space: Optional[AddressSpace] = None,
                      probe_count: int = 4_000,
                      seed: int = 7) -> Tuple[HashIndex, Column]:
    """Materialize the query's scaled index (MonetDB indirect layout) and a
    probe-key stream; returns ``(index, probe_column)``."""
    if space is None:
        space = AddressSpace()
    rng = make_rng(seed + spec.number)
    keys = unique_keys(spec.index_keys, spec.key_bytes, rng)
    base = Column(f"{spec.label}-keys", DataType.for_key_bytes(spec.key_bytes),
                  keys)
    base.materialize(space, f"{spec.label}:basecol")
    layout = monetdb_layout(spec.key_bytes)
    index = HashIndex(
        space, layout,
        choose_num_buckets(spec.index_keys, spec.nodes_per_bucket),
        spec.hash_spec, capacity=spec.index_keys,
        name=f"{spec.benchmark}-{spec.label}", key_column=base)
    index.build(keys, np.arange(len(keys)))
    probes = probe_keys(keys, probe_count, spec.match_fraction,
                        spec.key_bytes, rng)
    column = Column(f"{spec.label}-probes",
                    DataType.for_key_bytes(spec.key_bytes), probes)
    column.materialize(space)
    return index, column


@dataclass(frozen=True)
class QueryVolumes:
    """Operator volumes consistent with a spec's Figure 2a fractions."""

    probe_rows: int
    scan_rows: int
    build_rows: int
    sort_rows: int
    other_cycles: float
    total_cycles: float

    def breakdown(self, cost: CostModel = DEFAULT_COST_MODEL,
                  probe_cycles_per_tuple: float = 0.0) -> Dict[str, float]:
        """Forward-compute the category cycles from these volumes."""
        index = self.probe_rows * probe_cycles_per_tuple
        scan = cost.scan_cycles(self.scan_rows, 8)
        sortjoin = (cost.build_cycles(self.build_rows)
                    + cost.sort_cycles(self.sort_rows))
        return {"index": index, "scan": scan, "sortjoin": sortjoin,
                "other": self.other_cycles}


def derive_volumes(spec: QuerySpec,
                   cost: CostModel = DEFAULT_COST_MODEL) -> QueryVolumes:
    """Invert the operator cost models against the spec's fractions.

    The returned volumes, pushed back through the same cost models, yield
    the spec's Figure 2a breakdown (asserted by the calibration tests).
    """
    f_index, f_scan, f_sortjoin, f_other = spec.fractions
    probe_cost = spec.index_class.baseline_probe_cycles
    index_cycles = spec.probe_rows * probe_cost
    total = index_cycles / f_index

    # Scan: invert cost.scan_cycles(rows, 8B/row) — compute-bound regime.
    scan_target = total * f_scan
    per_row = 8.0 / cost.bytes_per_cycle
    compute = cost.predicate_cycles_per_row
    effective = max(per_row, compute) + min(per_row, compute) * 0.25
    scan_rows = max(0, round(scan_target / effective))

    # Sort & join: the index build accounts for part; sorting the rest.
    sortjoin_target = total * f_sortjoin
    build_rows = spec.index_keys
    build_cycles = cost.build_cycles(build_rows)
    sort_target = max(0.0, sortjoin_target - build_cycles)
    sort_rows = _invert_nlogn(sort_target, cost.sort_cycles_per_cmp)

    other_cycles = total * f_other
    return QueryVolumes(
        probe_rows=spec.probe_rows,
        scan_rows=scan_rows,
        build_rows=build_rows,
        sort_rows=sort_rows,
        other_cycles=other_cycles,
        total_cycles=total,
    )


def _invert_nlogn(target_cycles: float, cycles_per_cmp: float) -> int:
    """Largest n with n*log2(n)*c <= target (monotonic bisection)."""
    if target_cycles <= 0:
        return 0
    low, high = 1, 1
    while high * max(1, high.bit_length() - 1) * cycles_per_cmp < target_cycles:
        high *= 2
        if high > 1 << 40:
            break
    while low < high:
        mid = (low + high + 1) // 2
        if mid * max(1, mid.bit_length() - 1) * cycles_per_cmp <= target_cycles:
            low = mid
        else:
            high = mid - 1
    return low
