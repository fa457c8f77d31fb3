"""The optimized hash-join kernel workload (Section 5, [Balkesen et al.]).

The paper configures the "no partitioning" kernel with up to two nodes per
bucket, 4 B keys and 4 B payloads, and probes with 128M uniformly
distributed keys against three index sizes:

=========  ============  ===================  ==========================
Size       Paper tuples  Scaled tuples here   Locality class preserved
=========  ============  ===================  ==========================
Small      4K (32 KB)    4K                   fits the LLC, mostly L1/LLC
Medium     512K (4 MB)   128K (~3 MB index)   LLC-resident
Large      128M (1 GB)   1M (~23 MB index)    DRAM-resident, TLB pressure
=========  ============  ===================  ==========================

Small is unscaled; Medium/Large keep the index:LLC and index:TLB-reach
ratios that produce the paper's Figure 8 behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from ..db.column import Column
from ..db.datagen import make_rng, probe_keys, unique_keys
from ..db.hashfn import kernel_hash
from ..db.hashtable import HashIndex, choose_num_buckets
from ..db.node import KERNEL_LAYOUT
from ..db.types import DataType
from ..errors import WorkloadError
from ..mem.layout import AddressSpace


@dataclass(frozen=True)
class KernelSpec:
    """One kernel configuration (Small / Medium / Large)."""

    name: str
    tuples: int
    paper_tuples: int
    nodes_per_bucket: float = 2.0
    key_bytes: int = 4
    hash_mask_bits: int = 24

    def __post_init__(self) -> None:
        if self.tuples < 1:
            raise WorkloadError("kernel needs at least one tuple")


KERNEL_SIZES: Dict[str, KernelSpec] = {
    "Small": KernelSpec("Small", tuples=4_096, paper_tuples=4_096),
    "Medium": KernelSpec("Medium", tuples=131_072, paper_tuples=524_288),
    "Large": KernelSpec("Large", tuples=1_048_576, paper_tuples=134_217_728),
}


def build_kernel_workload(size: str, probe_count: int, *,
                          seed: int = 42,
                          space: AddressSpace = None,
                          match_fraction: float = 1.0,
                          ) -> Tuple[HashIndex, Column]:
    """Build the kernel index and its uniformly distributed probe stream.

    Returns ``(index, probe_column)`` with the probe column materialized in
    the same simulated address space as the index.
    """
    try:
        spec = KERNEL_SIZES[size]
    except KeyError:
        raise WorkloadError(
            f"unknown kernel size {size!r}; choose from {sorted(KERNEL_SIZES)}"
        ) from None
    if space is None:
        space = AddressSpace()
    rng = make_rng(seed)
    keys = unique_keys(spec.tuples, spec.key_bytes, rng)
    index = HashIndex(
        space, KERNEL_LAYOUT,
        choose_num_buckets(spec.tuples, spec.nodes_per_bucket),
        kernel_hash(spec.hash_mask_bits),
        capacity=spec.tuples,
        name=f"kernel-{spec.name}")
    index.build(keys, np.arange(1, len(keys) + 1))  # 4 B payload per tuple
    probes = probe_keys(keys, probe_count, match_fraction,
                        spec.key_bytes, rng)
    column = Column("probe_keys", DataType.for_key_bytes(spec.key_bytes),
                    probes)
    column.materialize(space)
    return index, column
