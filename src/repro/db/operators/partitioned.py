"""Hardware-conscious partitioned hash join (Section 7's discussion).

The paper contrasts its hardware-oblivious "no partitioning" join with
hardware-conscious designs [Manegold et al.] that radix-partition both
relations first so each partition's hash table is cache-resident, and
argues Widx "is equally applicable to hash join algorithms that employ
data partitioning" — the walkers do not care whether the index they
traverse fits a cache.

This module implements that algorithm: radix-split both inputs on the low
key bits, build one compact hash index per partition, probe partition by
partition.  A first-order cost model charges the partitioning passes
(histogram + scatter at streaming bandwidth), which is the overhead the
paper's cited partitioning accelerators [Wu et al.] attack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ...errors import PlanError
from ...mem.layout import AddressSpace
from ..column import Column
from ..cost import CostModel, DEFAULT_COST_MODEL
from ..hashfn import HashSpec
from ..build import default_hash_for
from ..hashtable import HashIndex, choose_num_buckets
from ..node import direct_layout
from ..table import Table

#: Cycles per row per partitioning pass (histogram, then scatter) beyond
#: the bandwidth term — index arithmetic and the scatter store.
PARTITION_PASS_COMPUTE = 3.0


@dataclass
class Partition:
    """One radix partition: its index plus its probe stream."""

    number: int
    index: HashIndex
    probe_keys: Column
    probe_rows: np.ndarray      # original row ids of the probe stream
    build_rows: int


@dataclass
class PartitionedJoinResult:
    """Outcome of a partitioned hash join."""

    partitions: List[Partition]
    pairs: List[Tuple[int, int]]        # (probe row, payload), sorted
    partition_cycles: float             # modelled partitioning overhead
    partition_bits: int
    skipped_empty: int = 0

    @property
    def matches(self) -> int:
        return len(self.pairs)

    @property
    def num_partitions(self) -> int:
        return 1 << self.partition_bits

    def max_partition_footprint(self) -> int:
        """Largest per-partition index footprint in bytes."""
        return max((p.index.footprint_bytes for p in self.partitions),
                   default=0)


def partitioning_cycles(rows: int, bytes_per_row: int,
                        cost: CostModel = DEFAULT_COST_MODEL) -> float:
    """Two passes over the data: build the histogram, then scatter."""
    stream = 2.0 * rows * bytes_per_row / cost.bytes_per_cycle
    compute = 2.0 * rows * PARTITION_PASS_COMPUTE
    return stream + compute


def partitioned_hash_join(space: AddressSpace, build: Table, probe: Table,
                          build_key: str, probe_key: str, *,
                          partition_bits: int,
                          payload_column: Optional[str] = None,
                          hash_spec: Optional[HashSpec] = None,
                          target_nodes_per_bucket: float = 1.0,
                          cost: CostModel = DEFAULT_COST_MODEL,
                          ) -> PartitionedJoinResult:
    """Radix-partition both inputs, then hash-join partition by partition.

    Partitioning uses the low ``partition_bits`` of the key, so matching
    keys always co-locate.  Returns every (probe row, payload) pair plus
    the modelled partitioning cost.
    """
    if not 1 <= partition_bits <= 16:
        raise PlanError("partition bits must be in [1, 16]")
    num_partitions = 1 << partition_bits
    mask = num_partitions - 1

    build_keys = build.column(build_key).values
    probe_keys_all = probe.column(probe_key).values
    key_bytes = build.column(build_key).dtype.nbytes
    if hash_spec is None:
        hash_spec = default_hash_for(key_bytes)
    payloads = (build.column(payload_column).values if payload_column
                else np.arange(build.num_rows, dtype=np.uint64))

    build_partition = (build_keys & mask).astype(np.int64)
    probe_partition = (probe_keys_all & mask).astype(np.int64)

    partitions: List[Partition] = []
    pairs: List[Tuple[int, int]] = []
    skipped = 0
    layout = direct_layout(key_bytes)
    for number in range(num_partitions):
        build_rows = np.flatnonzero(build_partition == number)
        probe_rows = np.flatnonzero(probe_partition == number)
        if len(build_rows) == 0 or len(probe_rows) == 0:
            skipped += 1
            continue
        index = HashIndex(
            space, layout,
            choose_num_buckets(len(build_rows), target_nodes_per_bucket),
            hash_spec, capacity=len(build_rows),
            name=f"part{partition_bits}b:{number}:"
                 f"{build.name}.{build_key}")
        index.build(build_keys[build_rows], payloads[build_rows])
        keys_column = Column(f"part{number}", build.column(build_key).dtype,
                             probe_keys_all[probe_rows])
        keys_column.materialize(
            space, f"part{partition_bits}b:{number}:probes:{probe.name}")
        for local, row in enumerate(probe_rows):
            for payload in index.probe(int(probe_keys_all[row])):
                pairs.append((int(row), int(payload)))
        partitions.append(Partition(
            number=number, index=index, probe_keys=keys_column,
            probe_rows=probe_rows, build_rows=len(build_rows)))

    overhead = (partitioning_cycles(build.num_rows, key_bytes + 8, cost)
                + partitioning_cycles(probe.num_rows, key_bytes, cost))
    return PartitionedJoinResult(
        partitions=partitions, pairs=sorted(pairs),
        partition_cycles=overhead, partition_bits=partition_bits,
        skipped_empty=skipped)
