"""The "no partitioning" hash join (Blanas et al.), the paper's target.

Build a hash index on the smaller relation's join key, then probe it with
every tuple of the larger relation (Figure 1).  The probe loop is the
indexing operation Widx accelerates.

The join is executed functionally through the simulated-memory
:class:`~repro.db.HashIndex`, so its matches are the ground truth that both
the baseline-core traces and Widx programs are validated against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ...mem.layout import AddressSpace
from ..build import build_index
from ..column import Column
from ..hashfn import HashSpec
from ..hashtable import HashIndex
from ..table import Table
from ..types import DataType


_join_counter = itertools.count()


@dataclass
class HashJoinResult:
    """Output of a hash join, plus the artifacts timing models need."""

    table: Table                 # matched (probe_row, build_payload) pairs
    index: HashIndex             # the index that was probed
    probe_keys: Column           # the outer relation's key column
    matches: int                 # number of emitted result tuples
    nodes_visited: int           # total node-list traversal length

    @property
    def match_rate(self) -> float:
        probes = len(self.probe_keys.values)
        return self.matches / probes if probes else 0.0


def hash_join(space: AddressSpace, build: Table, probe: Table,
              build_key: str, probe_key: str, *,
              payload_column: Optional[str] = None,
              indirect: bool = False,
              hash_spec: Optional[HashSpec] = None,
              target_nodes_per_bucket: float = 1.0,
              result_name: Optional[str] = None) -> HashJoinResult:
    """Join ``build`` and ``probe`` on equality of their key columns."""
    index = build_index(
        space, build, build_key, payload_column,
        indirect=indirect, hash_spec=hash_spec,
        target_nodes_per_bucket=target_nodes_per_bucket)
    probe_column = probe.column(probe_key)
    # The outer relation's key column lives in memory in a column store;
    # materializing it here lets the timing models (baseline cores, Widx)
    # replay this exact probe stream.  A column already materialized in a
    # *different* space is copied, so its addresses resolve in this one.
    if probe_column.is_materialized and probe_column.space is not space:
        probe_column = probe_column.detached_copy()
    if not probe_column.is_materialized:
        probe_column.materialize(
            space, f"probe:{probe.name}.{probe_key}#{next(_join_counter)}")

    probe_rows: List[int] = []
    payloads: List[int] = []
    nodes_visited = 0
    for row, key in enumerate(probe_column.values):
        found, visited = index.probe_count_nodes(int(key))
        nodes_visited += visited
        for payload in found:
            probe_rows.append(row)
            payloads.append(payload)

    dtype = DataType.U64
    result = Table(result_name or f"{build.name}x{probe.name}", [
        Column("probe_row", dtype, np.asarray(probe_rows, dtype=np.uint64)),
        Column("payload", dtype, np.asarray(payloads, dtype=np.uint64)),
    ])
    return HashJoinResult(
        table=result,
        index=index,
        probe_keys=probe_column,
        matches=len(payloads),
        nodes_visited=nodes_visited,
    )


def reference_join(build: Table, probe: Table, build_key: str,
                   probe_key: str,
                   payload_column: Optional[str] = None) -> List[Tuple[int, int]]:
    """Dictionary-based reference join for correctness testing.

    Returns sorted (probe_row, payload) pairs, independent of the hash
    index implementation.
    """
    payloads = (build.column(payload_column).values if payload_column
                else np.arange(build.num_rows, dtype=np.uint64))
    mapping: dict = {}
    for row, key in enumerate(build.column(build_key).values):
        mapping.setdefault(int(key), []).append(int(payloads[row]))
    pairs: List[Tuple[int, int]] = []
    for row, key in enumerate(probe.column(probe_key).values):
        for payload in mapping.get(int(key), ()):  # preserve duplicates
            pairs.append((row, payload))
    return sorted(pairs)
