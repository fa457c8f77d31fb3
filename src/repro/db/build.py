"""Index construction helpers (Step 1 of the paper's Figure 1).

``build_index`` turns a table column into a :class:`HashIndex` in simulated
memory, choosing the layout the way the modelled DBMS would: the kernel
workloads use compact direct nodes; the MonetDB-style queries use indirect
(row-id) nodes over a materialized base column.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..mem.layout import AddressSpace
from .hashfn import HashSpec, ROBUST_HASH_32, ROBUST_HASH_64
from .hashtable import HashIndex, choose_num_buckets
from .node import NodeLayout, direct_layout, monetdb_layout
from .table import Table


def default_hash_for(key_bytes: int) -> HashSpec:
    """The robust hash a production DBMS would pick for this key width."""
    return ROBUST_HASH_64 if key_bytes == 8 else ROBUST_HASH_32


def build_index(space: AddressSpace, table: Table, key_column: str,
                payload_column: Optional[str] = None, *,
                indirect: bool = False,
                hash_spec: Optional[HashSpec] = None,
                target_nodes_per_bucket: float = 1.0,
                layout: Optional[NodeLayout] = None,
                name: Optional[str] = None) -> HashIndex:
    """Build a hash index on ``table.key_column``.

    Direct indexes store ``payload_column`` values (default: the row id)
    inline; indirect indexes store row ids and fetch keys from the
    materialized base column at probe time.
    """
    keys = table.column(key_column)
    key_bytes = keys.dtype.nbytes
    if layout is None:
        layout = monetdb_layout(key_bytes) if indirect else direct_layout(key_bytes)
    if hash_spec is None:
        hash_spec = default_hash_for(key_bytes)
    num_rows = table.num_rows
    if num_rows == 0:
        raise ValueError(f"cannot index empty table {table.name!r}")
    num_buckets = choose_num_buckets(num_rows, target_nodes_per_bucket)
    index_name = name or f"{table.name}.{key_column}"

    base_column = None
    if indirect:
        base_column = keys
        if base_column.is_materialized and base_column.space is not space:
            base_column = base_column.detached_copy()
        base_column.materialize(space, f"{index_name}:basecol")

    index = HashIndex(space, layout, num_buckets, hash_spec,
                      capacity=num_rows, name=index_name,
                      key_column=base_column)

    if payload_column is not None and not indirect:
        payloads = table.column(payload_column).values
    else:
        payloads = np.arange(num_rows)
    index.build(keys.values, payloads)
    return index
