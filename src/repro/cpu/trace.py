"""Expanding hash-index probes into micro-op traces.

The generated trace mirrors Listing 1 compiled for a conventional core:

* load the probe key (keys stream through the L1 — many per block),
* hash it (each :class:`~repro.db.hashfn.HashStep` costs *two* host ALU ops,
  shift then combine — the host ISA has no fused shift-ops; Widx's fused
  XOR-SHF/ADD-SHF instructions halve this, one of its advantages),
* compute the bucket address (mask + shift + add),
* walk the chain: per node, load the key slot, (for indirect layouts:
  compute the base-column address and load the key), compare, branch, load
  the next pointer, branch,
* on the final node, the loop-exit branch is data-dependent and mispredicts.

Addresses are real simulated-memory addresses read from the live index, so
running the trace through the memory hierarchy reproduces the true
block-reuse and locality behaviour.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence

from ..db.column import Column
from ..db.hashtable import HashIndex
from .uops import TraceBuilder, Uop

#: Host ALU ops per hash mixing step (shift + combine; no fusion).
HOST_OPS_PER_HASH_STEP = 2


class ProbeTraceGenerator:
    """Generates per-probe uop traces against a live :class:`HashIndex`."""

    def __init__(self, index: HashIndex, probe_keys: Column,
                 out_base: int = 0,
                 model_mispredicts: bool = True) -> None:
        if not probe_keys.is_materialized:
            raise ValueError("probe key column must be materialized in "
                             "simulated memory before tracing")
        self.index = index
        self.probe_keys = probe_keys
        self.out_base = out_base
        self.model_mispredicts = model_mispredicts
        # The loop-exit branch is strongly biased: a bimodal predictor
        # learns the most common chain length and only mispredicts probes
        # whose chain deviates from it.
        self._typical_chain = max(1, round(index.num_keys / max(1, index.num_buckets)))

    def _exit_mispredicts(self, chain_length: int) -> bool:
        if not self.model_mispredicts:
            return False
        return chain_length != self._typical_chain

    def probe_uops(self, row: int, stream_base: int) -> List[Uop]:
        """The uop trace for probing key at ``row``; deps are absolute
        stream positions starting at ``stream_base``."""
        index = self.index
        layout = index.layout
        trace = TraceBuilder(stream_base)
        load, alu, branch = trace.load, trace.alu, trace.branch

        key = int(self.probe_keys.values[row])
        key_ready = load(self.probe_keys.address_of(row))

        # Hash: a serial ALU chain seeded by the key load.
        prev = key_ready
        for _step in index.hash_spec.steps:
            for _ in range(HOST_OPS_PER_HASH_STEP):
                prev = alu(prev)
        # Bucket address: mask, scale (shift) and base add.
        for _ in range(3):
            prev = alu(prev)
        addr_ready = prev

        # Walk the actual chain.
        chain = list(index.walk_chain(key))
        prev_node_dep = addr_ready
        for node_index, node_addr in enumerate(chain):
            last = node_index == len(chain) - 1
            slot_ready = load(node_addr + layout.key_offset, prev_node_dep)
            cmp_dep = slot_ready
            if layout.indirect:
                # Address arithmetic into the base column, then the key load.
                row_id = index.node_payload(node_addr)
                cmp_dep = load(index.key_address_for_row(row_id),
                               alu(slot_ready))
            compare = alu(cmp_dep, key_ready)
            branch(compare)
            if index.node_key(node_addr) == key and not layout.indirect:
                # Emit: read the payload (same block as the key slot).
                load(node_addr + layout.payload_offset, compare)
            next_ready = load(node_addr + layout.next_offset, prev_node_dep)
            branch(next_ready,
                   mispredict=last and self._exit_mispredicts(len(chain)))
            prev_node_dep = next_ready
        if not chain:
            # Empty bucket: the header's key slot is still read and compared
            # against the sentinel before the walk loop can exit.
            header = index.bucket_addr(index.bucket_of_key(key))
            branch(alu(load(header + layout.key_offset, addr_ready)),
                   mispredict=self._exit_mispredicts(0))
        # Loop bookkeeping for the key iterator (i++ / bounds test).
        branch(alu())
        return trace.uops

    def stream(self, rows: Optional[Sequence[int]] = None) -> Iterator[List[Uop]]:
        """Yield per-probe traces with stream-consistent dependency indices."""
        if rows is None:
            rows = range(len(self.probe_keys.values))
        base = 0
        for row in rows:
            uops = self.probe_uops(row, base)
            yield uops
            base += len(uops)
