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

from typing import Iterator, List, Optional, Sequence, Tuple

from ..db.column import Column
from ..db.hashfn import HashSpec
from ..db.hashtable import HashIndex
from .uops import (ALU_PREV, BRANCH_PREV, BRANCH_PREV_MISPREDICTED,
                   LOOP_TAIL, TEST_PREV, TEST_PREV_MISPREDICTED,
                   TraceBuilder, Uop)

#: Host ALU ops per hash mixing step (shift + combine; no fusion).
HOST_OPS_PER_HASH_STEP = 2


def address_chain(hash_spec: HashSpec, extra: int = 0) -> Tuple[Uop, ...]:
    """The serial ALU chain from a key to its bucket address: ``extra``
    ops first, then the hash, then mask, scale (shift) and base add."""
    return ALU_PREV * (extra + HOST_OPS_PER_HASH_STEP * len(hash_spec.steps)
                       + 3)


class TraceGenerator:
    """Expands probe rows into uop traces against a live ``index``, one
    trace per probe."""

    #: Probes consumed per yielded trace (batched descent overrides).
    tuples_per_trace = 1

    def __init__(self, index, probe_keys: Column) -> None:
        if not probe_keys.is_materialized:
            raise ValueError("probe key column must be materialized in "
                             "simulated memory before tracing")
        self.index = index
        self.probe_keys = probe_keys

    def probe_uops(self, row: int) -> List[Uop]:
        """The uop trace for probing the key at ``row``."""
        raise NotImplementedError

    def stream(self, rows: Optional[Sequence[int]] = None) -> Iterator[List[Uop]]:
        """One trace per row (every row by default), each built as the
        iterator reaches it."""
        if rows is None:
            rows = range(len(self.probe_keys.values))
        return map(self.probe_uops, rows)


class ProbeTraceGenerator(TraceGenerator):
    """Generates per-probe uop traces against a live :class:`HashIndex`."""

    def __init__(self, index: HashIndex, probe_keys: Column) -> None:
        super().__init__(index, probe_keys)
        # The loop-exit branch is strongly biased: a bimodal predictor
        # learns the most common chain length and only mispredicts probes
        # whose chain deviates from it.
        self._typical_chain = max(1, round(index.num_keys / max(1, index.num_buckets)))
        self._address_chain = address_chain(index.hash_spec)

    def probe_uops(self, row: int) -> List[Uop]:
        """The uop trace for probing the key at ``row``."""
        index = self.index
        layout = index.layout
        trace = TraceBuilder()
        load, compare, run = trace.load, trace.compare, trace.run

        key = int(self.probe_keys.values[row])
        key_ready = load(self.probe_keys.address_of(row))
        # Hash and bucket address: a serial ALU chain seeded by the key.
        addr_ready = run(self._address_chain)

        # Walk the actual chain.
        chain = list(index.walk_chain(key))
        exit_mispredicts = len(chain) != self._typical_chain
        prev_node_dep = addr_ready
        for node_index, node_addr in enumerate(chain):
            last = node_index == len(chain) - 1
            if layout.indirect:
                # Key slot, address arithmetic into the base column, then
                # the key load.
                load(node_addr + layout.key_offset, prev_node_dep)
                row_id = index.node_payload(node_addr)
                compare(index.key_address_for_row(row_id), run(ALU_PREV),
                        key_ready)
            else:
                compared = compare(node_addr + layout.key_offset,
                                   prev_node_dep, key_ready)
                if index.node_key(node_addr) == key:
                    # Emit: read the payload (same block as the key slot).
                    load(node_addr + layout.payload_offset, compared)
            prev_node_dep = load(node_addr + layout.next_offset,
                                 prev_node_dep)
            run(BRANCH_PREV_MISPREDICTED if last and exit_mispredicts
                else BRANCH_PREV)
        if not chain:
            # Empty bucket: the header's key slot is still read and compared
            # against the sentinel before the walk loop can exit.
            header = index.bucket_addr(index.bucket_of_key(key))
            load(header + layout.key_offset, addr_ready)
            run(TEST_PREV_MISPREDICTED if exit_mispredicts else TEST_PREV)
        # Loop bookkeeping for the key iterator (i++ / bounds test).
        run(LOOP_TAIL)
        return trace.uops

