#!/usr/bin/env python3
"""Programming Widx for a custom schema.

Widx's whole point (vs a fixed-function unit) is that a DBMS developer can
target any node layout and hash function.  This example defines a schema
Widx was never hard-coded for — 8-byte keys with a 64-byte node stride and
a custom 3-step hash — generates the three unit programs, prints the
assembly, and runs the offload, validating against the software probe.

Run:  python examples/custom_schema.py
"""

import numpy as np

from repro import DEFAULT_CONFIG
from repro.db.column import Column
from repro.db.datagen import make_rng, probe_keys, unique_keys
from repro.db.hashfn import HashSpec, HashStep
from repro.db.hashtable import HashIndex, choose_num_buckets
from repro.db.node import NodeLayout
from repro.db.types import DataType
from repro.mem.layout import AddressSpace
from repro.widx.offload import offload_probe

# A padded analytics schema: wide nodes (one per cache block), 8 B keys.
CUSTOM_LAYOUT = NodeLayout(
    name="padded64",
    stride=64,
    key_bytes=8,
    payload_bytes=8,
    key_offset=0,
    payload_offset=8,
    next_offset=16,
    indirect=False,
    empty_sentinel=(1 << 64) - 1,
)

# A custom (deliberately short) mixing function — three fused instructions.
CUSTOM_HASH = HashSpec("custom3", (
    HashStep("xor_shr", amount=33),
    HashStep("add_shl", amount=5),
    HashStep("xor_shr", amount=17),
))


def main() -> None:
    rng = make_rng(7)
    space = AddressSpace()
    keys = unique_keys(5_000, 8, rng)
    index = HashIndex(space, CUSTOM_LAYOUT, choose_num_buckets(5_000),
                      CUSTOM_HASH, capacity=5_000, name="custom")
    index.build(keys, np.arange(1, len(keys) + 1))
    print(f"Custom schema: {CUSTOM_LAYOUT.describe()}")
    print(f"Custom hash:   {CUSTOM_HASH.name} "
          f"({CUSTOM_HASH.compute_cycles} fused instructions)\n")

    column = Column("probes", DataType.U64,
                    probe_keys(keys, 1_500, 0.8, 8, rng))
    column.materialize(space)

    outcome = offload_probe(index, column, config=DEFAULT_CONFIG)
    print("Generated dispatcher program (.role H):")
    print(outcome.programs["dispatcher"].source)
    print("\nGenerated walker program (.role W):")
    print(outcome.programs["walker"].source)

    print(f"\nOffload complete: {outcome.matches} matches over "
          f"{outcome.run.tuples} probes, "
          f"{outcome.cycles_per_tuple:.1f} cycles/tuple, "
          f"validated: {outcome.validated}")


if __name__ == "__main__":
    main()
