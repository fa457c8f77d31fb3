#!/usr/bin/env python3
"""Accelerating B+-tree lookups — the paper's Section 7 extension.

"Widx can easily be extended to accelerate other index structures, such as
balanced trees, which are also common in DBMSs."  This example bulk-loads
a B+-tree in simulated memory, shows the generated Widx tree-descent
program, and compares accelerated tree lookups against hash-index probes
over the same keys.

Run:  python examples/tree_index.py
"""

import numpy as np

from repro import DEFAULT_CONFIG
from repro.db.btree import BPlusTree
from repro.db.column import Column
from repro.db.datagen import make_rng, unique_keys
from repro.db.hashfn import ROBUST_HASH_32
from repro.db.hashtable import HashIndex, choose_num_buckets
from repro.db.node import KERNEL_LAYOUT
from repro.db.types import DataType
from repro.mem.layout import AddressSpace
from repro.widx.offload import offload_probe, offload_tree_search

N_KEYS = 60_000
N_PROBES = 2_000


def main() -> None:
    rng = make_rng(11)
    keys = unique_keys(N_KEYS, 4, rng)
    probe_values = rng.choice(keys, N_PROBES)

    tree_space = AddressSpace()
    tree = BPlusTree(tree_space, keys.tolist(),
                     list(range(1, N_KEYS + 1)))
    stats = tree.stats()
    print(f"B+-tree: {stats.num_keys} keys, height {stats.height}, "
          f"{stats.leaves} leaves + {stats.internal_nodes} internal nodes "
          f"({tree.footprint_bytes // 1024} KB)")
    low, high = sorted(keys.tolist())[100], sorted(keys.tolist())[130]
    print(f"range scan [{low}, {high}]: "
          f"{len(tree.range_scan(low, high))} keys (trees do ranges; "
          f"hash tables cannot)\n")

    tree_probes = Column("probes", DataType.U32, probe_values)
    tree_probes.materialize(tree_space)
    tree_out = offload_tree_search(tree, tree_probes, config=DEFAULT_CONFIG)
    print("Widx tree lookups (4 walkers): "
          f"{tree_out.cycles_per_tuple:.1f} cycles/tuple, "
          f"{tree_out.matches} matches, validated: {tree_out.validated}")
    print("\nGenerated tree-walker program (first 18 lines):")
    print("\n".join(tree_out.programs["walker"].source.splitlines()[:18]))

    hash_space = AddressSpace()
    index = HashIndex(hash_space, KERNEL_LAYOUT,
                      choose_num_buckets(N_KEYS), ROBUST_HASH_32,
                      capacity=N_KEYS)
    index.build(keys, np.arange(1, len(keys) + 1))
    hash_probes = Column("probes", DataType.U32, probe_values)
    hash_probes.materialize(hash_space)
    hash_out = offload_probe(index, hash_probes, config=DEFAULT_CONFIG)
    print(f"\nWidx hash probes (same keys): "
          f"{hash_out.cycles_per_tuple:.1f} cycles/tuple")
    ratio = tree_out.cycles_per_tuple / hash_out.cycles_per_tuple
    print(f"tree / hash cost ratio: {ratio:.2f}x — the tree pays "
          f"{stats.height} dependent node accesses per lookup vs the hash "
          f"table's ~{index.stats().nodes_per_used_bucket:.1f}")


if __name__ == "__main__":
    main()
