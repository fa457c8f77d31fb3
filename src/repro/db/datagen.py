"""Workload data generation (the dbgen/dsdgen stand-in).

Generates key columns with controlled cardinality, distribution and match
rate.  The paper's kernel uses uniformly distributed 4 B keys probing an
index of Small/Medium/Large cardinality; the DSS queries probe indexes
built on dimension/fact columns of varying cardinality.
"""

from __future__ import annotations

import numpy as np

from .column import Column
from .table import Table
from .types import DataType


def make_rng(seed: int) -> np.random.Generator:
    """A seeded numpy Generator (all workload data is reproducible)."""
    return np.random.default_rng(seed)


def unique_keys(count: int, key_bytes: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` distinct keys, dense-ish but shuffled (realistic surrogate keys)."""
    dtype = DataType.for_key_bytes(key_bytes)
    # Spread keys over 4x the count so values are not trivially sequential,
    # while staying far below the empty-bucket sentinel.
    space = 4 * count
    values = rng.choice(space, size=count, replace=False).astype(dtype.numpy_dtype)
    return values + 1  # avoid key 0, which reads like a NULL in some schemas


def probe_keys(build_keys: np.ndarray, count: int, match_fraction: float,
               key_bytes: int, rng: np.random.Generator) -> np.ndarray:
    """Outer-relation keys: ``match_fraction`` of probes hit the index.

    Misses draw from a disjoint key range, modelling foreign keys that fall
    outside the (filtered) build side.
    """
    if not 0.0 <= match_fraction <= 1.0:
        raise ValueError("match fraction must be in [0, 1]")
    dtype = DataType.for_key_bytes(key_bytes)
    matches = rng.choice(build_keys, size=count).astype(dtype.numpy_dtype)
    if match_fraction >= 1.0:
        return matches
    miss_base = int(build_keys.max()) + 1
    misses = (miss_base + rng.integers(0, max(4 * count, 16), size=count)) \
        .astype(dtype.numpy_dtype)
    take_match = rng.random(count) < match_fraction
    return np.where(take_match, matches, misses)


def zipf_keys(count: int, cardinality: int, skew: float,
              rng: np.random.Generator) -> np.ndarray:
    """Zipf-distributed keys over ``cardinality`` distinct values.

    Used by the skew-sensitivity ablation: real analytics key columns are
    often skewed, which lengthens hot chains and shifts work between the
    dispatcher and the walkers.
    """
    if cardinality < 1:
        raise ValueError("cardinality must be >= 1")
    if skew <= 0:
        return rng.integers(1, cardinality + 1, size=count).astype(np.uint32)
    ranks = np.arange(1, cardinality + 1, dtype=np.float64)
    weights = ranks ** (-skew)
    weights /= weights.sum()
    return (rng.choice(cardinality, size=count, p=weights) + 1).astype(np.uint32)


def build_pair_tables(build_rows: int, probe_rows: int, *, key_bytes: int = 4,
                      match_fraction: float = 1.0, seed: int = 42,
                      build_name: str = "A", probe_name: str = "B",
                      key_name: str = "age") -> tuple:
    """The Figure 1 scenario: tables A (indexed) and B (probing) on one key.

    Returns ``(build_table, probe_table)``.
    """
    rng = make_rng(seed)
    dtype = DataType.for_key_bytes(key_bytes)
    build_key = unique_keys(build_rows, key_bytes, rng)
    payloads = np.arange(1, build_rows + 1, dtype=dtype.numpy_dtype)
    build_table = Table(build_name, [
        Column(key_name, dtype, build_key),
        Column("id", dtype, payloads),
    ])
    probe_key = probe_keys(build_key, probe_rows, match_fraction, key_bytes, rng)
    probe_table = Table(probe_name, [
        Column(key_name, dtype, probe_key),
    ])
    return build_table, probe_table
