"""Hash functions expressible on the Widx datapath.

The Widx ISA (Table 1 of the paper) has shifts, adds, xors and the fused
ADD-SHF / AND-SHF / XOR-SHF forms — but **no multiply**.  Robust DBMS hash
functions therefore have to be built from shift-add-xor mixing (the same
family as Thomas Wang's integer hashes and MonetDB's mix macros).

A :class:`HashSpec` is a sequence of :class:`HashStep` micro-steps.  The
same spec is (a) evaluated directly in Python as the functional reference,
(b) compiled to Widx assembly by :mod:`repro.widx.programs`, and (c) costed
by the analytical model (one fused instruction per step).

The paper's Listing 1 toy hash ``(X & MASK) ^ HPRIME`` is ``KERNEL_HASH``;
``ROBUST_HASH_32/64`` model the heavier production functions whose ALU cost
makes key hashing 30% (avg) to 68% (max) of lookup time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ..errors import InvariantViolation

MASK64 = (1 << 64) - 1

#: step kinds -> (uses_shift, uses_const)
_STEP_KINDS = {
    "xor_shl": (True, False),   # h ^= h << a
    "xor_shr": (True, False),   # h ^= h >> a
    "add_shl": (True, False),   # h += h << a
    "sub_shl": (True, False),   # h = (h << a) - h   (negated add-shift)
    "and_const": (False, True),  # h &= c
    "xor_const": (False, True),  # h ^= c
    "add_const": (False, True),  # h += c
    "shr": (True, False),        # h >>= a
    "shl": (True, False),        # h <<= a
}


@dataclass(frozen=True)
class HashStep:
    """One mixing micro-step; maps to one (possibly fused) Widx instruction."""

    kind: str
    amount: int = 0   # shift distance, if the step shifts
    const: int = 0    # immediate constant, if the step uses one

    def __post_init__(self) -> None:
        if self.kind not in _STEP_KINDS:
            raise ValueError(f"unknown hash step kind {self.kind!r}")
        uses_shift, uses_const = _STEP_KINDS[self.kind]
        if uses_shift and not 0 < self.amount < 64:
            raise ValueError(f"step {self.kind} needs a shift amount in (0, 64)")
        if uses_const and self.const == 0:
            raise ValueError(f"step {self.kind} needs a nonzero constant")

    def apply(self, h: int) -> int:
        """Evaluate this step on a 64-bit value."""
        if self.kind == "xor_shl":
            return (h ^ (h << self.amount)) & MASK64
        if self.kind == "xor_shr":
            return (h ^ (h >> self.amount)) & MASK64
        if self.kind == "add_shl":
            return (h + (h << self.amount)) & MASK64
        if self.kind == "sub_shl":
            return ((h << self.amount) - h) & MASK64
        if self.kind == "and_const":
            return h & self.const
        if self.kind == "xor_const":
            return (h ^ self.const) & MASK64
        if self.kind == "add_const":
            return (h + self.const) & MASK64
        if self.kind == "shr":
            return h >> self.amount
        if self.kind == "shl":
            return (h << self.amount) & MASK64
        raise InvariantViolation(f"unhandled hash step kind {self.kind!r}")

    def apply_array(self, h: np.ndarray, scratch: np.ndarray) -> None:
        """Evaluate this step in place on a ``uint64`` array.

        ``uint64`` arithmetic wraps modulo 2**64, exactly as :meth:`apply`
        masks with ``MASK64``; ``scratch`` is a same-shaped work buffer.
        """
        kind = self.kind
        amount, const = np.uint64(self.amount), np.uint64(self.const)
        if kind == "xor_shl":
            h ^= np.left_shift(h, amount, out=scratch)
        elif kind == "xor_shr":
            h ^= np.right_shift(h, amount, out=scratch)
        elif kind == "add_shl":
            h += np.left_shift(h, amount, out=scratch)
        elif kind == "sub_shl":
            np.subtract(np.left_shift(h, amount, out=scratch), h, out=h)
        elif kind == "and_const":
            h &= const
        elif kind == "xor_const":
            h ^= const
        elif kind == "add_const":
            h += const
        elif kind == "shr":
            h >>= amount
        elif kind == "shl":
            h <<= amount
        else:
            raise InvariantViolation(f"unhandled hash step kind {kind!r}")


@dataclass(frozen=True)
class HashSpec:
    """A named hash function: an ordered pipeline of mixing steps."""

    name: str
    steps: Tuple[HashStep, ...]

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("a hash function needs at least one step")

    def __call__(self, key: int) -> int:
        h = key & MASK64
        for step in self.steps:
            h = step.apply(h)
        return h

    def bucket_of(self, key: int, num_buckets: int) -> int:
        """Bucket index: the mixed value masked to a power-of-two table."""
        if num_buckets & (num_buckets - 1):
            raise ValueError("bucket count must be a power of two")
        return self(key) & (num_buckets - 1)

    def buckets_of(self, keys: np.ndarray, num_buckets: int) -> np.ndarray:
        """:meth:`bucket_of` for a whole key array at once (as ``uint64``)."""
        if num_buckets & (num_buckets - 1):
            raise ValueError("bucket count must be a power of two")
        h = np.array(keys, dtype=np.uint64)
        scratch = np.empty_like(h)
        for step in self.steps:
            step.apply_array(h, scratch)
        h &= np.uint64(num_buckets - 1)
        return h.astype(np.int32 if num_buckets <= 1 << 31 else np.int64)

    @property
    def compute_cycles(self) -> int:
        """ALU cycles on Widx: one fused instruction per step."""
        return len(self.steps)


def _steps(*specs: Sequence) -> Tuple[HashStep, ...]:
    return tuple(HashStep(kind, amount, const) for kind, amount, const in specs)


def kernel_hash(mask_bits: int = 24) -> HashSpec:
    """Listing 1's toy hash, ``((X) & MASK) ^ HPRIME``, with a mask wide
    enough for the bucket count in use (the optimized kernel radix-masks
    raw keys).  Two instructions — so cheap that decoupled hashing barely
    helps, which is why the paper's one-walker kernel gains only 4%."""
    if not 1 <= mask_bits <= 63:
        raise ValueError("mask must cover 1..63 bits")
    return HashSpec(f"kernel{mask_bits}", _steps(
        ("and_const", 0, (1 << mask_bits) - 1),
        ("xor_const", 0, 0xB16),
    ))


#: Default kernel hash: 24-bit mask covers every scaled kernel table.
KERNEL_HASH = kernel_hash(24)

#: A robust 32-bit mix in the style of Wang's hash32 (shift-add-xor only).
ROBUST_HASH_32 = HashSpec("robust32", _steps(
    ("add_shl", 15, 0),       # h = (h << 15) + h  ~  h *= 0x8001
    ("xor_shr", 10, 0),
    ("add_shl", 3, 0),
    ("xor_shr", 6, 0),
    ("add_shl", 11, 0),
    ("xor_shr", 16, 0),
))

#: A robust 64-bit mix modelled on Wang's 64-bit shift-add hash; used for
#: 8-byte ("double integer") keys such as TPC-H query 20's, whose
#: computationally intensive hashing gives Widx its best speedup.
ROBUST_HASH_64 = HashSpec("robust64", _steps(
    ("add_shl", 21, 0),       # key += key << 21 (Widx has no SUB; same mixing family)
    ("xor_shr", 24, 0),
    ("add_shl", 3, 0),
    ("add_shl", 8, 0),
    ("xor_shr", 14, 0),
    ("add_shl", 2, 0),
    ("add_shl", 4, 0),
    ("xor_shr", 28, 0),
    ("add_shl", 31, 0),
))

ALL_HASHES = {spec.name: spec for spec in (KERNEL_HASH, ROBUST_HASH_32, ROBUST_HASH_64)}
