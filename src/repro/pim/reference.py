"""Reference twins for differential-testing the PIM backend.

:class:`ReferencePimUnit` is the naive interpreter for bank-side walkers.
The PIM placement reuses the Widx unit model unchanged — only the memory
attachment differs — so the twin *is*
:class:`~repro.widx.reference.ReferenceWidxUnit`: the straightforward
pre-overhaul interpreter (opcode-enum dispatch, per-operand register
dereference, no memoized decode) with timing, stats and architectural
semantics identical to the optimized :class:`~repro.widx.unit.WidxUnit`.
The subclass exists so the PIM differential suites and the
``pim_fig8_point`` benchmark name their oracle explicitly, and so a
future PIM-specific unit change *must* come with its own naive twin
here or the differential wall fails.

The memory twin needs nothing PIM-specific:
:func:`~repro.mem.reference.use_reference_arrays` on a
:class:`~repro.mem.pimside.PimBankMemory` swaps its scratch buffer for
the recency-list :class:`~repro.mem.reference.ReferenceCacheLevel` (the
bank side has no LLC to swap) and runs the composed front half.

Do not "improve" these: their value is being obviously correct, not fast.
"""

from __future__ import annotations

from ..widx.reference import ReferenceWidxUnit


class ReferencePimUnit(ReferenceWidxUnit):
    """Bank-side walker with the naive instruction-by-instruction
    interpreter — the oracle the optimized PIM offloads must match
    bit for bit."""
