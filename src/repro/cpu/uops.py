"""Micro-ops for the trace-driven core models.

A trace is a list of :class:`Uop` whose ``deps`` count back within the
trace (1 is the previous uop).  A core model executes one trace per
``execute`` call and rejects, with :class:`ValueError`, a dep that does
not reach an earlier uop of the same call, so each probe's trace stands
alone.  As a uop does not depend on where it lands, fixed-shape runs are
shared constants (:data:`ALU_PREV` and the rest).  Everything else goes
through :class:`TraceBuilder`, which makes the one check its uops can
fail (a load needs an address) and builds each uop with
``tuple.__new__``, skipping :class:`Uop`'s constructor.
"""

from __future__ import annotations

import enum
from typing import List, NamedTuple, Optional, Tuple


class UopKind(enum.Enum):
    """Micro-op categories for the trace-driven core models."""
    ALU = "alu"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"


class _UopFields(NamedTuple):
    kind: UopKind
    addr: int = 0
    deps: Tuple[int, ...] = ()
    latency: int = 1
    mispredict: bool = False


class Uop(_UopFields):
    """One micro-op (an immutable tuple record).

    ``deps`` are the distances back within the trace (1 = the previous
    uop) of producers this uop must wait for.  ``addr`` is the simulated
    memory address for loads/stores.  ``mispredict`` marks a branch the
    front-end mispredicts (charged a refill penalty by the core models).
    """

    __slots__ = ()

    def __new__(cls, kind: UopKind, addr: int = 0,
                deps: Tuple[int, ...] = (), latency: int = 1,
                mispredict: bool = False) -> "Uop":
        if kind in (UopKind.LOAD, UopKind.STORE) and addr == 0:
            raise ValueError(f"{kind.value} uop needs a target address")
        if latency < 1:
            raise ValueError("uop latency must be >= 1")
        return tuple.__new__(cls, (kind, addr, deps, latency, mispredict))


def foreign_dep(dep: int, index: int) -> ValueError:
    """The error a core model raises when uop ``index`` of a trace waits
    ``dep`` back: only ``1..index`` name earlier uops of the trace."""
    return ValueError(
        f"uop {index} of its trace depends on the uop {dep} back, which "
        f"is not an earlier uop of its trace (1..{index} back)")


#: Shared constant runs, appended with :meth:`TraceBuilder.run`: one ALU
#: op, a branch, or a test-and-branch on the previous uop's value, and the
#: probe-loop bookkeeping (the key iterator's ``i++`` and bounds branch).
ALU_PREV = (Uop(UopKind.ALU, deps=(1,)),)
BRANCH_PREV = (Uop(UopKind.BRANCH, deps=(1,)),)
BRANCH_PREV_MISPREDICTED = (Uop(UopKind.BRANCH, deps=(1,), mispredict=True),)
TEST_PREV = ALU_PREV + BRANCH_PREV
TEST_PREV_MISPREDICTED = ALU_PREV + BRANCH_PREV_MISPREDICTED
LOOP_TAIL = (Uop(UopKind.ALU),) + BRANCH_PREV
LOOP_TAIL_MISPREDICTED = LOOP_TAIL[:1] + BRANCH_PREV_MISPREDICTED

_new = tuple.__new__
_ALU = UopKind.ALU
_LOAD = UopKind.LOAD
_BRANCH = UopKind.BRANCH
_BRANCH_ON_PREV = BRANCH_PREV[0]


class TraceBuilder:
    """Appends uops to one trace.  Deps are given as indices in the
    trace and stored as distances back; each call returns the index of
    the last uop it appended."""

    __slots__ = ("uops",)

    def __init__(self) -> None:
        self.uops: List[Uop] = []

    def load(self, addr: int, dep: Optional[int] = None) -> int:
        """Append a load of ``addr`` waiting on ``dep`` (if any)."""
        if addr == 0:
            raise ValueError("load uop needs a target address")
        uops = self.uops
        n = len(uops)
        uops.append(_new(Uop, (_LOAD, addr, () if dep is None else (n - dep,),
                               1, False)))
        return n

    def alu(self, dep: int, other: Optional[int] = None) -> int:
        """Append a one-cycle ALU op waiting on ``dep`` (and ``other``)."""
        uops = self.uops
        n = len(uops)
        deps = (n - dep,) if other is None else (n - dep, n - other)
        uops.append(_new(Uop, (_ALU, 0, deps, 1, False)))
        return n

    def mispredicted_branch(self, dep: int) -> int:
        """Append a branch waiting on ``dep`` that the front-end
        mispredicts (the core charges the refill)."""
        uops = self.uops
        n = len(uops)
        uops.append(_new(Uop, (_BRANCH, 0, (n - dep,), 1, True)))
        return n

    def compare(self, addr: int, dep: int, key: int) -> int:
        """Append the load → compare → branch triple every search loop
        repeats: load ``addr`` after ``dep``, compare the word with the
        value ``key`` loaded, branch on the result.  Returns the
        compare's index."""
        if addr == 0:
            raise ValueError("load uop needs a target address")
        uops = self.uops
        n = len(uops)
        uops += (_new(Uop, (_LOAD, addr, (n - dep,), 1, False)),
                 _new(Uop, (_ALU, 0, (1, n + 1 - key), 1, False)),
                 _BRANCH_ON_PREV)
        return n + 1

    def compare_loaded(self, dep: int, key: int, count: int) -> int:
        """Append ``count`` compare → branch pairs of the values ``dep``
        and ``key`` produced: a search loop over a block already loaded."""
        uops = self.uops
        for n in range(len(uops), len(uops) + 2 * count, 2):
            uops += (_new(Uop, (_ALU, 0, (n - dep, n - key), 1, False)),
                     _BRANCH_ON_PREV)
        return len(uops) - 1

    def run(self, shared: Tuple[Uop, ...]) -> int:
        """Append a run of shared constant uops."""
        uops = self.uops
        uops += shared
        return len(uops) - 1
