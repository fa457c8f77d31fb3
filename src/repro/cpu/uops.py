"""Micro-ops for the trace-driven core models.

A trace is a list of :class:`Uop` whose ``deps`` are stream positions of
earlier uops *of the same trace*, and a core model executes one trace per
``execute`` call; it rejects any other dep with :class:`ValueError`.
Probes stay independent of each other because each probe's trace is its
own call.

Generators emit through :class:`TraceBuilder`, which makes the one check
its uops can fail (a load or store needs an address) and builds each uop
with ``tuple.__new__``, skipping :class:`Uop`'s constructor.
"""

from __future__ import annotations

import enum
from typing import List, NamedTuple, Tuple


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

    ``deps`` are stream-relative indices (absolute positions in the uop
    stream) of producers this uop must wait for.  ``addr`` is the simulated
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


def foreign_dep(dep: int, base: int, position: int) -> ValueError:
    """The error a core model raises for a dep outside its trace: the
    uop at stream ``position`` may only wait on ``[base, position)``."""
    return ValueError(
        f"uop at stream position {position} depends on {dep}, which is "
        f"not an earlier uop of its trace (positions {base}..{position - 1})")


_new = tuple.__new__
_ALU = UopKind.ALU
_LOAD = UopKind.LOAD
_STORE = UopKind.STORE
_BRANCH = UopKind.BRANCH


class TraceBuilder:
    """Appends uops to one trace; each call returns the new uop's stream
    position (``base`` plus its index in :attr:`uops`)."""

    __slots__ = ("uops", "base")

    def __init__(self, base: int = 0) -> None:
        self.uops: List[Uop] = []
        self.base = base

    def load(self, addr: int, *deps: int) -> int:
        """Append a load of ``addr`` waiting on ``deps``."""
        if addr == 0:
            raise ValueError("load uop needs a target address")
        uops = self.uops
        uops.append(_new(Uop, (_LOAD, addr, deps, 1, False)))
        return self.base + len(uops) - 1

    def store(self, addr: int, *deps: int) -> int:
        """Append a store to ``addr`` waiting on ``deps``."""
        if addr == 0:
            raise ValueError("store uop needs a target address")
        uops = self.uops
        uops.append(_new(Uop, (_STORE, addr, deps, 1, False)))
        return self.base + len(uops) - 1

    def alu(self, *deps: int) -> int:
        """Append a one-cycle ALU op waiting on ``deps``."""
        uops = self.uops
        uops.append(_new(Uop, (_ALU, 0, deps, 1, False)))
        return self.base + len(uops) - 1

    def branch(self, *deps: int, mispredict: bool = False) -> int:
        """Append a branch waiting on ``deps``; ``mispredict`` charges
        the front-end refill."""
        uops = self.uops
        uops.append(_new(Uop, (_BRANCH, 0, deps, 1, mispredict)))
        return self.base + len(uops) - 1
