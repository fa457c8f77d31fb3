"""Memoized decode of Widx programs into flat interpreter operations.

The interpreter in :mod:`repro.widx.unit` executes the same short program
once per probe — hundreds of thousands of invocations per measurement —
so per-step costs that look trivial (enum identity chains, dataclass
attribute loads, ``Register.index`` dereferences, re-normalizing the same
immediate) dominate the walker step loop.  Decoding happens once per
:class:`~repro.widx.program.Program` instead: every instruction becomes a
flat tuple of plain ints with all operand resolution pre-computed, and
the decoded form is memoized for the program's lifetime.

Decoded operation layout (indices are fixed; the interpreter indexes
positionally)::

    (kind, rd, ra, rb, imm, bconst, width, target, sources)

* ``kind`` — one of the ``K_*`` ints below (dispatch without enums);
* ``rd``/``ra`` — register indexes (0 when absent: r0 reads zero and
  writes to r0 are dropped, exactly the architectural rule);
* ``rb`` — register index, or ``-1`` when the instruction has no rb
  operand (the ALU b-operand then falls back to ``bconst``);
* ``imm`` — raw immediate: address offset for LD/ST/TOUCH, shift
  distance for SHL/SHR and the fused shift-ops;
* ``bconst`` — the pre-masked immediate b-operand ``imm & (2**64-1)``
  (0 when the instruction has no immediate), mirroring the operand rule
  of the original interpreter exactly;
* ``width`` — access width in bytes for memory operations;
* ``target`` — resolved branch target pc;
* ``sources`` — tuple of register indexes EMIT pushes.

Memoization is keyed by program identity with a weak reference guarding
against ``id()`` reuse, so decoding never leaks programs and a given
program is decoded exactly once per process.
"""

from __future__ import annotations

import weakref
from typing import Dict, Tuple

from ..errors import WidxFault
from .isa import Instruction, Opcode
from .program import Program

_M64 = (1 << 64) - 1

# Interpreter dispatch kinds.  The ALU kinds are contiguous and start at
# K_ALU_FIRST so the interpreter can route "any ALU op" with one compare.
K_LD = 0
K_ST = 1
K_TOUCH = 2
K_EMIT = 3
K_BA = 4
K_BLE = 5
K_HALT = 6
K_ADD = 7
K_AND = 8
K_XOR = 9
K_CMP = 10
K_CMP_LE = 11
K_SHL = 12
K_SHR = 13
K_ADD_SHF = 14
K_AND_SHF = 15
K_XOR_SHF = 16

K_ALU_FIRST = K_ADD

_KIND_OF = {
    Opcode.LD: K_LD,
    Opcode.ST: K_ST,
    Opcode.TOUCH: K_TOUCH,
    Opcode.EMIT: K_EMIT,
    Opcode.BA: K_BA,
    Opcode.BLE: K_BLE,
    Opcode.HALT: K_HALT,
    Opcode.ADD: K_ADD,
    Opcode.AND: K_AND,
    Opcode.XOR: K_XOR,
    Opcode.CMP: K_CMP,
    Opcode.CMP_LE: K_CMP_LE,
    Opcode.SHL: K_SHL,
    Opcode.SHR: K_SHR,
    Opcode.ADD_SHF: K_ADD_SHF,
    Opcode.AND_SHF: K_AND_SHF,
    Opcode.XOR_SHF: K_XOR_SHF,
}

DecodedOp = Tuple[int, int, int, int, int, int, int, int, Tuple[int, ...]]

#: id(program) -> (weakref guarding id reuse, decoded operations).
_CACHE: Dict[int, Tuple[weakref.ref, Tuple[DecodedOp, ...]]] = {}


def decode_instruction(ins: Instruction) -> DecodedOp:
    """Decode one instruction into the flat interpreter tuple."""
    kind = _KIND_OF.get(ins.opcode)
    if kind is None:
        raise WidxFault(f"unhandled opcode {ins.opcode}")
    rd = ins.rd.index if ins.rd is not None else 0
    ra = ins.ra.index if ins.ra is not None else 0
    rb = ins.rb.index if ins.rb is not None else -1
    imm = ins.imm if ins.imm is not None else 0
    bconst = (ins.imm & _M64) if ins.imm is not None else 0
    target = ins.target if ins.target is not None else 0
    sources = tuple(r.index for r in ins.sources)
    return (kind, rd, ra, rb, imm, bconst, ins.width, target, sources)


def decoded_program(program: Program) -> Tuple[DecodedOp, ...]:
    """The memoized decoded form of ``program`` (decoded once, ever)."""
    key = id(program)
    cached = _CACHE.get(key)
    if cached is not None:
        ref, ops = cached
        if ref() is program:
            return ops
    ops = tuple(decode_instruction(ins) for ins in program.instructions)

    def _drop(_ref, _key=key) -> None:
        _CACHE.pop(_key, None)

    _CACHE[key] = (weakref.ref(program, _drop), ops)
    return ops
