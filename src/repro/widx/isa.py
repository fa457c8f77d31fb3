"""The Widx ISA (Table 1 of the paper).

The computational ISA is exactly the paper's Table 1: RISC essentials plus
fused shift-ops (ADD-SHF / AND-SHF / XOR-SHF) that accelerate hashing, and
TOUCH, a non-binding prefetch.  The columns of Table 1 (which unit types
may use which instruction) are encoded in :data:`UNIT_USAGE` and enforced
by the assembler.

Two modelling additions, documented here because they are *not* Table 1
rows but are implied by the paper's microarchitecture:

* ``EMIT`` — writes designated registers to the unit's output queue
  (Figure 6's inter-unit queues; the RTL exposes them as a datapath port,
  not as a memory-mapped instruction).  Blocks while the queue is full.
* ``HALT`` — ends the current invocation (function return in the paper's
  programming API).

Conventions:

* 32 64-bit software-exposed registers, ``r0`` hardwired to zero (the
  paper notes the large register file exists to hold hashing constants —
  constants are preloaded from the Widx control block at configuration).
* ``BLE ra, rb, label`` branches when ``ra <= rb`` (unsigned); with
  ``r0`` this provides branch-if-zero.
* ``CMP rd, ra, rb`` sets ``rd`` to 1 on equality, else 0; ``CMP-LE``
  sets ``rd`` to 1 when ``ra <= rb``.
* Fused shift-ops compute ``rd = ra OP (rb << s)``; a negative ``s``
  encodes a right shift (one datapath shifter handles both directions).
* Loads/stores carry an access width (4 or 8 bytes) — schema data types
  vary, which is exactly why Widx is programmable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Tuple

from ..errors import AssemblerError

NUM_REGISTERS = 32


class Opcode(enum.Enum):
    """Table 1 instructions plus the EMIT/HALT modelling additions."""

    ADD = "add"
    AND = "and"
    BA = "ba"
    BLE = "ble"
    CMP = "cmp"
    CMP_LE = "cmp-le"
    LD = "ld"
    SHL = "shl"
    SHR = "shr"
    ST = "st"
    TOUCH = "touch"
    XOR = "xor"
    ADD_SHF = "add-shf"
    AND_SHF = "and-shf"
    XOR_SHF = "xor-shf"
    EMIT = "emit"    # modelling addition: queue write port
    HALT = "halt"    # modelling addition: end of invocation


#: Table 1's unit-usage columns: which unit roles may execute each opcode.
#: H = dispatcher (hashing), W = walker, P = output producer.
UNIT_USAGE: Dict[Opcode, FrozenSet[str]] = {
    Opcode.ADD: frozenset("HWP"),
    Opcode.AND: frozenset("HWP"),
    Opcode.BA: frozenset("HWP"),
    Opcode.BLE: frozenset("HWP"),
    Opcode.CMP: frozenset("HWP"),
    Opcode.CMP_LE: frozenset("HWP"),
    Opcode.LD: frozenset("HWP"),
    Opcode.SHL: frozenset("HWP"),
    Opcode.SHR: frozenset("HWP"),
    Opcode.ST: frozenset("P"),
    Opcode.TOUCH: frozenset("HWP"),
    Opcode.XOR: frozenset("HWP"),
    Opcode.ADD_SHF: frozenset("HW"),
    Opcode.AND_SHF: frozenset("H"),
    Opcode.XOR_SHF: frozenset("HW"),
    Opcode.EMIT: frozenset("HW"),
    Opcode.HALT: frozenset("HWP"),
}


@dataclass(frozen=True)
class Register:
    """An architectural register r0..r31 (r0 reads as zero)."""

    index: int

    def __post_init__(self) -> None:
        if not 0 <= self.index < NUM_REGISTERS:
            raise AssemblerError(
                f"register r{self.index} outside the {NUM_REGISTERS}-register "
                f"budget (the Widx architecture has no push/pop)")

    def __str__(self) -> str:
        return f"r{self.index}"


R0 = Register(0)


@dataclass(frozen=True)
class Instruction:
    """One decoded Widx instruction.

    Field usage by opcode family:

    * ALU (``ADD/AND/XOR/CMP/CMP_LE``): ``rd, ra`` and ``rb`` *or* ``imm``.
    * Shifts (``SHL/SHR``): ``rd, ra, imm`` (shift distance).
    * Fused (``*_SHF``): ``rd, ra, rb, imm`` — ``rd = ra OP (rb << imm)``,
      negative ``imm`` shifts right.
    * ``LD``: ``rd, ra, imm`` (address ``ra+imm``), ``width`` bytes.
    * ``ST``: ``ra, imm`` address, ``rb`` data, ``width`` bytes.
    * ``TOUCH``: ``ra, imm`` address.
    * ``BA``: ``target``; ``BLE``: ``ra, rb, target``.
    * ``EMIT``: ``sources`` (1-4 registers pushed to the output queue).
    """

    opcode: Opcode
    rd: Optional[Register] = None
    ra: Optional[Register] = None
    rb: Optional[Register] = None
    imm: Optional[int] = None
    width: int = 8
    target: Optional[int] = None        # resolved branch target (pc index)
    label: Optional[str] = None         # unresolved branch target name
    sources: Tuple[Register, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.width not in (4, 8):
            raise AssemblerError(f"unsupported access width {self.width}")
        if self.opcode in (Opcode.SHL, Opcode.SHR):
            if self.imm is None or not 0 <= self.imm < 64:
                raise AssemblerError("shift distance must be in [0, 64)")
        if self.opcode in (Opcode.ADD_SHF, Opcode.AND_SHF, Opcode.XOR_SHF):
            if self.imm is None or not -63 <= self.imm <= 63:
                raise AssemblerError("fused shift distance must be in [-63, 63]")
        if self.opcode is Opcode.EMIT and not 1 <= len(self.sources) <= 4:
            raise AssemblerError("EMIT pushes between 1 and 4 registers")

    @property
    def is_branch(self) -> bool:
        return self.opcode in (Opcode.BA, Opcode.BLE)

    def registers_used(self) -> Tuple[Register, ...]:
        """Every register this instruction names."""
        regs = [r for r in (self.rd, self.ra, self.rb) if r is not None]
        regs.extend(self.sources)
        return tuple(regs)
