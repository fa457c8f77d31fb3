"""The Widx unit: a 2-stage RISC core executing one program.

Timing model (Section 4.1 / Figure 7):

* one instruction per cycle through the 2-stage pipeline; branches resolve
  in the first stage (the paper notes branch address calculation is the
  design's critical path precisely because it sits in that stage), so even
  taken branches sustain one instruction per cycle;
* ``LD`` blocks the unit until the shared memory hierarchy returns the
  data (walkers get their MLP from *multiple units*, not from within one);
* ``TOUCH`` issues a non-binding prefetch and does not wait;
* ``ST`` drains through a store buffer (1 cycle; latency hidden — the
  paper notes store latency is off the critical path);
* ``EMIT`` blocks while the output queue is full.

Every cycle is attributed to one of the Figure 8a categories: **Comp**
(instruction execution), **Mem** (memory-hierarchy stall), **TLB**
(address-translation stall, serviced by the host MMU), **Idle** (waiting
for work from the dispatcher) — plus **Queue** for output back-pressure,
which the paper folds into Idle; we keep it separate and report both.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple

from ..errors import WidxFault
from ..mem.hierarchy import MemoryHierarchy
from ..mem.physmem import PhysicalMemory
from ..obs import Breakdown, Counter
from ..sim.engine import Engine
from ..sim.resources import BoundedQueue, QUEUE_CLOSED
from .decode import (K_ADD, K_ADD_SHF, K_AND, K_AND_SHF, K_ALU_FIRST, K_BA,
                     K_BLE, K_CMP, K_CMP_LE, K_EMIT, K_LD, K_SHL,
                     K_SHR, K_ST, K_TOUCH, K_XOR, decoded_program)
from .isa import Instruction, NUM_REGISTERS, Opcode
from .program import Program

_M64 = (1 << 64) - 1


class UnitCycleBreakdown(Breakdown):
    """Cycle attribution for one unit (the Figure 8a categories).

    Backed by ``__slots__`` attributes rather than the base class's dict so
    the interpreter hot loop accumulates with plain attribute adds
    (``cycles.comp += pending``); all derived operations (``total``,
    ``merged``, ``scaled``, serialization) come from :class:`Breakdown`.
    """

    CATEGORIES = ("comp", "mem", "tlb", "idle", "queue")

    __slots__ = CATEGORIES

    def __init__(self, comp: float = 0.0, mem: float = 0.0, tlb: float = 0.0,
                 idle: float = 0.0, queue: float = 0.0) -> None:
        self.comp = comp
        self.mem = mem
        self.tlb = tlb
        self.idle = idle
        self.queue = queue

    def get(self, category: str) -> float:
        """The value of one category (slot attribute lookup)."""
        return getattr(self, category)

    def _set(self, category: str, value: float) -> None:
        if category not in self.CATEGORIES:
            raise WidxFault(f"UnitCycleBreakdown has no category {category!r}")
        setattr(self, category, value)


class UnitStats:
    """Execution counters for one unit."""

    __slots__ = ("invocations", "instructions", "loads", "stores",
                 "touches", "emitted", "cycles")

    _COUNTERS = ("invocations", "instructions", "loads", "stores",
                 "touches", "emitted")

    def __init__(self, invocations: int = 0, instructions: int = 0,
                 loads: int = 0, stores: int = 0, touches: int = 0,
                 emitted: int = 0,
                 cycles: Optional[UnitCycleBreakdown] = None) -> None:
        self.invocations = Counter(invocations)
        self.instructions = Counter(instructions)
        self.loads = Counter(loads)
        self.stores = Counter(stores)
        self.touches = Counter(touches)
        self.emitted = Counter(emitted)
        self.cycles = cycles if cycles is not None else UnitCycleBreakdown()

    def to_dict(self) -> Dict[str, Any]:
        """The JSON payload shape the measurement cache persists."""
        data: Dict[str, Any] = {name: getattr(self, name).value
                                for name in self._COUNTERS}
        data["cycles"] = self.cycles.as_values()
        return data

    def register_into(self, registry, prefix: str) -> None:
        """Publish the counters and the cycle breakdown under ``prefix``."""
        for name in self._COUNTERS:
            registry.register(f"{prefix}.{name}", getattr(self, name))
        registry.register(f"{prefix}.cycles", self.cycles)

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, UnitStats):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name).value}"
                          for name in self._COUNTERS)
        return f"UnitStats({inner}, cycles={self.cycles!r})"


class WidxUnit:
    """One dispatcher, walker or producer instance."""

    def __init__(self, name: str, program: Program, engine: Engine,
                 hierarchy: MemoryHierarchy, physmem: PhysicalMemory,
                 in_queue: Optional[BoundedQueue] = None,
                 out_queue: Optional[BoundedQueue] = None) -> None:
        self.name = name
        self.program = program
        self.engine = engine
        self.hierarchy = hierarchy
        self.physmem = physmem
        self.in_queue = in_queue
        self.out_queue = out_queue
        self.regs: List[int] = [0] * NUM_REGISTERS
        for index, value in program.constants.items():
            self.regs[index] = value & _M64
        self._decoded = decoded_program(program)
        self._input_indexes = tuple(r.index for r in program.inputs)
        self.stats = UnitStats()
        self.tracer = None            # set via set_tracer for --trace runs
        self.trail = None             # set via set_trail for --trails runs
        self.track = f"widx.{name}"
        self._start_time: Optional[float] = None
        self._end_time: Optional[float] = None
        # Fault-salvage bookkeeping: the queue item currently being
        # processed, and how many EMITs this invocation has issued.  A
        # fail-stopped walker's item is safe to requeue for a surviving
        # walker only while invocation_emits == 0 (nothing externally
        # visible happened yet); see WidxMachine._apply_fault.
        self.current_item: Optional[Tuple[int, ...]] = None
        self.invocation_emits = 0

    def set_tracer(self, tracer) -> None:
        """Record an "invoke" span per invocation onto ``tracer``."""
        self.tracer = tracer

    def set_trail(self, recorder) -> None:
        """Record per-invocation traversal trails (every ``LD`` hop's
        address and servicing cache level) onto ``recorder``, a
        :class:`~repro.widx.trail.TrailRecorder`."""
        self.trail = recorder

    def configure(self, values: dict) -> None:
        """Write configuration registers (the memory-mapped config path)."""
        for index, value in values.items():
            if not 1 <= index < NUM_REGISTERS:
                raise WidxFault(f"{self.name}: cannot configure r{index}")
            self.regs[index] = value & _M64

    # ------------------------------------------------------------------

    @property
    def busy_cycles(self) -> float:
        if self._start_time is None or self._end_time is None:
            return 0.0
        return self._end_time - self._start_time

    def run(self) -> Generator:
        """The unit's process: generator for the discrete-event engine.

        The generator lives for the unit's whole lifetime, so locals bound
        here amortize over every invocation of the dispatch loop.
        """
        engine = self.engine
        self._start_time = engine.now
        tracer = self.tracer
        stats = self.stats
        try:
            if self.in_queue is None:
                # Autonomous unit (dispatcher / coupled walker): a single
                # invocation whose program iterates over its work itself.
                stats.invocations.value += 1
                if tracer is not None:
                    tracer.begin(self.track, "invoke", engine.now)
                yield from self._invoke()
                if tracer is not None:
                    tracer.end(self.track, "invoke", engine.now)
            else:
                in_queue = self.in_queue
                cycles = stats.cycles
                invocations = stats.invocations
                load_inputs = self._load_inputs
                invoke = self._invoke
                trail = self.trail
                name = self.name
                while True:
                    waited_from = engine.now
                    item = yield in_queue.get()
                    cycles.idle += engine.now - waited_from
                    if item is QUEUE_CLOSED:
                        break
                    self.current_item = item
                    self.invocation_emits = 0
                    load_inputs(item)
                    invocations.value += 1
                    if tracer is not None:
                        tracer.begin(self.track, "invoke", engine.now)
                    if trail is not None:
                        trail.start(name, item, engine.now)
                    yield from invoke()
                    if trail is not None:
                        trail.commit(name, engine.now)
                    if tracer is not None:
                        tracer.end(self.track, "invoke", engine.now)
                    self.current_item = None
        finally:
            self._end_time = self.engine.now

    def _load_inputs(self, item: Tuple[int, ...]) -> None:
        indexes = self._input_indexes
        if len(item) != len(indexes):
            raise WidxFault(
                f"{self.name}: got {len(item)} queue operands, program "
                f"expects {len(indexes)}")
        regs = self.regs
        for register, value in zip(indexes, item):
            regs[register] = value & _M64
        regs[0] = 0

    # ------------------------------------------------------------------

    def _invoke(self) -> Generator:
        # Interpreter hot loop over the memoized decoded program (see
        # repro.widx.decode): int-kind dispatch, pre-resolved operands,
        # direct slot-attribute cycle accounting.  Instruction counts
        # accumulate in a local and flush to the counter before every
        # suspension point and on exit, so externally observable counts at
        # every yield and on exception propagation match a per-instruction
        # increment exactly.
        regs = self.regs
        ops = self._decoded
        stats = self.stats
        cycles = stats.cycles
        engine = self.engine
        hierarchy = self.hierarchy
        physmem = self.physmem
        instructions = stats.instructions
        trail = self.trail
        unit_name = self.name
        pc = 0
        pending = 1.0  # one cycle to dequeue/start the invocation
        program_len = len(ops)
        executed = 0

        try:
            while pc < program_len:
                kind, rd, ra, rb, imm, bconst, width, target, sources = \
                    ops[pc]
                executed += 1

                if kind == K_LD:
                    instructions.value += executed
                    executed = 0
                    if pending:
                        yield pending
                        cycles.comp += pending
                        pending = 0.0
                    addr = (regs[ra] + imm) & _M64
                    now = engine.now
                    result = hierarchy.load(addr, now)
                    if trail is not None:
                        trail.hop(unit_name, addr, result.level, now)
                    value = physmem.read(addr, width)
                    wait = result.complete - now
                    cycles.comp += 1.0
                    stall = max(0.0, wait - 1.0)
                    tlb_part = min(result.tlb_stall, stall)
                    cycles.tlb += tlb_part
                    cycles.mem += stall - tlb_part
                    if wait > 0:
                        yield wait
                    if rd != 0:
                        regs[rd] = value
                    stats.loads.value += 1
                    pc += 1

                elif kind >= K_ALU_FIRST:
                    a = regs[ra]
                    b = regs[rb] if rb >= 0 else bconst
                    if kind == K_ADD:
                        value = (a + b) & _M64
                    elif kind == K_AND:
                        value = a & b
                    elif kind == K_XOR:
                        value = a ^ b
                    elif kind == K_CMP:
                        value = 1 if a == b else 0
                    elif kind == K_CMP_LE:
                        value = 1 if a <= b else 0
                    elif kind == K_SHL:
                        value = (a << imm) & _M64
                    elif kind == K_SHR:
                        value = a >> imm
                    else:  # fused shift ops
                        shifted = ((b << imm) & _M64 if imm >= 0
                                   else b >> -imm)
                        if kind == K_ADD_SHF:
                            value = (a + shifted) & _M64
                        elif kind == K_AND_SHF:
                            value = a & shifted
                        else:
                            value = a ^ shifted
                    if rd != 0:
                        regs[rd] = value
                    pending += 1.0
                    pc += 1

                elif kind == K_BLE:
                    pending += 1.0
                    if regs[ra] <= regs[rb]:
                        pc = target
                    else:
                        pc += 1

                elif kind == K_BA:
                    # Branch address calculation happens in the first
                    # pipeline stage (the design's critical path — Section
                    # 4.1), so taken branches do not bubble.
                    pending += 1.0
                    pc = target

                elif kind == K_EMIT:
                    out_queue = self.out_queue
                    if out_queue is None:
                        raise WidxFault(
                            f"{self.name}: EMIT with no output queue")
                    instructions.value += executed
                    executed = 0
                    if pending:
                        yield pending
                        cycles.comp += pending
                        pending = 0.0
                    values = tuple(regs[i] for i in sources)
                    waited_from = engine.now
                    # Count the emit before the put suspends: once put()
                    # runs, the value is committed to the queue (a parked
                    # put still delivers), so a fault landing during the
                    # wait must not treat this invocation as salvageable.
                    self.invocation_emits += 1
                    yield out_queue.put(values)
                    cycles.queue += engine.now - waited_from
                    pending = 1.0
                    stats.emitted.value += 1
                    pc += 1

                elif kind == K_TOUCH:
                    addr = (regs[ra] + imm) & _M64
                    hierarchy.touch(addr, engine.now + pending)
                    stats.touches.value += 1
                    pending += 1.0
                    pc += 1

                elif kind == K_ST:
                    addr = (regs[ra] + imm) & _M64
                    physmem.write(addr, width, regs[rb])
                    hierarchy.store(addr, engine.now + pending)
                    stats.stores.value += 1
                    pending += 1.0
                    pc += 1

                else:  # K_HALT: fall-through return; next dequeue pays
                    break

            if pending:
                instructions.value += executed
                executed = 0
                yield pending
                cycles.comp += pending
        finally:
            if executed:
                instructions.value += executed

    # ------------------------------------------------------------------

    @staticmethod
    def _alu(ins: Instruction, regs: List[int]) -> None:
        a = regs[ins.ra.index]
        if ins.rb is not None:
            b = regs[ins.rb.index]
        elif ins.imm is not None:
            b = ins.imm & _M64
        else:
            b = 0
        op = ins.opcode
        if op is Opcode.ADD:
            value = (a + b) & _M64
        elif op is Opcode.AND:
            value = a & b
        elif op is Opcode.XOR:
            value = a ^ b
        elif op is Opcode.CMP:
            value = 1 if a == b else 0
        elif op is Opcode.CMP_LE:
            value = 1 if a <= b else 0
        elif op is Opcode.SHL:
            value = (a << ins.imm) & _M64
        elif op is Opcode.SHR:
            value = a >> ins.imm
        elif op in (Opcode.ADD_SHF, Opcode.AND_SHF, Opcode.XOR_SHF):
            shift = ins.imm
            shifted = (b << shift) & _M64 if shift >= 0 else b >> -shift
            if op is Opcode.ADD_SHF:
                value = (a + shifted) & _M64
            elif op is Opcode.AND_SHF:
                value = a & shifted
            else:
                value = a ^ shifted
        else:  # pragma: no cover - dispatch covers every opcode
            raise WidxFault(f"unhandled opcode {op}")
        if ins.rd.index != 0:
            regs[ins.rd.index] = value
