"""Tests for the schema-driven Widx program generators."""

from repro.db.hashfn import KERNEL_HASH, ROBUST_HASH_32, ROBUST_HASH_64
from repro.db.node import KERNEL_LAYOUT, MONETDB_LAYOUT, WIDE_LAYOUT
from repro.widx.isa import Opcode
from repro.widx.programs import (coupled_walker_program, dispatcher_program,
                                 producer_program, walker_program)


class TestDispatcherProgram:
    def test_assembles_for_every_hash(self):
        for spec in (KERNEL_HASH, ROBUST_HASH_32, ROBUST_HASH_64):
            generated = dispatcher_program(spec, KERNEL_LAYOUT)
            assert str(generated.program.role) == "dispatcher"

    def test_uses_fused_shift_ops_for_robust_hash(self):
        generated = dispatcher_program(ROBUST_HASH_32, KERNEL_LAYOUT)
        histogram = generated.program.opcode_histogram()
        assert histogram.get("add-shf", 0) + histogram.get("xor-shf", 0) >= 6

    def test_touch_prefetch_optional(self):
        with_touch = dispatcher_program(KERNEL_HASH, KERNEL_LAYOUT)
        without = dispatcher_program(KERNEL_HASH, KERNEL_LAYOUT,
                                     touch_ahead=False)
        assert with_touch.program.uses_opcode(Opcode.TOUCH)
        assert not without.program.uses_opcode(Opcode.TOUCH)

    def test_stride_scales_cursor_step(self):
        single = dispatcher_program(KERNEL_HASH, KERNEL_LAYOUT, stride_keys=1)
        strided = dispatcher_program(KERNEL_HASH, KERNEL_LAYOUT, stride_keys=4)
        step = lambda g: [i.imm for i in g.program.instructions
                          if i.opcode is Opcode.ADD and i.rd and
                          i.rd.index == 1][0]
        assert step(single) == 4      # 4-byte keys
        assert step(strided) == 16    # 4 keys ahead

    def test_config_registers_declared(self):
        generated = dispatcher_program(KERNEL_HASH, KERNEL_LAYOUT)
        assert set(generated.config_registers) == {
            "key_cursor", "key_count", "bucket_base", "bucket_mask"}

    def test_hash_constants_preloaded(self):
        generated = dispatcher_program(KERNEL_HASH, KERNEL_LAYOUT)
        # Listing 1's MASK and HPRIME live in constant registers.
        values = set(generated.program.constants.values())
        assert 0xB16 in values


class TestWalkerProgram:
    def test_direct_walker_has_no_base_column_config(self):
        generated = walker_program(KERNEL_LAYOUT)
        assert generated.config_registers == {}

    def test_indirect_walker_needs_base_column(self):
        generated = walker_program(MONETDB_LAYOUT)
        assert "column_base" in generated.config_registers
        # Indirect walk computes the key address with a fused shift-add.
        assert generated.program.uses_opcode(Opcode.ADD_SHF)

    def test_indirect_walker_is_longer(self):
        direct = walker_program(KERNEL_LAYOUT)
        indirect = walker_program(MONETDB_LAYOUT)
        assert len(indirect.program) > len(direct.program)

    def test_wide_layout_uses_8_byte_loads(self):
        generated = walker_program(WIDE_LAYOUT)
        loads = [i for i in generated.program.instructions
                 if i.opcode is Opcode.LD]
        assert any(l.width == 8 for l in loads)

    def test_walker_never_stores(self):
        for layout in (KERNEL_LAYOUT, MONETDB_LAYOUT, WIDE_LAYOUT):
            generated = walker_program(layout)
            assert not generated.program.uses_opcode(Opcode.ST)


class TestProducerProgram:
    def test_producer_stores_and_bumps_cursor(self):
        generated = producer_program(8)
        assert generated.program.uses_opcode(Opcode.ST)
        assert generated.config_registers == {"out_cursor": 9}

    def test_producer_is_tiny(self):
        # The output function is trivially small (Section 4.2).
        assert len(producer_program(8).program) <= 4


class TestCoupledWalkerProgram:
    def test_assembles_for_direct_and_indirect(self):
        for layout in (KERNEL_LAYOUT, MONETDB_LAYOUT):
            generated = coupled_walker_program(ROBUST_HASH_32, layout,
                                               stride_keys=2)
            assert str(generated.program.role) == "walker"

    def test_contains_both_hash_and_walk(self):
        generated = coupled_walker_program(ROBUST_HASH_32, KERNEL_LAYOUT)
        histogram = generated.program.opcode_histogram()
        assert histogram.get("xor-shf", 0) >= 1     # hashing inline
        assert histogram.get("ld", 0) >= 3          # key + walk loads

    def test_register_plan_avoids_walk_scratch(self):
        generated = coupled_walker_program(ROBUST_HASH_32, KERNEL_LAYOUT)
        config_regs = set(generated.config_registers.values())
        assert config_regs.isdisjoint({3, 4, 5, 6})


def test_all_generated_programs_fit_register_budget():
    # The paper notes functions exceeding the register file cannot map;
    # all our schemas must fit.
    for layout in (KERNEL_LAYOUT, MONETDB_LAYOUT, WIDE_LAYOUT):
        for spec in (KERNEL_HASH, ROBUST_HASH_32, ROBUST_HASH_64):
            dispatcher_program(spec, layout)
            coupled_walker_program(spec, layout)
        walker_program(layout)
    producer_program(8)
