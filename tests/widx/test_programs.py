"""Tests for the schema-driven Widx program generators."""

import functools
import zlib

import pytest

from repro.db.hashfn import (KERNEL_HASH, ROBUST_HASH_32, ROBUST_HASH_64,
                             kernel_hash)
from repro.db.node import (KERNEL_LAYOUT, MONETDB_LAYOUT, WIDE_LAYOUT,
                           monetdb_layout)
from repro.widx.isa import Opcode
from repro.widx.programs import (
    batched_tree_walker_program, coupled_walker_program, dispatcher_program,
    key_dispatcher_program, producer_program, range_dispatcher_program,
    tree_dispatcher_program, tree_range_walker_program, tree_walker_program,
    trie_range_dispatcher_program, trie_range_walker_program,
    trie_walker_program, walker_program, wormhole_range_walker_program,
    wormhole_walker_program)


class TestDispatcherProgram:
    def test_assembles_for_every_hash(self):
        for spec in (KERNEL_HASH, ROBUST_HASH_32, ROBUST_HASH_64):
            generated = dispatcher_program(spec, KERNEL_LAYOUT)
            assert str(generated.program.role) == "dispatcher"

    def test_uses_fused_shift_ops_for_robust_hash(self):
        generated = dispatcher_program(ROBUST_HASH_32, KERNEL_LAYOUT)
        histogram = generated.program.opcode_histogram()
        assert histogram.get("add-shf", 0) + histogram.get("xor-shf", 0) >= 6

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
        generated = producer_program()
        assert generated.program.uses_opcode(Opcode.ST)
        assert generated.config_registers == {"out_cursor": 9}

    def test_producer_is_tiny(self):
        # The output function is trivially small (Section 4.2).
        assert len(producer_program().program) <= 4


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
    producer_program()


# ----------------------------------------------------------------------
# Source pins: every generator's exact text over the argument grid the
# offload drivers use.  An extra or reordered instruction changes cycle
# counts, so any drift in a generated program must show up here.
# ----------------------------------------------------------------------

_LAYOUTS = (KERNEL_LAYOUT, MONETDB_LAYOUT, WIDE_LAYOUT, monetdb_layout(8))
_HASHES = (KERNEL_HASH, kernel_hash(12), ROBUST_HASH_32, ROBUST_HASH_64)
#: Walker-resident hashing compiles only shift/fused steps.
_FUSED_HASHES = (ROBUST_HASH_32, ROBUST_HASH_64)
_STRIDES = (1, 2, 3, 4)
_KEY_WIDTHS = (4, 8)


def _program_grid():
    """``{generator: [program, ...]}`` over the pinned argument grid."""
    return {
        "dispatcher": [dispatcher_program(spec, layout, stride_keys=stride)
                       for layout in _LAYOUTS for spec in _HASHES
                       for stride in _STRIDES],
        "walker": [walker_program(layout) for layout in _LAYOUTS],
        "producer": [producer_program()],
        "coupled_walker": [
            coupled_walker_program(spec, layout, stride_keys=stride)
            for layout in _LAYOUTS for spec in _HASHES
            for stride in _STRIDES],
        "tree_dispatcher": [tree_dispatcher_program(width, stride_keys=stride)
                            for width in _KEY_WIDTHS for stride in _STRIDES],
        "tree_walker": [tree_walker_program()],
        "range_dispatcher": [range_dispatcher_program()],
        "tree_range_walker": [tree_range_walker_program()],
        "key_dispatcher": [key_dispatcher_program(width, stride_keys=stride)
                           for width in _KEY_WIDTHS for stride in _STRIDES],
        "trie_walker": [trie_walker_program(spec) for spec in _FUSED_HASHES],
        "trie_range_dispatcher": [trie_range_dispatcher_program()],
        "trie_range_walker": [trie_range_walker_program()],
        "wormhole_walker": [wormhole_walker_program(spec)
                            for spec in _FUSED_HASHES],
        "wormhole_range_walker": [wormhole_range_walker_program(spec)
                                  for spec in _FUSED_HASHES],
        "batched_tree_walker": [
            batched_tree_walker_program(batch, stride_batches=stride)
            for batch in (2, 3, 4) for stride in _STRIDES],
    }


@functools.lru_cache(maxsize=None)
def family_crcs():
    """CRC32 of each generator's sources, joined in grid order."""
    return {family: zlib.crc32("\0".join(
                generated.source for generated in programs).encode())
            for family, programs in _program_grid().items()}


PINNED_SOURCES = {
    "dispatcher": 0x9f81b5a2,
    "walker": 0x29861b04,
    "producer": 0x59c0b413,
    "coupled_walker": 0x23714a48,
    "tree_dispatcher": 0x2279af54,
    "tree_walker": 0x33e401b5,
    "range_dispatcher": 0xaa271491,
    "tree_range_walker": 0xb9370236,
    "key_dispatcher": 0xc2c4741d,
    "trie_walker": 0xa193e7e4,
    "trie_range_dispatcher": 0x3b271ad4,
    "trie_range_walker": 0x006b4139,
    "wormhole_walker": 0x7798b7ec,
    "wormhole_range_walker": 0x5a02274e,
    "batched_tree_walker": 0x9a4414a1,
}


@pytest.mark.parametrize("family", sorted(PINNED_SOURCES))
def test_generated_source_pinned(family):
    assert family_crcs()[family] == PINNED_SOURCES[family]


def test_every_generator_pinned():
    assert set(family_crcs()) == set(PINNED_SOURCES)
