"""Tests for the physical operators."""

import pytest

from repro.db.column import Column
from repro.db.datagen import build_pair_tables
from repro.db.operators.aggregate import aggregate_table
from repro.db.operators.hashjoin import hash_join, reference_join
from repro.db.operators.scan import Predicate, apply_predicate
from repro.db.operators.sort import sort_table
from repro.db.operators.sortmerge import sort_merge_cycles, sort_merge_join
from repro.db.table import Table
from repro.db.types import DataType
from repro.errors import PlanError
from repro.mem.layout import AddressSpace


def small_table():
    return Table("t", [
        Column("a", DataType.U32, [5, 1, 9, 3]),
        Column("b", DataType.U32, [10, 20, 30, 40]),
    ])


class TestScan:
    def test_each_operator(self):
        table = small_table()
        cases = {"<": [1, 3], "<=": [5, 1, 3], ">": [9], ">=": [5, 9],
                 "==": [5], "!=": [1, 9, 3]}
        for op, expected in cases.items():
            result = apply_predicate(table, Predicate("a", op, 5))
            assert result.column("a").values.tolist() == expected

    def test_unknown_operator_rejected(self):
        with pytest.raises(PlanError):
            Predicate("a", "~", 5)

    def test_selection_keeps_all_columns_aligned(self):
        result = apply_predicate(small_table(), Predicate("a", ">", 2))
        assert result.column("b").values.tolist() == [10, 30, 40]


class TestHashJoin:
    def test_matches_reference_join(self):
        build, probe = build_pair_tables(800, 2400, match_fraction=0.75,
                                         seed=5)
        result = hash_join(AddressSpace(), build, probe, "age", "age",
                           payload_column="id")
        got = sorted(zip(result.table.column("probe_row").values.tolist(),
                         result.table.column("payload").values.tolist()))
        assert got == reference_join(build, probe, "age", "age", "id")

    def test_match_rate_tracks_fraction(self):
        build, probe = build_pair_tables(500, 4000, match_fraction=0.5,
                                         seed=6)
        result = hash_join(AddressSpace(), build, probe, "age", "age")
        assert 0.4 < result.match_rate < 0.6

    def test_indirect_join_equivalent_to_direct(self):
        build, probe = build_pair_tables(600, 1200, seed=7)
        space_a, space_b = AddressSpace(), AddressSpace()
        direct = hash_join(space_a, build, probe, "age", "age")
        indirect = hash_join(space_b, build, probe, "age", "age",
                             indirect=True)
        as_pairs = lambda r: sorted(zip(
            r.table.column("probe_row").values.tolist(),
            r.table.column("payload").values.tolist()))
        assert as_pairs(direct) == as_pairs(indirect)

    def test_nodes_visited_counted(self):
        build, probe = build_pair_tables(300, 900, seed=8)
        result = hash_join(AddressSpace(), build, probe, "age", "age")
        assert result.nodes_visited >= result.matches

    def test_duplicate_build_keys_emit_cross_product(self):
        build = Table("b", [Column("k", DataType.U32, [7, 7, 8]),
                            Column("id", DataType.U32, [1, 2, 3])])
        probe = Table("p", [Column("k", DataType.U32, [7])])
        result = hash_join(AddressSpace(), build, probe, "k", "k",
                           payload_column="id")
        assert sorted(result.table.column("payload").values.tolist()) == [1, 2]


class TestSortMerge:
    def test_agrees_with_hash_join(self):
        build, probe = build_pair_tables(400, 1600, match_fraction=0.6,
                                         seed=9)
        smj = sort_merge_join(build, probe, "age", "age", "id")
        ref = reference_join(build, probe, "age", "age", "id")
        assert smj == ref

    def test_handles_duplicates_on_both_sides(self):
        build = Table("b", [Column("k", DataType.U32, [5, 5]),
                            Column("id", DataType.U32, [1, 2])])
        probe = Table("p", [Column("k", DataType.U32, [5, 5, 6])])
        pairs = sort_merge_join(build, probe, "k", "k", "id")
        assert pairs == [(0, 1), (0, 2), (1, 1), (1, 2)]

    def test_cost_model_nlogn_shape(self):
        small = sort_merge_cycles(1000, 1000)
        big = sort_merge_cycles(4000, 4000)
        assert big > 4 * small  # superlinear


class TestSortAggregate:
    def test_sort_ascending_descending(self):
        table = small_table()
        asc = sort_table(table, "a")
        assert asc.column("a").values.tolist() == [1, 3, 5, 9]
        assert asc.column("b").values.tolist() == [20, 40, 10, 30]
        desc = sort_table(table, "a", descending=True)
        assert desc.column("a").values.tolist() == [9, 5, 3, 1]

    def test_aggregates(self):
        table = small_table()
        out = aggregate_table(table, {"s": "sum:a", "m": "max:b",
                                      "n": "count:*", "lo": "min:a",
                                      "avg": "mean:a"})
        assert out == {"s": 18.0, "m": 40.0, "n": 4.0, "lo": 1.0,
                       "avg": 4.5}

    def test_aggregate_empty_table(self):
        table = Table("e", [Column("a", DataType.U32, [])])
        assert aggregate_table(table, {"s": "sum:a"}) == {"s": 0.0}

    def test_bad_aggregate_specs(self):
        table = small_table()
        with pytest.raises(PlanError):
            aggregate_table(table, {"x": "nope:a"})
        with pytest.raises(PlanError):
            aggregate_table(table, {"x": "malformed"})
