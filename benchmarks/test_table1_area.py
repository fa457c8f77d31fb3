"""Benchmarks: Table 1 (the Widx ISA and its per-unit usage) and the
Section 6.3 area/power numbers."""

from benchmarks.conftest import run_once
from repro.db.hashfn import ROBUST_HASH_64
from repro.db.node import KERNEL_LAYOUT, MONETDB_LAYOUT
from repro.harness.fig11 import run_area
from repro.harness.report import Report
from repro.widx.isa import Opcode, UNIT_USAGE
from repro.widx.programs import (dispatcher_program, producer_program,
                                 walker_program)


def build_table1_report() -> Report:
    """Table 1 as reported: each instruction and the units that use it,
    cross-checked against the generated production programs."""
    report = Report("Table 1: Widx ISA (H = dispatcher, W = walker, "
                    "P = producer)",
                    columns=["instruction", "H", "W", "P", "seen_in_programs"])
    programs = {
        "H": dispatcher_program(ROBUST_HASH_64, KERNEL_LAYOUT).program,
        "W": walker_program(MONETDB_LAYOUT).program,
        "P": producer_program().program,
    }
    for opcode in Opcode:
        if opcode in (Opcode.EMIT, Opcode.HALT):
            continue  # modelling additions, not Table 1 rows
        allowed = UNIT_USAGE[opcode]
        seen = "".join(sorted(role for role, program in programs.items()
                              if program.uses_opcode(opcode)))
        report.add_row(opcode.value.upper(),
                       "X" if "H" in allowed else "",
                       "X" if "W" in allowed else "",
                       "X" if "P" in allowed else "",
                       seen or "-")
    return report


def test_table1(benchmark, record):
    report = run_once(benchmark, build_table1_report)
    record(report, "table1")
    rows = {row[0]: row for row in report.rows}
    # ST is producer-only and the producer actually uses it.
    assert rows["ST"][1:4] == ("", "", "X")
    assert "P" in rows["ST"][4]
    # Fused shift-ops drive hashing; the generated dispatcher uses them.
    assert "H" in rows["ADD-SHF"][4] or "H" in rows["XOR-SHF"][4]
    # Every generated program stays inside its Table 1 column (the
    # assembler enforces this; reaching here means it held).
    assert len(report.rows) == 15


def test_area(benchmark, record):
    report = run_once(benchmark, run_area)
    record(report, "area")
    unit_row = [r for r in report.rows if r[0].startswith("Widx unit")][0]
    complex_row = [r for r in report.rows if "complex" in r[0]][0]
    a8_row = [r for r in report.rows if "A8" in r[0]][0]
    # Paper: 0.039 mm2 / 53 mW per unit; 0.24 mm2 / 320 mW for six units;
    # 18% of a Cortex-A8.
    assert unit_row[1] == 0.039 and unit_row[2] == 0.053
    assert abs(complex_row[1] - 0.234) < 0.01
    assert abs(complex_row[2] - 0.318) < 0.01
    assert abs(complex_row[1] / a8_row[1] - 0.18) < 0.02
