"""Plain-text reports mirroring the paper's tables and figure series."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence


@dataclass
class Report:
    """A titled table of rows, with free-form notes."""

    title: str
    columns: Sequence[str]
    rows: List[Sequence[Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, *values: Any) -> None:
        """Append a row (arity-checked against the columns)."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"report {self.title!r}: row has {len(values)} values, "
                f"expected {len(self.columns)}")
        self.rows.append(values)

    def add_note(self, note: str) -> None:
        """Attach a free-form note printed under the table."""
        self.notes.append(note)

    def column(self, name: str) -> List[Any]:
        """All values of one column, in row order."""
        index = list(self.columns).index(name)
        return [row[index] for row in self.rows]

    def row_by(self, key_column: str, key: Any) -> Sequence[Any]:
        """The first row whose key column equals ``key``."""
        index = list(self.columns).index(key_column)
        for row in self.rows:
            if row[index] == key:
                return row
        raise KeyError(f"no row with {key_column}={key!r}")

    def cell(self, key_column: str, key: Any, value_column: str) -> Any:
        """One cell, addressed by key column and value column."""
        row = self.row_by(key_column, key)
        return row[list(self.columns).index(value_column)]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict of columns, rows and notes."""
        return {
            "title": self.title,
            "columns": list(self.columns),
            "rows": [list(row) for row in self.rows],
            "notes": list(self.notes),
        }

    def format(self) -> str:
        """Aligned plain-text rendering of the table."""
        def text(value: Any) -> str:
            if isinstance(value, float):
                return f"{value:.3f}" if abs(value) < 1000 else f"{value:.1f}"
            return str(value)

        header = [str(c) for c in self.columns]
        body = [[text(v) for v in row] for row in self.rows]
        widths = [len(h) for h in header]
        for row in body:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))

        def line(cells: Sequence[str]) -> str:
            return "  ".join(cell.rjust(width)
                             for cell, width in zip(cells, widths))

        parts = [f"== {self.title} ==", line(header),
                 line(["-" * w for w in widths])]
        parts.extend(line(row) for row in body)
        for note in self.notes:
            parts.append(f"note: {note}")
        return "\n".join(parts)

    def __str__(self) -> str:
        return self.format()


def failure_report(failures: Sequence[Any]) -> Report:
    """The campaign failure manifest as a printable table.

    ``failures`` is a sequence of
    :class:`~repro.harness.campaign.PointFailure` (duck-typed to avoid an
    import cycle).  Rendered by the CLI after a degraded campaign so the
    reader sees exactly which points are missing from the figures and why.
    """
    report = Report(
        title="Campaign failures",
        columns=("point", "kind", "attempts", "detail"))
    for failure in failures:
        report.add_row("/".join(str(part) for part
                                in failure.point.cache_tuple()),
                       failure.kind, failure.attempts, failure.detail)
    report.add_note("failed points are excluded from the figure reports; "
                    "re-running the same command retries them")
    return report
