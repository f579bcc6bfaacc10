"""Result-table formatting for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures; these
helpers print the rows/series in a consistent, paper-style layout and can
persist them as CSV files under ``results/``.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping


@dataclass
class ResultTable:
    """An ordered collection of result rows with a title (one per experiment)."""

    title: str
    rows: list[dict[str, Any]] = field(default_factory=list)

    def add_row(self, row: Mapping[str, Any]) -> None:
        self.rows.append(dict(row))

    def add_rows(self, rows: Iterable[Mapping[str, Any]]) -> None:
        for row in rows:
            self.add_row(row)

    @property
    def columns(self) -> list[str]:
        columns: list[str] = []
        for row in self.rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
        return columns

    def to_string(self, float_format: str = "{:.4g}") -> str:
        """Render as an aligned text table (the form printed by benchmarks)."""
        columns = self.columns
        if not columns:
            return f"== {self.title} ==\n(no rows)"

        def fmt(value: Any) -> str:
            if isinstance(value, float):
                return float_format.format(value)
            return str(value)

        rendered = [[fmt(row.get(col, "")) for col in columns] for row in self.rows]
        widths = [
            max(len(col), *(len(line[i]) for line in rendered)) if rendered else len(col)
            for i, col in enumerate(columns)
        ]
        header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
        divider = "-" * len(header)
        body = "\n".join(
            "  ".join(line[i].ljust(widths[i]) for i in range(len(columns))) for line in rendered
        )
        return f"== {self.title} ==\n{header}\n{divider}\n{body}"

    def print(self) -> None:
        print()
        print(self.to_string())

    def save_csv(self, path: str | Path) -> Path:
        """Write the table to ``path`` as CSV (creating parent directories)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=self.columns)
            writer.writeheader()
            for row in self.rows:
                writer.writerow(row)
        return path

    def save_json(self, path: str | Path) -> Path:
        """Write the table as a JSON document (title, columns, rows).

        The JSON form is what cluster sweeps persist alongside the CSV: rows
        keep native types (ints stay ints), so downstream tooling can reload a
        sweep without re-parsing strings.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"title": self.title, "columns": self.columns, "rows": self.rows}
        path.write_text(json.dumps(payload, indent=2) + "\n")
        return path


def default_results_dir() -> Path:
    """Directory where benchmarks persist their CSV outputs."""
    return Path(__file__).resolve().parents[3] / "results"
