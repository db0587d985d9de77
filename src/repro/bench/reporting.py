"""Result tables: aligned console output."""

from __future__ import annotations

import io


class ResultTable:
    """A small column-aligned table builder used by every benchmark."""

    def __init__(self, title: str, columns: list[str]) -> None:
        self.title = title
        self.columns = list(columns)
        self.rows: list[list[str]] = []

    def add_row(self, *values: object) -> None:
        """Append one row (arity-checked)."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values, table has "
                f"{len(self.columns)} columns")
        self.rows.append([self._render(value) for value in values])

    @staticmethod
    def _render(value: object) -> str:
        if isinstance(value, float):
            if value == 0:
                return "0"
            if abs(value) >= 1000:
                return f"{value:,.1f}"
            if abs(value) >= 1:
                return f"{value:.3f}"
            return f"{value:.5f}"
        return str(value)

    def to_text(self) -> str:
        """Column-aligned console rendering."""
        widths = [len(name) for name in self.columns]
        for row in self.rows:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))
        out = io.StringIO()
        out.write(f"== {self.title} ==\n")
        header = "  ".join(name.ljust(widths[index])
                           for index, name in enumerate(self.columns))
        out.write(header + "\n")
        out.write("  ".join("-" * width for width in widths) + "\n")
        for row in self.rows:
            out.write("  ".join(cell.ljust(widths[index])
                                for index, cell in enumerate(row)) + "\n")
        return out.getvalue()

    def print(self) -> None:
        """Print the text rendering to stdout."""
        print(self.to_text())
