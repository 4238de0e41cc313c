"""Result tables for the experiment harness.

Each benchmark prints one :class:`Table` whose rows are the series the
paper's claims predict; EXPERIMENTS.md embeds the same rendering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence


@dataclass
class Table:
    """A fixed-column result table with aligned text rendering."""

    title: str
    columns: Sequence[str]
    rows: List[Sequence[object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, *values: object) -> None:
        """Append one row; must match the column count."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values for "
                f"{len(self.columns)} columns")
        self.rows.append(values)

    def note(self, text: str) -> None:
        """Attach a footnote shown under the table."""
        self.notes.append(text)

    def _cell(self, value: object) -> str:
        if isinstance(value, float):
            if value == 0:
                return "0"
            if abs(value) >= 1000:
                return f"{value:,.0f}"
            if abs(value) >= 10:
                return f"{value:.1f}"
            return f"{value:.3f}"
        return str(value)

    def render(self) -> str:
        """Aligned plain-text rendering."""
        cells = [[self._cell(v) for v in row] for row in self.rows]
        widths = [max([len(str(c))] + [len(row[i]) for row in cells])
                  for i, c in enumerate(self.columns)]
        lines = [f"== {self.title} =="]
        header = "  ".join(str(c).ljust(w)
                           for c, w in zip(self.columns, widths))
        lines.append(header)
        lines.append("  ".join("-" * w for w in widths))
        for row in cells:
            lines.append("  ".join(v.ljust(w)
                                   for v, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def render_markdown(self) -> str:
        """GitHub-flavoured markdown rendering (for EXPERIMENTS.md)."""
        lines = [f"**{self.title}**", ""]
        lines.append("| " + " | ".join(map(str, self.columns)) + " |")
        lines.append("|" + "|".join("---" for _ in self.columns) + "|")
        for row in self.rows:
            lines.append("| " + " | ".join(self._cell(v) for v in row)
                         + " |")
        for note in self.notes:
            lines.append(f"\n*{note}*")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()
