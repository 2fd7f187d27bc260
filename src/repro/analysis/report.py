"""ASCII result tables mirroring the paper's tables and figure series."""

from __future__ import annotations

import os
from typing import List, Optional, Sequence


def format_markdown_table(headers: Sequence[str],
                          rows: Sequence[Sequence[object]]) -> str:
    """Render a GitHub-flavoured markdown table (used by run reports)."""
    def cell(value: object) -> str:
        return str(value).replace("|", "\\|")

    lines = ["| " + " | ".join(cell(h) for h in headers) + " |",
             "| " + " | ".join("---" for _ in headers) + " |"]
    for row in rows:
        lines.append("| " + " | ".join(cell(c) for c in row) + " |")
    return "\n".join(lines)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 title: Optional[str] = None) -> str:
    """Render an aligned ASCII table."""
    columns = [[str(h)] + [str(row[i]) for row in rows]
               for i, h in enumerate(headers)]
    widths = [max(len(cell) for cell in col) for col in columns]
    lines: List[str] = []
    if title:
        lines.append(title)
    header_line = " | ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("-+-".join("-" * w for w in widths))
    for row in rows:
        lines.append(" | ".join(str(cell).ljust(w)
                                for cell, w in zip(row, widths)))
    return "\n".join(lines)


class ResultTable:
    """Collects experiment rows, prints them, and persists them.

    Benches emit one ResultTable per paper table/figure; the rendered
    table goes to stdout (visible under ``pytest -s``) and to
    ``<output_dir>/<name>.txt`` so results survive capture.
    """

    def __init__(self, name: str, headers: Sequence[str],
                 title: Optional[str] = None,
                 output_dir: str = "benchmarks/results") -> None:
        self.name = name
        self.headers = list(headers)
        self.title = title or name
        self.output_dir = output_dir
        self.rows: List[List[object]] = []

    def add(self, *cells: object) -> None:
        if len(cells) != len(self.headers):
            raise ValueError(
                f"row has {len(cells)} cells, table has {len(self.headers)} columns")
        self.rows.append(list(cells))

    def render(self) -> str:
        return format_table(self.headers, self.rows, title=self.title)

    def emit(self) -> str:
        """Print and persist the table; returns the rendered text."""
        text = self.render()
        print("\n" + text + "\n")
        os.makedirs(self.output_dir, exist_ok=True)
        path = os.path.join(self.output_dir, f"{self.name}.txt")
        with open(path, "w") as handle:
            handle.write(text + "\n")
        return text
