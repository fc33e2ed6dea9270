"""Tabular pass/fail reports for the verification commands."""

from __future__ import annotations

import sys


class VerificationReport:
    """Rows of value cells, each ending in a match flag, under named columns.

    The last column names the flag. :meth:`emit` prints the table as CSV
    (the flag as ``yes``/``no``) to stdout and ``k/n rows match`` to stderr.
    """

    def __init__(self, columns):
        self.columns = tuple(columns)
        self.rows: list[tuple[tuple[str, ...], bool]] = []

    def add(self, cells, match) -> None:
        self.rows.append((tuple(str(c) for c in cells), bool(match)))

    @property
    def total(self) -> int:
        return len(self.rows)

    @property
    def all_match(self) -> bool:
        return all(ok for _, ok in self.rows)

    def emit(self) -> int:
        """Print the table and its summary; exit status 0 if every row matched."""
        lines = [",".join(self.columns)]
        for cells, ok in self.rows:
            lines.append(",".join((*cells, "yes" if ok else "no")))
        print("\n".join(lines))
        matches = sum(ok for _, ok in self.rows)
        print(f"{matches}/{self.total} rows match", file=sys.stderr)
        return 0 if matches == self.total else 1
