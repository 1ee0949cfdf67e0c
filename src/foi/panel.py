"""Country-by-indicator panels: CSV ingestion, validation, serialization.

A panel stores one epoch of raw values as a float grid with ``nan``
marking missing cells. CSV columns are reordered to follow the manifest,
so two files with permuted columns load to identical panels.
"""

from __future__ import annotations

import csv
import math
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from .errors import DuplicateCountryError, PanelParseError, SchemaError
from .manifest import IndicatorManifest

@dataclass(frozen=True)
class IndicatorPanel:
    """Raw values for one epoch.

    ``values[i, j]`` is the value of indicator ``indicators[j]`` for
    country ``countries[i]``; ``nan`` means missing.
    """

    epoch: int
    countries: tuple[str, ...]
    indicators: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "countries", tuple(self.countries))
        object.__setattr__(self, "indicators", tuple(self.indicators))
        grid = np.array(self.values, dtype=float)
        grid.setflags(write=False)
        object.__setattr__(self, "values", grid)
        if len(set(self.countries)) != len(self.countries):
            raise DuplicateCountryError("duplicate country codes in panel")
        if grid.shape != (len(self.countries), len(self.indicators)):
            raise SchemaError(
                f"grid shape {grid.shape} does not match "
                f"{len(self.countries)} countries x {len(self.indicators)} indicators"
            )

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def column(self, indicator_id: str) -> np.ndarray:
        return self.values[:, self.indicators.index(indicator_id)]

    def row(self, country: str) -> np.ndarray:
        return self.values[self.countries.index(country), :]


@dataclass(frozen=True)
class ValidationReport:
    """Missingness summary for a panel. Validation reports, never fails."""

    missing_by_indicator: dict[str, int] = field(default_factory=dict)
    missing_by_country: dict[str, int] = field(default_factory=dict)
    coverage: float = 1.0
    warnings: tuple[str, ...] = ()


def _read_grid(path) -> tuple[list[str], list[str], np.ndarray]:
    """Parse a ``country,<column ids...>`` CSV into column ids, row codes
    and a float grid, with the checks listed under ``load_panel``. The
    one CSV reader of the package: ``factor.load_variable_matrix`` uses
    it too."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file") from None
        if not header or header[0].strip().lower() != "country":
            raise SchemaError(f"{path}: first header column must be 'country'")
        columns = [h.strip() for h in header[1:]]
        if len(set(columns)) != len(columns):
            raise SchemaError(f"{path}: duplicate columns")

        codes: list[str] = []
        seen: set[str] = set()
        rows: list[np.ndarray] = []
        for lineno, rec in enumerate(reader, start=1):
            if not rec or all(not c.strip() for c in rec):
                continue
            code = rec[0].strip()
            if code in seen:
                raise DuplicateCountryError(f"{path}: duplicate country row {code!r}")
            if len(rec) != len(columns) + 1:
                raise SchemaError(
                    f"{path}: row {lineno} ({code}) has {len(rec) - 1} cells, expected {len(columns)}"
                )
            cells = [c.strip() or "nan" for c in rec[1:]]
            try:
                row = np.array(cells, dtype=float)
                bad = np.flatnonzero(np.isinf(row))
            except ValueError:
                bad = [j for j, cell in enumerate(cells) if not _is_number(cell)]
            if len(bad):
                col, cell = columns[bad[0]], cells[bad[0]]
                raise PanelParseError(
                    f"{path}: row {lineno} ({code}), column {col!r}: "
                    f"cannot parse {cell!r} as a finite number",
                    row=lineno,
                    column=col,
                )
            seen.add(code)
            codes.append(code)
            rows.append(row)
    values = np.vstack(rows) if rows else np.empty((0, len(columns)))
    return columns, codes, values


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def load_panel(panel_csv, manifest: IndicatorManifest, epoch: int = 0) -> IndicatorPanel:
    """Read a ``country,<indicator ids...>`` CSV into a panel.

    Blank lines are skipped. An empty cell or the literal ``nan`` is a
    missing value. Column order in the result follows the manifest
    regardless of the file's column order.

    Raises
    ------
    SchemaError
        If the file is empty, the first header column is not
        ``country``, a column repeats or is absent from the manifest,
        or a row has the wrong number of cells.
    DuplicateCountryError
        If a country code appears twice.
    PanelParseError
        If a non-empty cell is not a finite decimal number (``inf`` and
        overflowing values like ``1e400`` included); carries the 1-based
        data row and the column name.
    """
    columns, countries, grid = _read_grid(panel_csv)
    known = set(manifest.ids)
    for col in columns:
        if col not in known:
            raise SchemaError(f"{panel_csv}: unknown indicator column {col!r}")
    # keep the file's columns, reordered to manifest order; rebinding
    # ``grid`` frees the file-order copy before the panel makes its own
    where = {col: j for j, col in enumerate(columns)}
    kept = [i for i in manifest.ids if i in where]
    grid = grid[:, [where[i] for i in kept]]
    return IndicatorPanel(epoch=epoch, countries=tuple(countries), indicators=tuple(kept), values=grid)


def write_panel(panel: IndicatorPanel, path) -> None:
    """Serialize a panel to the CSV schema ``load_panel`` reads, with
    ``\\n`` line endings; ``-`` for ``path`` means standard output."""
    with nullcontext(sys.stdout) if path == "-" else open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["country", *panel.indicators])
        for code, row in zip(panel.countries, panel.values.tolist()):
            writer.writerow([code, *["" if math.isnan(v) else repr(v) for v in row]])


def validate_panel(panel: IndicatorPanel) -> ValidationReport:
    """Count missing cells per indicator and country; warn on empty columns."""
    miss = np.isnan(panel.values)
    by_ind = {ind: int(miss[:, j].sum()) for j, ind in enumerate(panel.indicators)}
    by_ctry = {c: int(miss[i, :].sum()) for i, c in enumerate(panel.countries)}
    total = panel.values.size
    coverage = 1.0 if total == 0 else 1.0 - miss.sum() / total
    warnings = tuple(
        f"indicator {ind!r} has no observed values"
        for ind in panel.indicators
        if panel.values.shape[0] and by_ind[ind] == panel.values.shape[0]
    )
    return ValidationReport(
        missing_by_indicator=by_ind,
        missing_by_country=by_ctry,
        coverage=float(coverage),
        warnings=warnings,
    )
