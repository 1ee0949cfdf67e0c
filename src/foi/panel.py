"""Country-by-indicator panels: CSV ingestion, validation, serialization.

A panel stores one epoch of raw values as a float grid with ``nan``
marking missing cells. CSV columns are reordered to follow the manifest,
so two files with permuted columns load to identical panels.
"""

from __future__ import annotations

import csv
import io
import itertools
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from .errors import DuplicateCountryError, PanelParseError, SchemaError
from .manifest import IndicatorManifest


def _frozen_grid(values) -> np.ndarray:
    """``values`` as a read-only float array. A read-only float64 array
    that owns its memory, as the readers and ``rescale_panel`` pass, is
    taken as is; anything else is copied, so a later write to the
    caller's array cannot reach the panel."""
    if (
        isinstance(values, np.ndarray)
        and values.dtype == np.float64
        and values.flags.owndata
        and not values.flags.writeable
    ):
        return values
    grid = np.array(values, dtype=float)
    grid.setflags(write=False)
    return grid


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
        grid = _frozen_grid(self.values)
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


@dataclass(frozen=True)
class ValidationReport:
    """Missingness summary for a panel. Validation reports, never fails."""

    missing_by_indicator: dict[str, int] = field(default_factory=dict)
    missing_by_country: dict[str, int] = field(default_factory=dict)
    coverage: float = 1.0
    warnings: tuple[str, ...] = ()


class _Unfit(Exception):
    """A file the streamed parse cannot take exactly as the record loop would."""


def _read_grid(path, order=None) -> tuple[list[str], list[str], np.ndarray]:
    """Parse a ``country,<column ids...>`` CSV into column ids, row codes
    and a float grid, with the checks listed under ``load_panel``. The
    one CSV reader of the package: ``factor.load_variable_matrix`` uses
    it too.

    When ``order`` holds every column id, the columns follow ``order``;
    otherwise they follow the file. numpy's C tokenizer parses the data
    lines as they stream from the file, so the peak is about one grid. A
    file it cannot take exactly as ``_read_records`` would (a quote, a
    whitespace-only cell, ``1_000``, a line of commas, a bad or infinite
    cell, a short or long row, a repeated code) is read again by
    ``_read_records``, which alone raises the reader's errors.
    """
    try:
        return _read_streamed(path, order)
    except (_Unfit, ValueError):
        pass
    columns, codes, grid = _read_records(path)
    cols = _column_order(columns, order)
    if cols != list(range(len(columns))):
        columns, grid = [columns[j] for j in cols], grid[:, cols]
    return columns, codes, grid


def _column_order(columns: list[str], order) -> list[int]:
    """Positions of ``columns`` sorted by their place in ``order``; the
    file's order when ``order`` is None or lacks one of them."""
    place = {col: i for i, col in enumerate(order or ())}
    if order is None or not all(col in place for col in columns):
        return list(range(len(columns)))
    return sorted(range(len(columns)), key=lambda j: place[columns[j]])


def _read_streamed(path, order) -> tuple[list[str], list[str], np.ndarray]:
    """The fast path of ``_read_grid``; raises ``_Unfit`` or ``ValueError``
    for any file it cannot read exactly as ``_read_records`` does."""
    with open(path, encoding="utf-8") as fh:
        head = fh.readline()
        header = head.rstrip("\n").split(",")
        columns = [h.strip() for h in header[1:]]
        if ('"' in head or "\0" in head or header[0].strip().lower() != "country"
                or not columns or len(set(columns)) != len(columns)):
            raise _Unfit
        codes: list[str] = []
        lines = _data_lines(fh, len(columns), codes)
        first = next(lines, None)
        if first is None:  # no data rows: loadtxt would warn
            raise _Unfit
        cols = _column_order(columns, order)
        grid = np.loadtxt(
            itertools.chain((first,), lines), delimiter=",", comments=None, quotechar=None,
            ndmin=2, usecols=[1 + j for j in cols],
        )
    if np.isinf(grid).any() or len(set(codes)) != len(codes):
        raise _Unfit
    return [columns[j] for j in cols], codes, grid


def _data_lines(fh, width: int, codes: list[str]):
    """Yield the data lines of ``fh`` for ``np.loadtxt``, each empty cell
    spelled ``nan``, and append each row's code to ``codes``. Blank lines
    are dropped; a line with a quote, a NUL or empty code, or other than
    ``width`` commas raises ``_Unfit``."""
    for line in fh:
        if line.count(",") != width or '"' in line:
            if line.isspace():
                continue
            raise _Unfit
        code = line[: line.index(",")].strip()
        if not code or "\0" in code:
            raise _Unfit
        codes.append(code)
        line = line.replace(",,", ",nan,")
        if ",," in line:  # a run of empty cells
            line = line.replace(",,", ",nan,")
        yield line.rstrip("\n") + "nan" if line.endswith((",", ",\n")) else line


def _read_records(path) -> tuple[list[str], list[str], np.ndarray]:
    """The record loop behind ``_read_grid``: ``csv.reader`` and one
    ``float`` parse per row. It is the only code that raises a reader
    error, and the only path for quoted fields, whitespace-only cells and
    other input the C tokenizer refuses."""
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
        ``country``, a column repeats or is absent from the manifest, a
        manifest indicator has no column, or a row has the wrong number
        of cells.
    DuplicateCountryError
        If a country code appears twice.
    PanelParseError
        If a non-empty cell is not a finite decimal number (``inf`` and
        overflowing values like ``1e400`` included); carries the 1-based
        data row and the column name.
    """
    columns, countries, grid = _read_grid(panel_csv, manifest.ids)
    known = set(manifest.ids)
    for col in columns:
        if col not in known:
            raise SchemaError(f"{panel_csv}: unknown indicator column {col!r}")
    present = set(columns)
    absent = [ind for ind in manifest.ids if ind not in present]
    if absent:
        raise SchemaError(f"{panel_csv}: no column for manifest indicators {', '.join(absent)}")
    grid.setflags(write=False)  # the panel takes it without a copy
    return IndicatorPanel(epoch=epoch, countries=tuple(countries), indicators=tuple(columns), values=grid)


def write_panel(panel: IndicatorPanel, path) -> None:
    """Serialize a panel to the CSV schema ``load_panel`` reads, with
    ``\\n`` line endings; ``-`` for ``path`` means standard output."""
    with nullcontext(sys.stdout) if path == "-" else open(path, "w", newline="", encoding="utf-8") as fh:
        _write_grid(fh, panel.indicators, panel.countries, panel.values)


def _write_grid(fh, columns, codes, values: np.ndarray) -> None:
    """Write a ``country,<column ids...>`` CSV grid to the stream ``fh``:
    floats as ``repr``, ``nan`` as an empty cell, ``\\n`` line endings,
    byte for byte as ``csv.writer`` writes it. Only the header and the
    codes can need quoting, so only they go through ``csv``."""
    csv.writer(fh, lineterminator="\n").writerow(["country", *columns])
    for code, row in zip(codes, values.tolist()):
        cells = ["" if v != v else repr(v) for v in row]  # v != v: nan
        fh.write(",".join([code if code.isalnum() else _csv_field(code), *cells]) or '""')
        fh.write("\n")


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it, as one field of a longer row."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]


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
