"""The record loop that ``foi.panel._read_grid`` must agree with: the
whole file through ``csv.reader`` and one ``float`` parse per row. Slow,
and kept only as the oracle of the reader's tests."""

import csv

import numpy as np

from foi.errors import DuplicateCountryError, PanelParseError, SchemaError


def _read_records(path) -> tuple[list[str], list[str], np.ndarray]:
    """Column ids, row codes and the float grid of a ``country,<column
    ids...>`` CSV, each reader error raised as ``_read_grid`` must raise
    it, for the first bad record in file order."""
    # a byte that is not UTF-8 is read as a lone surrogate and named below;
    # "utf-8-sig" drops a byte order mark before the header
    with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file") from None
        if bad := _undecodable(header):
            raise PanelParseError(f"{path}: header: {bad}")
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
            if bad := _undecodable(rec):
                raise PanelParseError(f"{path}: row {lineno}: {bad}", row=lineno)
            code = rec[0].strip()
            if code in seen:
                raise DuplicateCountryError(f"{path}: duplicate country row {code!r}")
            if len(rec) != len(columns) + 1:
                raise SchemaError(
                    f"{path}: row {lineno} ({code!r}) has {len(rec) - 1} cells, expected {len(columns)}"
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
                    f"{path}: row {lineno} ({code!r}), column {col!r}: "
                    f"cannot parse {cell!r} as a finite number",
                    row=lineno,
                    column=col,
                )
            seen.add(code)
            codes.append(code)
            rows.append(row)
    values = np.vstack(rows) if rows else np.empty((0, len(columns)))
    return columns, codes, values


def _undecodable(cells: list[str]) -> str:
    """What is wrong with ``cells``, read with ``surrogateescape``: the
    first byte that is not UTF-8, named; empty when they all decode."""
    try:
        "".join(cells).encode()
    except UnicodeEncodeError as exc:
        return f"byte {ord(exc.object[exc.start]) - 0xDC00:#04x} is not UTF-8 text"
    return ""


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True
