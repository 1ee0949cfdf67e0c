"""Country-by-indicator panels: CSV ingestion, validation, serialization.

A panel stores one epoch of raw values as a float grid with ``nan``
marking missing cells. CSV columns are reordered to follow the manifest,
so two files with permuted columns load to identical panels.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import os
import stat
import sys
import warnings
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


# A file is cut into more than one span only when each span would hold
# at least this many bytes of data lines. On a 2-vCPU Linux VM (in
# process, perfbench's 300-column rows) two forked children break even
# with one in-process parse at about 1.5 MB of data, 0.75 MB a span, and
# win by about 14% at 2 MB and 30% from 8 MB up.
_SPAN_MIN_BYTES = 1 << 20


def _read_streamed(path, order) -> tuple[list[str], list[str], np.ndarray]:
    """The fast path of ``_read_grid``; raises ``_Unfit`` or ``ValueError``
    for any file it cannot read exactly as ``_read_records`` does.

    The data lines are cut into byte spans on line boundaries
    (``_span_bounds``). One span is parsed in process, several at once in
    forked children (``_read_spans``); the checks that need every row
    run on the gathered result."""
    with open(path, "rb") as fh:
        head = next(_text_lines([fh.readline()]))  # ValueError: not UTF-8
        header = head.rstrip("\n").split(",")
        columns = [h.strip() for h in header[1:]]
        if ('"' in head or "\0" in head or header[0].strip().lower() != "country"
                or not columns or len(set(columns)) != len(columns)):
            raise _Unfit
        cols = _column_order(columns, order)
        usecols = [1 + j for j in cols]
        bounds = _span_bounds(fh)
        if not bounds:
            codes, grid = _parse_span(_text_lines(fh), len(columns), usecols)
    if bounds:
        codes, grid = _read_spans(path, bounds, len(columns), usecols)
    if not codes or np.isinf(grid).any() or len(set(codes)) != len(codes):
        raise _Unfit  # no data rows, an infinite cell or a repeated code
    return [columns[j] for j in cols], codes, grid


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 on any system but Linux, the
    only one on which the reader and the writer fork."""
    return len(os.sched_getaffinity(0)) if sys.platform == "linux" else 1


def _span_bounds(fh) -> list[int]:
    """Byte offsets that cut the rest of the file ``fh`` into spans, each
    starting and ending on a line boundary: one span per usable CPU when
    each would hold at least ``_SPAN_MIN_BYTES``. Empty when the rest is
    one span: a small file, any stream but a regular file, any system
    but Linux."""
    info = os.fstat(fh.fileno())
    if not stat.S_ISREG(info.st_mode):
        return []
    start = fh.tell()
    n = min(_usable_cpus(), (info.st_size - start) // _SPAN_MIN_BYTES)
    if n < 2:
        return []
    bounds = [start]
    for i in range(1, n):
        fh.seek(max(bounds[-1], start + (info.st_size - start) * i // n))
        fh.readline()  # a span ends just after a line feed
        bounds.append(fh.tell())
    return bounds + [info.st_size]


def _text_lines(raw_lines, size=None):
    """The byte lines ``raw_lines``, up to ``size`` bytes of them, as
    text-mode ``open`` yields them: decoded as UTF-8 (else
    ``UnicodeDecodeError``), ``\\r\\n`` read as ``\\n``. A ``\\r``
    anywhere else raises ``_Unfit``: text mode would end a line there."""
    for raw in raw_lines:
        line = raw.decode()
        if "\r" in line:
            if not line.endswith("\r\n") or "\r" in line[:-2]:
                raise _Unfit
            line = line[:-2] + "\n"
        yield line
        if size is not None:
            size -= len(raw)
            if size <= 0:
                return


def _parse_span(lines, width: int, usecols: list[int]) -> tuple[list[str], np.ndarray]:
    """The codes and the float grid (columns ``usecols``) of the text
    lines ``lines``, parsed by numpy's C tokenizer as they stream."""
    codes: list[str] = []
    data = _data_lines(lines, width, codes)
    first = next(data, None)
    if first is None:  # no data rows: loadtxt would warn
        return codes, np.empty((0, len(usecols)))
    grid = np.loadtxt(
        itertools.chain((first,), data), delimiter=",", comments=None, quotechar=None,
        ndmin=2, usecols=usecols,
    )
    return codes, grid


def _read_spans(path, bounds: list[int], width: int, usecols: list[int]):
    """Parse the spans of ``path`` between consecutive ``bounds`` at once,
    each in a forked child, and gather their codes and one grid in file
    order. Each child sends the byte length of its codes, the codes, then
    its raw float bytes, which are read straight into the grid's rows. A
    child that fails or dies sends less, and ``_Unfit`` is raised. Every
    pipe is closed before any child is waited on, so a child blocked on a
    full pipe gets ``EPIPE`` and exits, whatever goes wrong here."""
    pids, pipes, parts = [], [], []
    try:
        for start, end in zip(bounds, bounds[1:]):
            try:
                pid, pipe = _fork(functools.partial(_span_child, path, start, end - start, width, usecols), pipes)
            except OSError:
                raise _Unfit from None
            pids.append(pid)
            pipes.append(pipe)
        for pipe in pipes:
            size = pipe.readline()
            text = pipe.read(int(size)) if size.endswith(b"\n") else None
            if text is None or len(text) != int(size):
                raise _Unfit
            parts.append(text.decode().split("\n") if text else [])
        grid = np.empty((sum(map(len, parts)), len(usecols)))
        row = 0
        for pipe, codes in zip(pipes, parts):
            rows = grid[row : row + len(codes)]
            if pipe.readinto(rows) != rows.nbytes:
                raise _Unfit
            row += len(codes)
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            _reap(pid)
    return [code for codes in parts for code in codes], grid


def _fork(work, pipes):
    """Fork a child that runs ``work(w)`` on the write end ``w`` of a new
    pipe; return its pid and the pipe's binary read end. ``OSError`` when
    there is no pipe or no process to be had. The child closes its elder
    siblings' read ends ``pipes``, and leaves by ``os._exit``: status 0
    when ``work`` returns, 1 when it raises. The work the reader and the
    writer give it imports nothing and does no BLAS work, so forking a
    process that runs BLAS threads is safe."""
    r, w = os.pipe()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # Python 3.12+: fork with threads
            pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        status = 1  # any exception: exit at once, without a traceback
        try:
            for fd in (r, *(pipe.fileno() for pipe in pipes)):
                os.close(fd)
            work(w)
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    return pid, open(r, "rb")


def _reap(pid: int) -> int:
    """Wait for the child ``pid`` to exit; its wait status, or -1 when
    the system reaped it already (``SIGCHLD`` ignored), so that its
    status is unknown."""
    try:
        return os.waitpid(pid, 0)[1]
    except ChildProcessError:
        return -1


def _span_child(path, start: int, size: int, width: int, usecols: list[int], w: int) -> None:
    """A forked child's work: parse ``size`` bytes of ``path`` from
    ``start`` and write what ``_read_spans`` reads to the pipe ``w``."""
    with open(w, "wb") as out, open(path, "rb") as fh:
        fh.seek(start)
        codes, grid = _parse_span(_text_lines(fh, size), width, usecols)
        text = "\n".join(codes).encode()
        out.write(b"%d\n" % len(text))
        out.write(text)
        out.write(grid)


def _data_lines(lines, width: int, codes: list[str]):
    """Yield the data lines of ``lines`` for ``np.loadtxt``, each empty
    cell spelled ``nan``, and append each row's code to ``codes``. Blank
    lines are dropped; a line with a quote, a NUL or empty code, or other
    than ``width`` commas raises ``_Unfit``."""
    for line in lines:
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
    # a byte that is not UTF-8 is read as a lone surrogate and named below
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
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


# A grid is cut into row blocks only when each block would hold at least
# this many cells. On a 2-vCPU Linux VM (in process, to a file, random
# cells of 16-17 significant digits as `rescale` writes them) a forked
# child breaks even with one in-process write at 16 000 to 32 000 cells
# a block for 300-column rows (under 8 000 for 20-column rows), and wins
# by 25-40% from 64 000 up.
_WRITE_MIN_CELLS = 1 << 16


def _write_grid(fh, columns, codes, values: np.ndarray) -> None:
    """Write a ``country,<column ids...>`` CSV grid to the text stream
    ``fh``: floats as ``repr``, ``nan`` as an empty cell, ``\\n`` line
    endings, byte for byte as ``csv.writer`` writes it.

    The rows are cut into one contiguous block per usable CPU when each
    block holds at least ``_WRITE_MIN_CELLS`` cells. The parent formats
    the first block into ``fh`` while a forked child formats each other
    one; the parent then writes each child's block in row order, but
    only if that child exited with status 0, and formats any other block
    itself, so the bytes never depend on the split. Only the parent
    writes to ``fh``. Should a write to ``fh`` fail, every pipe is closed
    before the children left are waited on, so a child blocked on a full
    pipe gets ``EPIPE`` and exits, and none outlives the call."""
    csv.writer(fh, lineterminator="\n").writerow(["country", *columns])
    n = max(1, min(_usable_cpus(), values.size // _WRITE_MIN_CELLS))
    blocks = [slice(len(codes) * i // n, len(codes) * (i + 1) // n) for i in range(n)]
    pids, pipes = [], []
    try:
        for rows in blocks[1:]:
            try:
                pid, pipe = _fork(functools.partial(_block_child, codes[rows], values[rows]), pipes)
            except OSError:
                break  # the parent formats this block and the rest
            pids.append(pid)
            pipes.append(pipe)
        fh.writelines(_grid_lines(codes[blocks[0]], values[blocks[0]]))
        for i, rows in enumerate(blocks[1:]):
            text = None
            if i < len(pids):
                text = pipes[i].read()
                pipes[i].close()
                if _reap(pids[i]) != 0:
                    text = None
                pids[i] = None
            if text is None:
                fh.writelines(_grid_lines(codes[rows], values[rows]))
            else:
                fh.write(text.decode())
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            if pid is not None:
                _reap(pid)


def _grid_lines(codes, values: np.ndarray):
    """Each code and its row of ``values`` as one CSV line, ending in
    ``\\n``. Only a code can need quoting, so only it goes through
    ``csv``."""
    for code, row in zip(codes, values.tolist()):
        cells = ["" if v != v else repr(v) for v in row]  # v != v: nan
        yield (",".join([code if code.isalnum() else _csv_field(code), *cells]) or '""') + "\n"


def _block_child(codes, values: np.ndarray, w: int) -> None:
    """A forked child's work: the lines of ``_grid_lines`` as one UTF-8
    byte string, written to the pipe ``w`` at once. A child that wrote
    row by row would stall on the full pipe while the parent is still
    on earlier blocks."""
    with open(w, "wb") as out:
        out.write("".join(_grid_lines(codes, values)).encode())


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it, as one field of a longer row."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]


def validate_panel(panel: IndicatorPanel) -> ValidationReport:
    """Count missing cells per indicator and country; warn on empty columns."""
    miss = np.isnan(panel.values)
    by_ind = dict(zip(panel.indicators, miss.sum(axis=0).tolist()))
    by_ctry = dict(zip(panel.countries, miss.sum(axis=1).tolist()))
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
