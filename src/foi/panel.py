"""Country-by-indicator panels: CSV ingestion, validation, serialization.

A panel stores one epoch of raw values as a float grid with ``nan``
marking missing cells. CSV columns are reordered to follow the manifest,
so two files with permuted columns load to identical panels.
"""

import collections
import csv
import functools
import io
import itertools
import math
import os
import pickle
import stat
import sys
import warnings
from contextlib import contextmanager, nullcontext, suppress
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DuplicateCountryError, FoiError, PanelParseError, SchemaError
from .manifest import IndicatorManifest


@dataclass(frozen=True)
class IndicatorPanel:
    """Raw values for one epoch, or, with ``epoch`` 0, a factor analysis's
    variables (``indicators``) observed on its rows (``countries``).

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
        grid = self.values
        # a read-only float64 array that owns its memory, as the readers and
        # ``rescale_panel`` pass, is taken as is; anything else is copied, so
        # a later write to the caller's array cannot reach the panel
        if not (isinstance(grid, np.ndarray) and grid.dtype == np.float64 and grid.flags.owndata
                and not grid.flags.writeable):
            grid = np.array(grid, dtype=float)
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


class ValidationReport(NamedTuple):
    """Missingness summary for a panel. Validation reports, never fails."""

    missing_by_indicator: dict[str, int]
    missing_by_country: dict[str, int]
    coverage: float
    warnings: tuple[str, ...]


def _read_grid(path, order=None) -> tuple[list[str], list[str], np.ndarray]:
    """Parse a ``country,<column ids...>`` CSV into column ids, row codes
    and a float grid, with the checks listed under ``load_panel``; the
    one CSV reader of the package. Given ``order`` (the manifest's ids),
    the header must hold just those ids, checked before any data line,
    and the columns follow it. The data lines are parsed as one span, or
    several at once in forked children (``_read_spans``); if that fails
    or finds a repeated code or an infinite cell, they are parsed again
    with every row in the slow lane, which raises the first error."""
    with open(path, "rb") as fh:
        regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
        if not regular:  # a pipe: held, so that it can be read again
            fh = io.BytesIO(fh.read())
        raw = fh.readline().removeprefix(b"\xef\xbb\xbf")  # the BOM of Excel's "CSV UTF-8"
        if not raw:
            raise SchemaError(f"{path}: empty file")
        pieces = _pieces(raw)
        header = next(_records(pieces, fh))
        if pieces:  # records after the header on its line, cut by a lone \r
            fh.seek(-len("".join(pieces).encode(errors="surrogateescape")), os.SEEK_CUR)
        _check_utf8(header, f"{path}: header")
        if not header or header[0].strip().lower() != "country":
            raise SchemaError(f"{path}: first header column must be 'country'")
        columns = [h.strip() for h in header[1:]]
        if len(set(columns)) != len(columns):
            raise SchemaError(f"{path}: duplicate columns")
        cols = list(range(len(columns)))  # the file's order, or else ``order``'s
        if order is not None:
            place = {col: i for i, col in enumerate(order)}
            if unknown := [col for col in columns if col not in place]:
                raise SchemaError(f"{path}: unknown indicator column {unknown[0]!r}")
            if absent := sorted(place.keys() - set(columns), key=place.get):
                raise SchemaError(f"{path}: no column for manifest indicators {', '.join(absent)}")
            cols.sort(key=lambda j: place[columns[j]])
        usecols = [1 + j for j in cols]
        start = fh.tell()
        bounds = _span_bounds(fh) if regular else []
        try:
            codes, grid = (_read_spans(path, bounds, columns, usecols) if bounds
                           else _parse_span(fh, start, path, columns, usecols))
            clean = len(set(codes)) == len(codes) and not np.isinf(grid).any()
        except (FoiError, csv.Error, EOFError, pickle.UnpicklingError):
            clean = False
        if not clean:
            codes, grid = _parse_span(fh, start, path, columns, usecols, seen=set())
    grid.setflags(write=False)  # read-only: a panel or matrix takes it without a copy
    return [columns[j] for j in cols], codes, grid


# A file is cut into more than one span only when each span would hold
# at least this many bytes of data lines. On a 2-vCPU Linux VM (in
# process, perfbench's 300-column rows) two forked children break even
# with one in-process parse at about 1.5 MB of data, 0.75 MB a span, and
# win by about 14% at 2 MB and 30% from 8 MB up.
_SPAN_MIN_BYTES = 1 << 20

_EVERY_ROW = range(sys.maxsize)  # as ``_parse_span``'s slow rows: all of them


def _parse_span(fh, start, path, columns, usecols, size=None, seen=None):
    """The codes and the float grid (columns ``usecols``) of the data
    lines of the byte stream ``fh`` from ``start``, ``size`` bytes or all,
    as numpy's C tokenizer parses them while they stream. A line with a
    quote, a byte that is not UTF-8, a lone ``\\r``, other than
    ``len(columns)`` commas, or an empty or NUL code takes the slow lane:
    ``_records`` reads it and ``_record`` checks it. A row with a cell
    loadtxt refuses takes it in a second pass, every row in a third, and
    every row with ``seen``, the set of codes so far, which also bars a
    repeated code."""
    width, cols = len(columns), [u - 1 for u in usecols]
    end = math.inf if size is None else start + size
    slow = set() if width and seen is None else _EVERY_ROW  # rows, by index
    while True:
        fh.seek(start)
        codes, rows = [], {}

        def lines(budget=end - start):
            shift = 1  # a line's data row, as csv counts records, less its index
            for i, raw in enumerate(fh):
                budget -= len(raw)
                line = raw.decode(errors="replace")  # a U+FFFD: the slow lane names the byte
                if line.endswith("\r\n"):
                    line = line[:-2] + "\n"
                if (line.count(",") == width and len(codes) not in slow and '"' not in line and "\r" not in line
                        and "\ufffd" not in line and (code := line[: line.index(",")].strip()) and "\0" not in code):
                    codes.append(code)
                    line = line.replace(",,", ",nan,")
                    if ",," in line:  # a run of empty cells
                        line = line.replace(",,", ",nan,")
                    yield line.rstrip("\n") + "nan" if line.endswith((",", ",\n")) else line
                elif "\r" in line or not line.isspace():
                    for row, rec in enumerate(_records(_pieces(raw), fh), start=i + shift):
                        if got := _record(path, row, rec, columns, seen):
                            rows[len(codes)] = got[1][cols]
                            codes.append(got[0])
                            yield "nan" + ",nan" * width  # loadtxt's row, overwritten below
                    shift, budget = row - i, end - fh.tell()
                if budget <= 0:
                    return

        data = lines()
        first = next(data, None)
        if first is None:  # no data rows: loadtxt would warn
            return codes, np.empty((0, len(usecols)))
        try:
            grid = np.loadtxt(
                itertools.chain((first,), data), delimiter=",", comments=None, quotechar=None,
                ndmin=2, usecols=usecols,
            )
        except ValueError:  # a cell loadtxt cannot read, in the last row it took
            if slow is _EVERY_ROW:
                raise
            slow = _EVERY_ROW if slow else {len(codes) - 1}
            continue
        for k, values in rows.items():
            grid[k] = values
        return codes, grid


def _pieces(raw: bytes) -> collections.deque:
    """The byte line ``raw`` as the lines of a UTF-8 file opened with
    ``newline=""`` and ``errors="surrogateescape"``."""
    return collections.deque(io.StringIO(raw.decode(errors="surrogateescape"), newline=""))


def _records(pieces: collections.deque, more):
    """Yield the CSV records that start in the lines ``pieces``, as
    ``csv.reader`` reads them, reading on into the byte lines of ``more``
    while a quoted field is open; what follows them stays in ``pieces``."""
    def feed():
        while True:
            while pieces:
                yield pieces.popleft()
            raw = next(more, None)
            if raw is None:
                return
            pieces.extend(_pieces(raw))

    reader = csv.reader(feed())
    while pieces:
        yield next(reader)


def _record(path, row: int, rec: list[str], columns: list[str], seen) -> tuple[str, np.ndarray] | None:
    """The code and the float cells of the CSV record ``rec``, data row
    ``row``, or None for a blank one; the reader's error for a byte that
    is not UTF-8, a code in ``seen``, a wrong cell count, or a stripped
    cell that is not empty (``nan``) or a finite number."""
    if all(not c.strip() for c in rec):
        return None
    _check_utf8(rec, f"{path}: row {row}", row)
    code = rec[0].strip()
    if seen is not None:
        if code in seen:
            raise DuplicateCountryError(f"{path}: duplicate country row {code!r}")
        seen.add(code)
    if len(rec) != len(columns) + 1:
        raise SchemaError(f"{path}: row {row} ({code!r}) has {len(rec) - 1} cells, expected {len(columns)}")
    cells = [c.strip() or "nan" for c in rec[1:]]
    try:
        values = np.array(cells, dtype=float)
        bad = np.flatnonzero(np.isinf(values))
    except ValueError:  # name the first cell that is not a number
        for bad, cell in enumerate(cells):
            try:
                float(cell)
            except ValueError:
                break
        bad = [bad]
    if len(bad):
        col, cell = columns[bad[0]], cells[bad[0]]
        message = f"{path}: row {row} ({code!r}), column {col!r}: cannot parse {cell!r} as a finite number"
        raise PanelParseError(message, row=row, column=col)
    return code, values


def _check_utf8(cells: list[str], where: str, row=None) -> None:
    """Raise ``PanelParseError`` naming the first byte of ``cells``, read
    with ``surrogateescape``, that is not UTF-8."""
    try:
        "".join(cells).encode()
    except UnicodeEncodeError as exc:
        byte = ord(exc.object[exc.start]) - 0xDC00
        raise PanelParseError(f"{where}: byte {byte:#04x} is not UTF-8 text", row=row) from None


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 on any system but Linux, the
    only one on which the reader, the writer and the aggregate fork."""
    return len(os.sched_getaffinity(0)) if sys.platform == "linux" else 1


def _span_bounds(fh) -> list[int]:
    """Byte offsets that cut the rest of the regular file ``fh`` into
    spans on line boundaries, one per usable CPU when each would hold at
    least ``_SPAN_MIN_BYTES``; empty when the rest is one span."""
    start, end = fh.tell(), os.fstat(fh.fileno()).st_size
    n = min(_usable_cpus(), (end - start) // _SPAN_MIN_BYTES)
    if n < 2:
        return []
    bounds = [start]
    for i in range(1, n):
        fh.seek(max(bounds[-1], start + (end - start) * i // n))
        fh.readline()  # a span ends just after a line feed
        bounds.append(fh.tell())
    return bounds + [end]


def _read_spans(path, bounds: list[int], columns: list[str], usecols: list[int]):
    """Parse the spans of ``path`` between consecutive ``bounds`` at once,
    each in a forked child, and gather their codes and one grid in file
    order. A failed fork, or a child that sends less than it should (as
    on a reader error), raises ``EOFError`` or ``UnpicklingError``."""
    spans = list(zip(bounds, bounds[1:]))
    with _forked(functools.partial(_span_child, path, a, b - a, columns, usecols) for a, b in spans) as pipes:
        if len(pipes) < len(spans):
            raise EOFError(f"forked {len(pipes)} of {len(spans)} span readers")
        parts = [pickle.load(pipe) for pipe in pipes]
        grid = np.empty((sum(map(len, parts)), len(usecols)))
        row = 0
        for pipe, codes in zip(pipes, parts):
            rows = grid[row : row + len(codes)]
            if pipe.readinto(rows) != rows.nbytes:
                raise EOFError("a span reader sent a short grid")
            row += len(codes)
    return [code for codes in parts for code in codes], grid


def _span_child(path, start: int, size: int, columns: list[str], usecols: list[int], w: int) -> None:
    """A forked child's work: parse ``size`` bytes of ``path`` from
    ``start``; write the pickled codes, then the grid's raw floats, to
    the pipe ``w``. Fails when a record reads on past the span."""
    with open(w, "wb") as out, open(path, "rb") as fh:
        codes, grid = _parse_span(fh, start, path, columns, usecols, size)
        if fh.tell() > start + size:
            raise EOFError(f"a record runs on past byte {start + size}")
        pickle.dump(codes, out)
        out.write(grid)


@contextmanager
def _forked(works):
    """Fork a child per callable of ``works`` (see ``_fork``) until a fork
    fails, and yield the read ends of their pipes in order. On leaving,
    every pipe is closed before any child is waited on, so a child
    blocked on a full pipe gets ``EPIPE`` and exits, and none outlives
    the block; one the system reaped (``SIGCHLD`` ignored) is let be."""
    pids, pipes = [], []
    try:
        for work in works:
            try:
                pid, pipe = _fork(work, pipes)
            except OSError:
                break
            pids.append(pid)
            pipes.append(pipe)
        yield pipes
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            with suppress(ChildProcessError):
                os.waitpid(pid, 0)


def _fork(work, pipes):
    """Fork a child that runs ``work(w)`` on the write end ``w`` of a new
    pipe; return its pid and the pipe's binary read end, or raise
    ``OSError``. The child closes its elder siblings' read ends ``pipes``
    and leaves by ``os._exit``: 0 when ``work`` returns, 1 when it
    raises. A ``foi`` process forks with no BLAS threads; a caller that
    imported numpy before ``foi`` may still run them, which is safe too,
    as the works given import nothing and do no BLAS work."""
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


def _in_blocks(values: np.ndarray, min_cells: int, work, dump, load):
    """Yield ``work(block)`` for each of the contiguous row slices that
    cut the grid ``values`` into one block per usable CPU, when each would
    hold at least ``min_cells`` cells, in row order.

    The process works the first block while a forked child works each
    other one and sends ``dump`` of its result, as bytes, for the process
    to yield ``load`` of them. The process works a block itself when its
    fork failed or its child sent less than a whole frame (``_send``), as
    a child that fails or dies does, so the results never depend on the
    split. The children are waited on when the generator ends or is
    closed."""
    rows, parts = len(values), max(1, min(_usable_cpus(), values.size // min_cells))
    blocks = [slice(rows * i // parts, rows * (i + 1) // parts) for i in range(parts)]
    with _forked(functools.partial(_send, work, dump, block) for block in blocks[1:]) as pipes:
        yield work(blocks[0])
        for i, block in enumerate(blocks[1:]):
            frame = pipes[i].read() if i < len(pipes) else b""
            # whole when the first 8 bytes give the length of the rest,
            # which no prefix of a frame does (under 8 bytes, the rest's
            # length is negative)
            whole = int.from_bytes(frame[:8], "little") == len(frame) - 8
            yield load(memoryview(frame)[8:]) if whole else work(block)


def _send(work, dump, block: slice, w: int) -> None:
    """A forked child's work: ``dump(work(block))``, bytes, written to the
    pipe ``w`` as one frame, their length in 8 bytes and then the bytes;
    all at once, not piece by piece, which would stall on the full pipe
    while the parent is still on earlier blocks."""
    data = dump(work(block))
    with open(w, "wb") as out:
        out.writelines((len(data).to_bytes(8, "little"), data))


def load_panel(panel_csv, manifest: IndicatorManifest, epoch: int = 0) -> IndicatorPanel:
    """Read a ``country,<indicator ids...>`` CSV into a panel.

    A UTF-8 byte order mark before the header is dropped, and blank lines
    are skipped. An empty cell or the literal ``nan`` is a missing value.
    Column order in the result follows the manifest regardless of the
    file's column order.

    Raises
    ------
    SchemaError
        If the file is empty, the first header column is not
        ``country``, a column repeats or is absent from the manifest, or
        a manifest indicator has no column (all raised before any data
        line is read); or if a row has the wrong number of cells.
    DuplicateCountryError
        If a country code appears twice.
    PanelParseError
        If a non-empty cell is not a finite decimal number (``inf`` and
        overflowing values like ``1e400`` included); carries the 1-based
        data row and the column name.
    """
    columns, countries, grid = _read_grid(panel_csv, manifest.ids)
    return IndicatorPanel(epoch=epoch, countries=tuple(countries), indicators=tuple(columns), values=grid)


def write_panel(panel: IndicatorPanel, path) -> None:
    """Serialize a panel to the CSV schema ``load_panel`` reads, with
    ``\\n`` line endings; ``-`` for ``path`` means standard output."""
    with _open_output(path) as fh:
        _write_grid(fh, panel.indicators, panel.countries, panel.values)


def _open_output(path):
    """Standard output for ``-``; otherwise ``path``, opened for UTF-8 text
    with ``\\n`` line endings on every system."""
    return nullcontext(sys.stdout) if path == "-" else open(path, "w", newline="", encoding="utf-8")


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
    endings, byte for byte as ``csv.writer`` writes it. The rows are
    cut by ``_in_blocks`` into blocks of at least ``_WRITE_MIN_CELLS``
    cells: the first streams into ``fh``, forked children format the
    others."""
    csv.writer(fh, lineterminator="\n").writerow(["country", *columns])
    for lines in _in_blocks(values, _WRITE_MIN_CELLS, lambda rows: _grid_lines(codes[rows], values[rows]),
                            lambda lines: "".join(lines).encode(), lambda data: (str(data, "utf-8"),)):
        fh.writelines(lines)


def _grid_lines(codes, values: np.ndarray):
    """Each code and its row of ``values`` as one CSV line, ending in
    ``\\n``. Only a code can need quoting, so only it goes through
    ``csv``."""
    for code, row in zip(codes, values.tolist()):
        cells = ["" if v != v else repr(v) for v in row]  # v != v: nan
        yield (",".join([code if code.isalnum() else _csv_field(code), *cells]) or '""') + "\n"


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
