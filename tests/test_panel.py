import csv
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import foi
from foi import panel
from foi.errors import DuplicateCountryError, PanelParseError, SchemaError
from foi.manifest import default_manifest, manifest_from_records
from foi.panel import _read_grid, _write_grid, load_panel, validate_panel, write_panel

from conftest import make_manifest, make_panel
from record_loop import _read_records

SRC = str(Path(foi.__file__).resolve().parents[1])

TWO_COL = manifest_from_records(
    [
        {"id": "a", "name": "A", "pillar": "F", "direction": "higher_is_better", "source": "t"},
        {"id": "b", "name": "B", "pillar": "O", "direction": "higher_is_better", "source": "t"},
    ]
)


def write(tmp_path, text, name="panel.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_panel_counts_missing_cells(tmp_path):
    path = write(tmp_path, "country,a,b\nAAA,1,2\nBBB,3,\nCCC,5,6\n")
    panel = load_panel(path, TWO_COL)
    assert panel.shape == (3, 2)
    assert np.isnan(panel.values).sum() == 1
    assert validate_panel(panel).coverage == pytest.approx(5 / 6)


def test_unknown_column_is_schema_error(tmp_path):
    path = write(tmp_path, "country,a,xyz\nAAA,1,2\n")
    with pytest.raises(SchemaError, match="xyz"):
        load_panel(path, TWO_COL)


def test_duplicate_country_rejected(tmp_path):
    path = write(tmp_path, "country,a,b\nAAA,1,2\nAAA,3,4\n")
    with pytest.raises(DuplicateCountryError, match="AAA"):
        load_panel(path, TWO_COL)


def test_bad_cell_reports_coordinates(tmp_path):
    path = write(tmp_path, "country,a,b\nAAA,1,2\nBBB,oops,4\n")
    with pytest.raises(PanelParseError) as exc:
        load_panel(path, TWO_COL)
    assert exc.value.row == 2
    assert exc.value.column == "a"


def test_absent_manifest_indicator_is_schema_error(tmp_path):
    path = write(tmp_path, "country,b\nAAA,2\n")
    with pytest.raises(SchemaError, match="no column for manifest indicators a$"):
        load_panel(path, TWO_COL)


def test_columns_reordered_to_manifest(tmp_path):
    path = write(tmp_path, "country,b,a\nAAA,2,1\n")
    panel = load_panel(path, TWO_COL)
    assert panel.indicators == ("a", "b")
    assert panel.values[0].tolist() == [1.0, 2.0]


def test_full_default_manifest_panel(tmp_path):
    # 34 rows x 24 indicators, dimensions checked by independent counts
    manifest = default_manifest()
    header = "country," + ",".join(manifest.ids)
    rows = [f"X{i:02d}," + ",".join(str(i + j) for j in range(len(manifest))) for i in range(34)]
    path = write(tmp_path, header + "\n" + "\n".join(rows) + "\n")
    panel = load_panel(path, manifest)
    assert panel.shape == (len(rows), len(header.split(",")) - 1) == (34, 24)


def test_round_trip_identity(tmp_path):
    manifest = make_manifest()
    grid = np.arange(18, dtype=float).reshape(3, 6)
    grid[1, 2] = np.nan
    panel = make_panel(manifest, grid)
    out = tmp_path / "rt.csv"
    write_panel(panel, out)
    again = load_panel(out, manifest, epoch=panel.epoch)
    assert again.countries == panel.countries
    assert again.indicators == panel.indicators
    assert np.array_equal(again.values, panel.values, equal_nan=True)


def test_validate_fully_populated():
    panel = make_panel(make_manifest(), np.ones((4, 6)))
    rep = validate_panel(panel)
    assert rep.coverage == 1.0
    assert rep.warnings == ()


def test_validate_warns_on_empty_column():
    grid = np.ones((34, 6))
    grid[:, 3] = np.nan
    rep = validate_panel(make_panel(make_manifest(), grid))
    assert rep.coverage == pytest.approx(5 / 6)
    assert len(rep.warnings) == 1 and "o1" in rep.warnings[0]


def test_validate_per_country_counts_match_brute_force():
    rng = np.random.default_rng(7)
    grid = rng.normal(size=(10, 6))
    holes = rng.random((10, 6)) < 0.3
    grid[holes] = np.nan
    panel = make_panel(make_manifest(), grid)
    rep = validate_panel(panel)
    for i, code in enumerate(panel.countries):
        assert rep.missing_by_country[code] == sum(
            1 for j in range(6) if math.isnan(grid[i, j])
        )
    for j, ind in enumerate(panel.indicators):
        assert rep.missing_by_indicator[ind] == sum(
            1 for i in range(10) if math.isnan(grid[i, j])
        )


def test_coverage_strictly_drops_when_cell_blanked():
    grid = np.ones((5, 6))
    base = validate_panel(make_panel(make_manifest(), grid)).coverage
    grid2 = grid.copy()
    grid2[2, 4] = np.nan
    assert validate_panel(make_panel(make_manifest(), grid2)).coverage < base


def test_default_manifest_shape():
    manifest = default_manifest()
    assert len(manifest) == 24
    assert len(manifest.pillar_ids("F")) == 9
    assert len(manifest.pillar_ids("O")) == 5
    assert len(manifest.pillar_ids("I")) == 10


@pytest.mark.parametrize("cell", ("inf", "-inf", "Infinity", "1e400"))
def test_infinite_cell_reports_coordinates(tmp_path, cell):
    path = write(tmp_path, f"country,a,b\nAAA,1,2\nBBB,3,{cell}\n")
    with pytest.raises(PanelParseError) as exc:
        load_panel(path, TWO_COL)
    assert (exc.value.row, exc.value.column) == (2, "b")


def test_literal_nan_is_missing(tmp_path):
    path = write(tmp_path, "country,a,b\nAAA,1,nan\nBBB,NaN,4\n")
    panel = load_panel(path, TWO_COL)
    assert np.isnan(panel.values).tolist() == [[False, True], [True, False]]


def test_row_with_extra_cell_is_schema_error(tmp_path):
    path = write(tmp_path, "country,a,b\nAAA,1,2,3\n")
    with pytest.raises(SchemaError, match="row 1"):
        load_panel(path, TWO_COL)


def test_write_panel_to_stdout_uses_lf(capsys):
    manifest = make_manifest()
    grid = np.arange(12, dtype=float).reshape(2, 6)
    grid[0, 1] = np.nan
    write_panel(make_panel(manifest, grid), "-")
    out = capsys.readouterr().out
    assert out.splitlines(keepends=True)[1] == "C00,0.0,,2.0,3.0,4.0,5.0\n"
    assert "\r" not in out


def test_load_panel_peak_memory_stays_near_two_grids(tmp_path):
    # the parsed rows, their stack and the panel's own copy are each one
    # grid; holding the file-order grid while the panel copies the
    # manifest-order one would make three
    import tracemalloc

    manifest = make_manifest(pillar_counts=(100, 100, 100))
    columns = list(reversed(manifest.ids))  # not manifest order: the reorder runs
    rng = np.random.default_rng(0)
    grid = rng.integers(100_000, 999_999, size=(2000, len(columns))) / 1000
    lines = ["country," + ",".join(columns)]
    lines += [f"C{i:04d}," + ",".join(map(repr, row)) for i, row in enumerate(grid.tolist())]
    path = write(tmp_path, "\n".join(lines) + "\n")
    tracemalloc.start()
    try:
        panel = load_panel(path, manifest)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert panel.values.tolist() == grid[:, ::-1].tolist()
    assert peak / panel.values.nbytes <= 2.5


def test_load_panel_peak_memory_stays_near_one_grid(tmp_path):
    # the C tokenizer fills one growing grid in manifest order, and the
    # panel takes that grid without a copy
    import tracemalloc

    manifest = make_manifest(pillar_counts=(100, 100, 100))
    columns = list(reversed(manifest.ids))  # not manifest order
    rng = np.random.default_rng(0)
    grid = rng.integers(100_000, 999_999, size=(2000, len(columns))) / 1000
    lines = ["country," + ",".join(columns)]
    lines += [f"C{i:04d}," + ",".join(map(repr, row)) for i, row in enumerate(grid.tolist())]
    path = write(tmp_path, "\n".join(lines) + "\n")
    tracemalloc.start()
    try:
        panel = load_panel(path, manifest)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert panel.values.tolist() == grid[:, ::-1].tolist()
    assert peak / panel.values.nbytes <= 1.5


def test_load_panel_peak_memory_stays_near_one_grid_when_split(tmp_path, monkeypatch):
    # forked children parse the spans; the parent holds only the one grid
    # their rows are read into
    import tracemalloc

    manifest = make_manifest(pillar_counts=(100, 100, 100))
    columns = list(reversed(manifest.ids))  # not manifest order
    rng = np.random.default_rng(0)
    grid = rng.integers(100_000, 999_999, size=(2000, len(columns))) / 1000
    lines = ["country," + ",".join(columns)]
    lines += [f"C{i:04d}," + ",".join(map(repr, row)) for i, row in enumerate(grid.tolist())]
    path = write(tmp_path, "\n".join(lines) + "\n")
    cuts = _force_split(monkeypatch, 2)
    tracemalloc.start()
    try:
        loaded = load_panel(path, manifest)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [len(bounds) for bounds in cuts] == [3]
    assert loaded.values.tolist() == grid[:, ::-1].tolist()
    assert peak / loaded.values.nbytes <= 1.5


# ------------------------------------------- streamed parse against the loop


def _slow_lane_rows(monkeypatch):
    """The data rows of the records the reader's slow lane checks, in
    the order it checks them."""
    rows, record = [], panel._record
    monkeypatch.setattr(panel, "_record", lambda path, row, *rest: rows.append(row) or record(path, row, *rest))
    return rows


def test_streamed_parse_takes_plain_files(tmp_path, monkeypatch):
    # empty cells anywhere in a row, runs of them, blank lines, CRLF and
    # a last line without a terminator stay on the fast path
    text = "country,a,b,c\r\nAAA,,2,\r\n\r\nBBB,,,\r\nCCC, 1.5 ,nan,-3e2"
    path = tmp_path / "plain.csv"
    path.write_bytes(text.encode())
    slow = _slow_lane_rows(monkeypatch)
    got = _read_grid(path, ("c", "a", "b"))
    want = _read_records(path)
    assert got[0] == ["c", "a", "b"] and got[1] == want[1] == ["AAA", "BBB", "CCC"]
    assert got[2].tobytes() == want[2][:, [2, 0, 1]].tobytes()
    assert slow == []


def test_only_the_line_of_a_quoted_code_takes_the_slow_lane(tmp_path, monkeypatch):
    # legal CSV, as in an OECD panel: the other lines stay on the fast path
    lines = ["country,a,b"] + [f"C{i},{i},{i}.5" for i in range(1, 60)]
    lines[30] = '"Korea, Rep.",30,30.5'
    path = write(tmp_path, "\n".join(lines) + "\n")
    slow = _slow_lane_rows(monkeypatch)
    columns, codes, grid = _read_grid(path)
    assert slow == [30] and codes[29] == "Korea, Rep."
    assert grid.tolist() == [[i, i + 0.5] for i in range(1, 60)]


def test_panel_keeps_the_readers_grid(tmp_path):
    path = write(tmp_path, "country,b,a\nAAA,2,1\n")
    panel = load_panel(path, TWO_COL)
    assert panel.values.flags.owndata and not panel.values.flags.writeable
    # an array the caller can still write to is copied
    grid = np.ones((1, 2))
    again = make_panel(TWO_COL, grid, countries=["AAA"])
    grid[0, 0] = 5.0
    assert again.values[0, 0] == 1.0


_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["", "nan", "NaN", "-nan", "1e-400", "1.", ".5", " 2.5 ", "+7", "-0.0"]),
)
_ODD_CELLS = st.sampled_from([
    " ", "\t", "inf", "-Infinity", "1e400", "-1e400", "abc", "1_000", "\u0661", '"1.5"', '""', '" "',
    "9\udce9",
])
_ODD_CODES = st.sampled_from(["AAA", "BBB", " AAA ", '"BBB"', '"C,C"', '"C\nC"', '"CC', "", "  ", "caf\udce9"])


@st.composite
def grid_files(draw):
    """CSV text with numbers, empty cells and blank lines, LF or CRLF line
    ends, and up to two kinds of odd input: repeated headers, lines of
    whitespace or commas, short and long rows, rows with one
    whitespace-only, infinite, unparsable or quoted cell, and repeated,
    quoted or empty codes. A lone surrogate ``\\udce9`` stands for the
    byte 0xe9, which is not UTF-8 (see ``_file_bytes``)."""
    odd = draw(st.sets(st.sampled_from(
        ["repeated header", "spaces", "commas", "short", "long", "odd cell", "odd code"]
    ), max_size=2))
    width = draw(st.integers(1, 4))
    columns = list("abcd"[:width])
    if "repeated header" in odd:
        columns = draw(st.lists(st.sampled_from("abcd"), min_size=width, max_size=width))
    lines = ["country," + ",".join(columns)]
    kinds = ["row"] * 4 + ["blank"] + sorted(odd & {"spaces", "commas", "short", "long", "odd cell"})
    for i in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(kinds))
        if kind == "blank":
            lines.append("")
        elif kind == "spaces":
            lines.append("  ")
        elif kind == "commas":
            lines.append("," * len(columns))
        else:
            n = len(columns) + {"short": -1, "long": 1}.get(kind, 0)
            cells = draw(st.lists(_NUMBERS, min_size=n, max_size=n))
            if kind == "odd cell":
                cells[draw(st.integers(0, n - 1))] = draw(_ODD_CELLS)
            code = f" R{i}"
            if "odd code" in odd and draw(st.booleans()):
                code = draw(_ODD_CODES)
            lines.append(",".join([code, *cells]))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


def _file_bytes(text):
    """``text`` as UTF-8, each lone surrogate ``\\udcXX`` as the byte 0xXX."""
    return text.encode("utf-8", "surrogateescape")


def _outcome(read, path, *args):
    try:
        columns, codes, grid = read(path, *args)
    except Exception as exc:
        return type(exc), str(exc)
    return columns, codes, grid.shape, grid.tobytes()


def _equals_record_loop(path, rnd):
    """``_read_grid`` on ``path`` gives the record loop's outcome, in the
    file's and in a shuffled column order."""
    want = _outcome(_read_records, path)
    assert _outcome(_read_grid, path) == want
    if len(want) == 4:  # read in a shuffled column order too
        columns = want[0]
        order = rnd.sample(columns, len(columns))
        cols = sorted(range(len(columns)), key=lambda j: order.index(columns[j]))
        grid = np.frombuffer(want[3]).reshape(want[2])[:, cols]
        assert _outcome(_read_grid, path, order) == (
            [columns[j] for j in cols], want[1], grid.shape, grid.tobytes()
        )


@settings(max_examples=400)
@given(grid_files(), st.randoms(use_true_random=False))
def test_streamed_reader_equals_record_loop(tmp_path_factory, text, rnd):
    path = tmp_path_factory.mktemp("grid") / "grid.csv"
    path.write_bytes(_file_bytes(text))
    _equals_record_loop(path, rnd)


@pytest.mark.parametrize("text", [
    "country,a\rAAA,1\rBBB,2\r",  # classic Mac line ends: one line holds the header and every row
    "country,a\nAAA,1\n\r\r\nBBB,x\n",  # two blank records on one line, then a bad cell in row 4
])
def test_lone_carriage_returns_end_records_as_in_the_record_loop(tmp_path, text):
    path = tmp_path / "cr.csv"
    path.write_bytes(text.encode())
    assert _outcome(_read_grid, path) == _outcome(_read_records, path)


def _force_split(monkeypatch, cpus):
    """Cut every file with at least ``cpus`` bytes of data lines into
    ``cpus`` spans, whatever the machine; return the list each cut's
    bounds are appended to."""
    cuts = []
    span_bounds = panel._span_bounds
    monkeypatch.setattr(panel, "_SPAN_MIN_BYTES", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(panel, "_span_bounds", lambda fh: cuts.append(span_bounds(fh)) or cuts[-1])
    return cuts


@settings(max_examples=200)
@given(grid_files(), st.integers(2, 4), st.randoms(use_true_random=False))
@example("country,a\n\n\n\nAAA,1\n\n\n", 4, random.Random(0))  # spans of blank lines only
@example("country,a,b\nAAA,1,2\n\n", 3, random.Random(0))  # spans with no line at all
@example('country,a\n"CCCCCCCCCC\nC",1\nD,2\n', 2, random.Random(0))  # a record over a span's end
def test_split_reader_equals_record_loop(tmp_path_factory, text, cpus, rnd):
    # small files cut into two to four spans, so that spans hold a line
    # or two, only blank lines, or nothing
    data = _file_bytes(text)
    assume(len(data) - len(data.split(b"\n")[0]) > cpus)
    path = tmp_path_factory.mktemp("grid") / "grid.csv"
    path.write_bytes(data)
    with pytest.MonkeyPatch.context() as monkeypatch:
        cuts = _force_split(monkeypatch, cpus)
        _equals_record_loop(path, rnd)
    for bounds in cuts:  # each cut made, on line boundaries
        assert len(bounds) == cpus + 1 and bounds[-1] == len(data)
        assert all(data[b - 1 : b] == b"\n" or b == len(data) for b in bounds[1:-1])


# Run in a fresh interpreter (under a timeout, for a deadlock): read a
# file cut into three spans, then print the outcome, the span counts,
# whether each ``_parse_span`` call the parent made had ``seen`` set (a
# child's calls stay in the child), and whether a child process or a
# descriptor outlived the read.
_SPLIT_READ = """
import hashlib, json, os, signal, sys
from foi import panel
path, case = sys.argv[1:]
fds = sorted(os.listdir("/proc/self/fd"))
panel._SPAN_MIN_BYTES = 1
os.sched_getaffinity = lambda pid: {0, 1, 2}
spans, read_spans = [], panel._read_spans
panel._read_spans = lambda path, bounds, *args: spans.append(len(bounds) - 1) or read_spans(path, bounds, *args)
parses, parse_span = [], panel._parse_span
panel._parse_span = lambda *args, **kw: parses.append(kw.get("seen") is not None) or parse_span(*args, **kw)
span_child = panel._span_child
if case == "a child fails before it writes":
    panel._span_child = lambda *args: os._exit(3)
elif case == "a child fails after it writes":
    panel._span_child = lambda *args: span_child(*args) or os._exit(3)
elif case == "SIGCHLD ignored":  # the system reaps each child
    signal.signal(signal.SIGCHLD, signal.SIG_IGN)
elif case == "a fork fails":  # the second of three
    fork, forks = os.fork, []
    def failing_fork():
        forks.append(1)
        if len(forks) == 2:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return fork()
    os.fork = failing_fork
try:
    columns, codes, grid = panel._read_grid(path)
    outcome = [columns, codes, list(grid.shape), hashlib.sha256(grid.tobytes()).hexdigest()]
except Exception as exc:
    outcome = [type(exc).__name__, str(exc)]
try:
    os.waitpid(-1, os.WNOHANG)
    children = "left"
except ChildProcessError:
    children = "none"
print(json.dumps([outcome, spans, parses, children, sorted(os.listdir("/proc/self/fd")) == fds]))
"""


def _large_lines():
    """The lines of a 1500 x 300 panel of over 1 MiB: a header of the
    ids ``v0``..``v299``, then rows ``C0000``..``C1499``."""
    columns = [f"v{j}" for j in range(300)]
    grid = np.random.default_rng(1).integers(100_000, 999_999, size=(1500, 300)) / 1000
    lines = [",".join(["country", *columns])]
    return lines + [",".join([f"C{i:04d}", *map(repr, row)]) for i, row in enumerate(grid.tolist())]


# the slow-lane parses the parent makes: one when a span fails or the
# file holds a repeated code or an infinite cell, none otherwise; a child
# that exits with an error after it sent its whole span has not failed
@pytest.mark.skipif(sys.platform != "linux", reason="only Linux splits a file")
@pytest.mark.parametrize("case, parses", [
    ("plain", []), ("quote in the first span", []), ("inf in the last span", [True]),
    ("code repeated across spans", [True]), ("a child fails before it writes", [True]),
    ("a child fails after it writes", []), ("SIGCHLD ignored", []), ("a quote in the last span", []),
    ("a bad cell in the middle span and a repeated code after it", [True]), ("a fork fails", [True]),
])
def test_split_read_of_a_large_file_ends_as_the_record_loop(tmp_path, case, parses):
    # each span holds far more than a pipe buffer, so a child blocks on
    # its pipe until the parent reads or closes it
    lines = _large_lines()
    if case == "quote in the first span":
        lines[3] = lines[3].replace("C0002", '"C0002"')
    elif case == "inf in the last span":
        code, _, rest = lines[-2].split(",", 2)
        lines[-2] = ",".join([code, "inf", rest])
    elif case == "code repeated across spans":
        lines[-1] = lines[-1].replace("C1499", "C0001")
    elif case == "a quote in the last span":
        lines[-3] = lines[-3].replace("C1497", '"C1497"')
    elif case == "a bad cell in the middle span and a repeated code after it":
        code, _, rest = lines[750].split(",", 2)
        lines[750] = ",".join([code, "oops", rest])
        lines[1200] = lines[1200].replace("C1199", "C0001")
    path = tmp_path / "large.csv"
    path.write_text("\n".join(lines) + "\n")
    assert path.stat().st_size >= 1 << 20
    want = _outcome(_read_records, path)
    if len(want) == 4:
        want = [want[0], want[1], list(want[2]), hashlib.sha256(want[3]).hexdigest()]
    else:
        want = [want[0].__name__, want[1]]
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c", _SPLIT_READ, str(path), case],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0 and not proc.stderr, proc.stderr
    assert json.loads(proc.stdout) == [want, [3], parses, "none", True]


@pytest.mark.parametrize("case", ["an unknown column", "an absent indicator"])
def test_header_error_of_a_large_file_comes_before_its_data(tmp_path, monkeypatch, case):
    # a bad cell in the data too: the header's error is raised, and no
    # span is forked or parsed
    lines = _large_lines()
    manifest = manifest_from_records([
        {"id": f"v{j}", "name": "x", "pillar": "FOI"[j % 3], "direction": "higher_is_better", "source": "t"}
        for j in range(300)
    ])
    if case == "an unknown column":
        lines[0] = lines[0].replace(",v7,", ",xyz,")
        message = "unknown indicator column 'xyz'"
    else:
        lines = [line[: line.index(",")] + line[line.index(",", line.index(",") + 1) :] for line in lines]
        message = "no column for manifest indicators v0"
    code, _, rest = lines[750].split(",", 2)
    lines[750] = ",".join([code, "oops", rest])
    path = tmp_path / "large.csv"
    path.write_text("\n".join(lines) + "\n")
    assert path.stat().st_size - len(lines[0]) >= 1 << 20
    _force_split(monkeypatch, 3)
    calls = []
    fork, parse_span = panel._fork, panel._parse_span
    monkeypatch.setattr(panel, "_fork", lambda *args: calls.append("fork") or fork(*args))
    monkeypatch.setattr(panel, "_parse_span", lambda *args, **kw: calls.append("parse") or parse_span(*args, **kw))
    with pytest.raises(SchemaError) as exc:
        load_panel(path, manifest)
    assert str(exc.value) == f"{path}: {message}" and calls == []


def csv_writer_grid(columns, codes, values):
    """The writer ``_write_grid`` replaced: every row through ``csv.writer``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["country", *columns])
    for code, row in zip(codes, values.tolist()):
        writer.writerow([code, *["" if math.isnan(v) else repr(v) for v in row]])
    return buf.getvalue()


@settings(max_examples=300)
@given(st.data())
def test_grid_writer_equals_csv_writer(data):
    # codes and ids with commas, quotes, CR/LF, spaces, unicode, or empty;
    # nan, infinite, signed-zero, tiny and huge cells; no columns at all
    text = st.text(st.sampled_from('AZaz09 ,"\r\n\t;é\u2028\U0001f600'), max_size=5)
    p = data.draw(st.integers(0, 4))
    columns = data.draw(st.lists(text, min_size=p, max_size=p))
    codes = data.draw(st.lists(text, max_size=6))
    cells = st.one_of(st.floats(), st.sampled_from([math.nan, -0.0, 5e-324, 1e308]))
    values = data.draw(hnp.arrays(float, (len(codes), p), elements=cells))
    buf = io.StringIO()
    _write_grid(buf, columns, codes, values)
    assert buf.getvalue() == csv_writer_grid(columns, codes, values)


@st.composite
def writer_grids(draw):
    """Column ids, codes and a float grid for ``_write_grid``: ids and codes
    with commas, quotes, CR/LF, spaces, unicode, or empty; nan, infinite,
    signed-zero, subnormal and huge cells."""
    text = st.text(st.sampled_from('AZaz09 ,"\r\n\t;é\u2028\U0001f600'), max_size=5)
    p = draw(st.integers(0, 4))
    columns = draw(st.lists(text, min_size=p, max_size=p))
    codes = draw(st.lists(text, max_size=6))
    cells = st.one_of(st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308]))
    return columns, codes, draw(hnp.arrays(float, (len(codes), p), elements=cells))


@pytest.mark.skipif(sys.platform != "linux", reason="only Linux splits a grid")
@settings(max_examples=200)
@given(writer_grids(), st.integers(2, 4))
@example((["a", "b", "c", "d"], ['"x"'], np.array([[math.nan, -0.0, 5e-324, -math.inf]])), 3)  # blocks of no rows
@example(([], ["", "A"], np.empty((2, 0))), 2)  # no cells: no split
def test_split_grid_writer_equals_csv_writer(grid, cpus):
    # every grid of at least two cells cut into two to four row blocks,
    # some of no rows when there are fewer rows than CPUs
    columns, codes, values = grid
    forks, fork = [], panel._fork
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(panel, "_WRITE_MIN_CELLS", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(panel, "_fork", lambda work, pipes: forks.append(1) or fork(work, pipes))
        buf = io.StringIO()
        _write_grid(buf, columns, codes, values)
    assert buf.getvalue() == csv_writer_grid(columns, codes, values)
    blocks = min(cpus, values.size)
    assert len(forks) == (blocks - 1 if blocks > 1 else 0)


# Run in a fresh interpreter (under a timeout, for a deadlock): `foi
# rescale` in process with three usable CPUs, so a grid above the split
# size is written in three blocks (or, for "unsplit", in one); then write
# to the file REPORT the number of forks, whether a child process
# outlived the write, and whether a descriptor did, and exit as `foi`.
# A failing child sends the first bytes of the frame of `panel._send`,
# its 8-byte length and then its block's bytes, and exits 3.
_SPLIT_WRITE = """
import json, os, signal, sys
from foi import panel
from foi.cli import main
case, report, *argv = sys.argv[1:]
fds = sorted(os.listdir("/proc/self/fd"))
os.sched_getaffinity = lambda pid: {0, 1, 2}
forks, fork = [], panel._fork
panel._fork = lambda work, pipes: forks.append(1) or fork(work, pipes)
def send_and_fail(work, dump, block, w, keep):  # keep: the bytes of the block sent
    data = dump(work(block))
    with open(w, "wb") as out:
        out.write((len(data).to_bytes(8, "little") + data)[: 8 + keep(data)])
    os._exit(3)
keep = {
    "a child fails after part of its block": lambda data: sum(map(len, data.splitlines(True)[:9])),
    "a child dies mid-frame": lambda data: len(data) // 2,
    "a child fails after it writes": len,
}
if case == "unsplit":
    panel._WRITE_MIN_CELLS = 1 << 62
elif case == "a child fails before it writes":
    panel._send = lambda *args: os._exit(3)
elif case in keep:
    panel._send = lambda *args: send_and_fail(*args, keep[case])
elif case == "SIGCHLD ignored":  # the system reaps each child
    signal.signal(signal.SIGCHLD, signal.SIG_IGN)
elif case == "a fork fails":  # the second of two
    real_fork, fork_calls = os.fork, []
    def failing_fork():
        fork_calls.append(1)
        if len(fork_calls) == 2:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return real_fork()
    os.fork = failing_fork
status = main(argv)
try:
    os.waitpid(-1, os.WNOHANG)
    children = "left"
except ChildProcessError:
    children = "none"
same_fds = sorted(os.listdir("/proc/self/fd")) == fds
with open(report, "w") as fh:
    json.dump([len(forks), children, same_fds], fh)
sys.exit(status)
"""


def _split_write_panel(tmp_path):
    """A panel under the built-in manifest with enough rows to be written
    in three blocks, each far larger than a pipe buffer."""
    ids = default_manifest().ids
    rows = 3 * panel._WRITE_MIN_CELLS // len(ids) + 100
    grid = np.random.default_rng(2).integers(100_000, 999_999, size=(rows, len(ids))) / 1000
    lines = [",".join(["country", *ids])]
    lines += [",".join([f"C{i:05d}", *map(repr, row)]) for i, row in enumerate(grid.tolist())]
    return write(tmp_path, "\n".join(lines) + "\n")


def _split_write(tmp_path, case, out, stdout=subprocess.DEVNULL):
    """Start ``_SPLIT_WRITE`` on ``rescale --out out``; return the process
    and the path its report goes to."""
    report = tmp_path / f"report {case}.json"
    argv = ["rescale", "--panel", str(tmp_path / "panel.csv"), "--out", out]
    proc = subprocess.Popen(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c", _SPLIT_WRITE, case, str(report), *argv],
        env=dict(os.environ, PYTHONPATH=SRC), stdout=stdout, stderr=subprocess.PIPE, text=True,
    )
    return proc, report


def _finish(proc, report, forks):
    """Wait for ``proc``; return its exit status and stderr after checking
    that it forked ``forks`` times and left no child and no descriptor."""
    with proc:  # on a timeout: killed, then waited on
        try:
            stderr = proc.communicate(timeout=60)[1]
        finally:
            proc.kill()
    assert json.loads(report.read_text()) == [forks, "none", True], stderr
    return proc.returncode, stderr


@pytest.mark.skipif(sys.platform != "linux", reason="only Linux splits a grid")
@pytest.mark.parametrize("case", [
    "plain", "a child fails before it writes", "a child fails after part of its block",
    "a child fails after it writes", "a child dies mid-frame", "SIGCHLD ignored", "a fork fails",
])
def test_split_write_of_a_large_panel_equals_the_unsplit_writer(tmp_path, case):
    _split_write_panel(tmp_path)
    outcomes = []
    for run, out in ((case, tmp_path / "split.csv"), ("unsplit", tmp_path / "unsplit.csv")):
        proc, report = _split_write(tmp_path, run, str(out))
        outcomes.append(_finish(proc, report, 0 if run == "unsplit" else 2))
    assert outcomes == [(0, ""), (0, "")]
    assert (tmp_path / "split.csv").read_bytes() == (tmp_path / "unsplit.csv").read_bytes()


@pytest.mark.skipif(sys.platform != "linux" or not os.path.exists("/dev/full"), reason="only Linux splits a grid")
def test_split_write_to_a_full_device_fails_as_the_unsplit_writer(tmp_path):
    _split_write_panel(tmp_path)
    outcomes = [_finish(*_split_write(tmp_path, run, "/dev/full"), forks) for run, forks in (("plain", 2), ("unsplit", 0))]
    assert outcomes[0] == outcomes[1]
    status, stderr = outcomes[0]
    assert status == 1 and stderr.startswith("foi rescale: ") and stderr.count("\n") == 1, stderr


@pytest.mark.skipif(sys.platform != "linux", reason="only Linux splits a grid")
def test_split_write_to_a_closed_stdout_fails_as_the_unsplit_writer(tmp_path):
    # as `foi rescale --out - | head -c 100`: a quiet end, with the status
    # a shell gives a filter that SIGPIPE ended
    _split_write_panel(tmp_path)
    outcomes = []
    for run, forks in (("plain", 2), ("unsplit", 0)):
        proc, report = _split_write(tmp_path, run, "-", stdout=subprocess.PIPE)
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        outcomes.append(_finish(proc, report, forks))
    assert outcomes[0] == outcomes[1] == (141, "")
