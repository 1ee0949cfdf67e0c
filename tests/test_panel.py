import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from foi.errors import DuplicateCountryError, PanelParseError, SchemaError
from foi.manifest import default_manifest, manifest_from_records
from foi.panel import (
    _read_grid,
    _read_records,
    _read_streamed,
    _write_grid,
    load_panel,
    validate_panel,
    write_panel,
)

from conftest import make_manifest, make_panel

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


# ------------------------------------------- streamed parse against the loop


def test_streamed_parse_takes_plain_files(tmp_path):
    # empty cells anywhere in a row, runs of them, blank lines, CRLF and
    # a last line without a terminator stay on the fast path
    text = "country,a,b,c\r\nAAA,,2,\r\n\r\nBBB,,,\r\nCCC, 1.5 ,nan,-3e2"
    path = tmp_path / "plain.csv"
    path.write_bytes(text.encode())
    got = _read_streamed(path, ("c", "a", "b"))
    want = _read_records(path)
    assert got[0] == ["c", "a", "b"] and got[1] == want[1] == ["AAA", "BBB", "CCC"]
    assert got[2].tobytes() == want[2][:, [2, 0, 1]].tobytes()


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
])
_ODD_CODES = st.sampled_from(["AAA", "BBB", " AAA ", '"BBB"', '"C,C"', "", "  "])


@st.composite
def grid_files(draw):
    """CSV text with numbers, empty cells and blank lines, LF or CRLF line
    ends, and up to two kinds of odd input: repeated headers, lines of
    whitespace or commas, short and long rows, rows with one
    whitespace-only, infinite, unparsable or quoted cell, and repeated,
    quoted or empty codes."""
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


def _outcome(read, path, *args):
    try:
        columns, codes, grid = read(path, *args)
    except Exception as exc:
        return type(exc), str(exc)
    return columns, codes, grid.shape, grid.tobytes()


@settings(max_examples=400)
@given(grid_files(), st.randoms(use_true_random=False))
def test_streamed_reader_equals_record_loop(tmp_path_factory, text, rnd):
    path = tmp_path_factory.mktemp("grid") / "grid.csv"
    path.write_bytes(text.encode())
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
