import contextlib
import csv
import functools
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import foi
from foi import factor, pillar
from foi.classify import CLUSTER_LABELS, CLUSTER_LEVELS
from foi.cli import main
from foi.manifest import DIRECTIONS, default_manifest
from foi.panel import load_panel
from foi.rescale import rescale_panel

DATA = resources.files("foi.data")
PANEL_2010 = str(DATA / "demo_panel_2010.csv")
PANEL_2020 = str(DATA / "demo_panel_2020.csv")
FA_PANEL = str(DATA / "demo_fa_panel.csv")

# the benchmark's oracle, written without foi, as an independent check of
# the verbs' outputs
_ORACLE_SPEC = importlib.util.spec_from_file_location(
    "perfbench_oracle", Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
)
oracle = sys.modules["perfbench_oracle"] = importlib.util.module_from_spec(_ORACLE_SPEC)
_ORACLE_SPEC.loader.exec_module(oracle)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_ingest(capsys):
    code, out, err = run(capsys, "ingest", "--panel", PANEL_2020, "--format", "json")
    assert code == 0 and not err
    payload = json.loads(out)
    assert payload["countries"] == 34
    assert payload["indicators"] == 24
    assert 0.9 < payload["coverage"] <= 1.0


def test_rescale_stdout(capsys):
    code, out, _ = run(capsys, "rescale", "--panel", PANEL_2020)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 35
    assert lines[0].startswith("country,")


def test_indices_table_format(capsys):
    code, out, _ = run(capsys, "indices", "--panel", PANEL_2020, "--epoch", "2020")
    assert code == 0
    assert "F-index" in out.splitlines()[0]
    assert "(" in out  # rank in parentheses


def test_classify_json(capsys):
    code, out, _ = run(
        capsys, "classify", "--panel", PANEL_2020, "--epoch", "2020", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["assignments"]) == 34
    assert all(1 <= a["cluster"] <= 8 for a in payload["assignments"])


def test_shift(capsys):
    code, out, _ = run(
        capsys,
        "shift",
        "--panel-a", PANEL_2010, "--panel-b", PANEL_2020,
        "--epoch-a", "2010", "--epoch-b", "2020",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["shifts"]) == 34
    assert sum(sum(row) for row in payload["transitions"]) == 34


def test_factors(capsys, tmp_path):
    scores_path = tmp_path / "scores.csv"
    code, out, _ = run(
        capsys, "factors", "--panel", FA_PANEL, "--factors-k", "2",
        "--scores-out", str(scores_path),
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["eigenvalues"]) == 12
    assert payload["bartlett"]["df"] == 66
    text = scores_path.read_text().splitlines()
    assert text[0] == "country,factor1,factor2"
    assert len(text) == 35


def test_verify_epoch_2020(capsys):
    code, out, _ = run(capsys, "verify", "--epoch", "2020")
    assert code == 0
    assert "30/34" in out


def test_verify_strict_exit_code(capsys):
    code, _, _ = run(capsys, "verify", "--epoch", "2020", "--strict-verify")
    assert code == 3


def test_missing_file_is_input_error(capsys, tmp_path):
    code, _, err = run(capsys, "indices", "--panel", str(tmp_path / "nope.csv"))
    assert code == 1
    assert err


def test_bad_manifest_is_input_error(capsys, tmp_path):
    bad = tmp_path / "manifest.json"
    bad.write_text("{}")
    code, _, err = run(capsys, "indices", "--panel", PANEL_2020, "--manifest", str(bad))
    assert code == 1 and err


def test_export_round_trip(capsys, tmp_path):
    json_path = tmp_path / "scores.json"
    code, _, _ = run(
        capsys, "indices", "--panel", PANEL_2020, "--format", "json", "--out", str(json_path)
    )
    assert code == 0
    code, out_csv, _ = run(capsys, "export", "--in", str(json_path), "--format", "csv")
    assert code == 0
    assert out_csv.splitlines()[0].startswith("country,f_index")
    # json round-trips to identical in-memory values
    code, out_json, _ = run(capsys, "export", "--in", str(json_path), "--format", "json")
    assert json.loads(out_json) == json.loads(json_path.read_text())


ROW = {"country": "AUS", "f_index": 4.5, "f_rank": 1, "o_index": 3.0, "o_rank": 1, "i_index": None, "i_rank": 1}
# two rows whose ranks contradict their indices: AUS ranks below BEL in F
PAIR = [{**ROW, "f_index": 2.0}, {**ROW, "country": "BEL", "f_index": 5.0, "o_index": 2.0, "o_rank": 2, "i_rank": 9}]
CELL = {"country": "AUS", "levels": "HHH", "cluster": 8, "label": "Human capital-based", "borderline": ["O"]}


@pytest.mark.parametrize(
    "document, message",
    [
        ({"assignments": [CELL, {**CELL, "country": "BEL", "levels": "LLL", "label": "Traditional"}]},
         r"assignments row 2 \('BEL'\): 'levels' 'LLL' contradicts 'HHH'$"),
        ({"assignments": [{**CELL, "label": "Traditional"}]},
         r"assignments row 1 \('AUS'\): 'label' 'Traditional' contradicts 'Human capital-based'$"),
        ({"assignments": [{**CELL, "cluster": 9}]}, r"assignments row 1: 'cluster' cannot be 9"),
        ({"assignments": [{**CELL, "cluster": True}]}, r"assignments row 1: 'cluster' cannot be True"),
        ({"assignments": [{**CELL, "borderline": ["O", "X"]}]}, r"assignments row 1: 'borderline' cannot be \['O', 'X'\]"),
        ({"assignments": [{**CELL, "borderline": "FO"}]}, r"assignments row 1: 'borderline' cannot be 'FO'"),
        ({"scores": [ROW, {k: v for k, v in ROW.items() if k != "o_index"}]}, r"scores row 2 has no 'o_index'"),
        ({"scores": 5}, r"'scores' must be a list of rows, got 5"),
        ({"scores": [ROW, [1, 2]]}, r"scores row 2 has no 'country'"),
        ({"scores": [{**ROW, "f_index": "4.5"}]}, r"scores row 1: 'f_index' cannot be '4.5'"),
        ({"scores": [{**ROW, "o_index": math.inf}]}, r"scores row 1: 'o_index' cannot be inf"),
        ({"scores": [{**ROW, "i_rank": 1.0}]}, r"scores row 1 \('AUS'\): 'i_rank' 1.0 contradicts 1$"),
        ({"scores": [{**ROW, "o_rank": True}]}, r"scores row 1 \('AUS'\): 'o_rank' True contradicts 1$"),
        ({"scores": [{**ROW, "i_rank": None}]}, r"scores row 1 \('AUS'\): 'i_rank' None contradicts 1$"),
        ({"scores": [{k: v for k, v in ROW.items() if k != "i_rank"}]}, r"scores row 1 has no 'i_rank'$"),
        ({"scores": PAIR}, r"scores row 1 \('AUS'\): 'f_rank' 1 contradicts 2$"),
        ({"scores": [{**PAIR[0], "f_rank": 2}, PAIR[1]]}, r"scores row 2 \('BEL'\): 'i_rank' 9 contradicts 2$"),
        ({"scores": [ROW, {**ROW, "f_rank": 4}]}, r"scores row 2: country 'AUS' repeats row 1"),
        ({"assignments": [CELL, {**CELL, "country": "BEL"}, CELL]}, r"assignments row 3: country 'AUS' repeats row 1"),
        ({"epoch": "x", "scores": [ROW]}, r": 'epoch' cannot be 'x'$"),
        ({"epoch": [1, 2], "scores": [ROW]}, r": 'epoch' cannot be \[1, 2\]$"),
        ({"epoch": True, "scores": [ROW]}, r": 'epoch' cannot be True$"),
        (["scores"], r"unrecognized result document"),
    ],
)
def test_export_rejects_a_malformed_or_contradictory_document(capsys, tmp_path, document, message):
    path = tmp_path / "result.json"
    path.write_text(json.dumps(document))
    code, out, err = run(capsys, "export", "--in", str(path), "--format", "table")
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and re.search(message, err), err


def test_export_takes_levels_and_label_from_the_cluster_id(capsys, tmp_path):
    path = tmp_path / "result.json"
    path.write_text(json.dumps({"assignments": [CELL, {**CELL, "country": "BEL", "levels": "HLH", "cluster": 6, "label": "-"}]}))
    code, out, _ = run(capsys, "export", "--in", str(path), "--format", "csv")
    assert code == 0
    assert out == "country,levels,cluster,label,borderline\nAUS,HHH,8,Human capital-based,O\nBEL,HLH,6,-,O\n"
    path.write_text(json.dumps({"scores": [ROW]}))
    code, out, _ = run(capsys, "export", "--in", str(path), "--format", "table")
    assert code == 0 and out.splitlines()[1].split() == ["AUS", "4.5", "(1)", "3", "(1)"]
    # rows in any order, each with the ranks of its indices
    path.write_text(json.dumps({"scores": [{**PAIR[1], "f_rank": 1, "i_rank": 2}, {**PAIR[0], "f_rank": 2}]}))
    code, out, _ = run(capsys, "export", "--in", str(path), "--format", "csv")
    assert (code, out.splitlines()[1:]) == (0, ["AUS,2.0,2,3.0,1,,1", "BEL,5.0,1,2.0,2,,2"])


def test_export_takes_no_shift_document_and_its_help_does_not_name_shift(capsys, tmp_path):
    path = tmp_path / "shift.json"
    assert run(capsys, "shift", "--panel-a", PANEL_2010, "--panel-b", PANEL_2020, "--format", "json",
               "--out", str(path))[0] == 0
    message = f"foi export: {path}: unrecognized result document (no 'scores' or 'assignments' key)\n"
    assert run(capsys, "export", "--in", str(path)) == (1, "", message)
    with pytest.raises(SystemExit):
        main(["export", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "JSON file from indices/classify" in text and "shift" not in text


@pytest.mark.parametrize(
    "argv",
    [
        ("ingest", "--panel", PANEL_2020, "--format", "json"),
        ("rescale", "--panel", PANEL_2020),
        ("indices", "--panel", PANEL_2020, "--format", "csv"),
        ("classify", "--panel", PANEL_2020, "--format", "json"),
        (
            "shift",
            "--panel-a", PANEL_2010, "--panel-b", PANEL_2020, "--format", "json",
        ),
        ("factors", "--panel", FA_PANEL),
        ("verify", "--epoch", "2010", "--format", "json"),
    ],
)
def test_subcommands_deterministic(capsys, argv):
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


@pytest.mark.parametrize(
    "argv", [("ingest", "--panel", PANEL_2020), ("verify", "--epoch", "2020")]
)
def test_csv_format_rejected_where_there_is_no_csv_form(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--format", "csv"])
    assert exc.value.code == 2
    assert "invalid choice: 'csv'" in capsys.readouterr().err


def test_infinite_cell_is_input_error(capsys, tmp_path):
    lines = Path(PANEL_2020).read_text(encoding="utf-8").splitlines()
    cells = lines[3].split(",")
    cells[5] = "inf"
    lines[3] = ",".join(cells)
    path = tmp_path / "panel.csv"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "indices", "--panel", str(path))
    assert code == 1 and not out
    assert "row 3" in err and lines[0].split(",")[5] in err


def _strict_left_out(path):
    manifest = default_manifest()
    scores = pillar.compute_pillar_scores(
        rescale_panel(load_panel(path, manifest), manifest), manifest, missing_policy="strict"
    )
    missing = np.isnan(np.column_stack(list(scores.index.values()))).any(axis=1)
    return {code for code, m in zip(scores.countries, missing) if m}


def test_classify_strict_policy_leaves_out_unclassifiable_countries(capsys):
    left_out = _strict_left_out(PANEL_2020)
    assert left_out  # the demo panel has countries missing a component
    code, out, err = run(
        capsys, "classify", "--panel", PANEL_2020, "--missing-policy", "strict", "--format", "json"
    )
    assert code == 0
    assert err.count("\n") == 1 and err.rstrip().endswith(", ".join(sorted(left_out)))
    countries = {a["country"] for a in json.loads(out)["assignments"]}
    assert countries.isdisjoint(left_out) and len(countries) == 34 - len(left_out)


def test_shift_strict_policy_leaves_out_countries_of_either_epoch(capsys, tmp_path):
    left_out = _strict_left_out(PANEL_2010) | _strict_left_out(PANEL_2020)
    argv = ["shift", "--panel-a", PANEL_2010, "--missing-policy", "strict", "--format", "json"]
    code, out, err = run(capsys, *argv, "--panel-b", PANEL_2020)
    assert code == 0
    assert err.count("\n") == 1 and err.rstrip().endswith(", ".join(sorted(left_out)))
    payload = json.loads(out)
    assert {s["country"] for s in payload["shifts"]}.isdisjoint(left_out)
    assert len(payload["shifts"]) == 34 - len(left_out)
    assert sum(sum(row) for row in payload["transitions"]) == 34 - len(left_out)
    # a country absent from one panel is a mismatch even when it would be left out
    gone = min(left_out)
    lines = Path(PANEL_2020).read_text(encoding="utf-8").splitlines()
    smaller = tmp_path / "panel.csv"
    smaller.write_text("\n".join(x for x in lines if not x.startswith(gone + ",")) + "\n")
    code, out, err = run(capsys, *argv, "--panel-b", str(smaller))
    assert code == 1 and not out
    assert f"only in first epoch [{gone!r}], only in second []" in err


def test_factors_warns_when_varimax_does_not_converge(capsys, monkeypatch):
    argv = ("factors", "--panel", FA_PANEL, "--factors-k", "3")
    code, _, err = run(capsys, *argv)
    assert code == 0 and not err
    monkeypatch.setattr(factor, "varimax_rotate", functools.partial(factor.varimax_rotate, max_iter=1))
    code, out, err = run(capsys, *argv)
    assert code == 0 and json.loads(out)["converged"] is False
    assert err.count("\n") == 1 and "varimax rotation did not converge" in err


def test_factors_on_one_variable_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("country,v0\n" + "".join(f"C{i},{i * i}\n" for i in range(10)))
    code, out, err = run(capsys, "factors", "--panel", str(path))
    assert code == 1 and not out
    assert "needs at least two variables" in err


SRC = str(Path(foi.__file__).resolve().parents[1])


def _modules_after(code, roots=("scipy",)):
    """The modules under ``roots`` loaded once ``code`` has run in a fresh
    interpreter."""
    listing = f"import sys; print(sorted(m for m in sys.modules if m.split('.')[0] in {roots!r}), file=sys.stderr)"
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\n{listing}"],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stderr.splitlines()[-1]


def test_import_cli_loads_no_scipy():
    assert _modules_after("import foi.cli") == "[]"


def test_import_cli_loads_no_hashlib_or_decimal():
    # only `verify` hashes, and only a table of indices rounds half up
    assert _modules_after("import foi.cli", ("hashlib", "_hashlib", "decimal", "_decimal")) == "[]"


def test_classify_loads_no_scipy():
    argv = ["classify", "--panel", PANEL_2020, "--format", "json"]
    code = f"import foi.cli\nassert foi.cli.main({argv!r}) == 0"
    assert _modules_after(code) == "[]"


def test_factors_loads_scipy_special_but_not_scipy_stats():
    code = f"import foi.cli\nassert foi.cli.main({['factors', '--panel', FA_PANEL]!r}) == 0"
    loaded = _modules_after(code)
    assert "'scipy.special'" in loaded and "'scipy.stats'" not in loaded


@pytest.mark.parametrize("missing", ["pairwise", "listwise"])
def test_factors_loads_no_scipy_when_the_p_value_underflows(tmp_path, missing):
    # chi2 = 14 921 on 435 df: the tail bound is e^-6474, so p is 0.0
    data, _ = factor.synthesize_known_factors(p=30, k=3, n=300, seed=0)
    path = tmp_path / "wide.csv"
    rows = (",".join([code, *map(repr, row)]) for code, row in zip(data.rows, data.values.tolist()))
    path.write_text("\n".join([",".join(["country", *data.variables]), *rows]) + "\n")
    argv = ["factors", "--panel", str(path), "--factors-k", "3", "--missing", missing]
    code = f"import foi.cli\nassert foi.cli.main({argv!r}) == 0"
    assert _modules_after(code) == "[]"


def _threads_after_import_foi(**env):
    """The BLAS thread setting and the thread count of a fresh
    interpreter once it has imported ``foi``, under ``env``."""
    env = dict({k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}, PYTHONPATH=SRC, **env)
    code = "import os, foi; print(os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir('/proc/self/task')))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


needs_proc = pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux's /proc")


@needs_proc
def test_import_foi_starts_no_blas_thread():
    assert _threads_after_import_foi() == ["1", "1"]


@needs_proc
def test_import_foi_keeps_a_blas_thread_count_the_caller_set():
    assert _threads_after_import_foi(OPENBLAS_NUM_THREADS="2")[0] == "2"


@pytest.mark.parametrize("record", ['"Y\nZ,3",4', '"Y\nZ",x,4'], ids=["cell_count", "parse"])
def test_reader_error_on_a_code_with_a_line_feed_is_one_line(capsys, tmp_path, record):
    manifest = tmp_path / "manifest.json"
    specs = [{"id": i, "name": i, "pillar": "F", "direction": "higher_is_better", "source": "t"} for i in "ab"]
    manifest.write_text(json.dumps(specs))
    panel = tmp_path / "panel.csv"
    panel.write_text(f"country,a,b\nX,1,2\n{record}\n")
    code, out, err = run(capsys, "ingest", "--panel", str(panel), "--manifest", str(manifest))
    assert code == 1 and not out
    assert err.count("\n") == 1 and "row 2 ('Y\\nZ" in err


def _demo_without(tmp_path, column):
    """demo_panel_2020.csv without one indicator column."""
    rows = [line.split(",") for line in Path(PANEL_2020).read_text(encoding="utf-8").splitlines()]
    j = rows[0].index(column)
    path = tmp_path / "panel.csv"
    path.write_text("".join(",".join(r[:j] + r[j + 1 :]) + "\n" for r in rows))
    return str(path)


@pytest.mark.parametrize("verb", ["ingest", "rescale", "indices", "classify", "shift"])
def test_panel_without_a_manifest_indicator_is_an_input_error(capsys, tmp_path, verb):
    # read silently, this panel would move AUS's F index from 4.0886 to 4.0389
    path = _demo_without(tmp_path, "social_responsibility")
    argv = ["--panel-a", PANEL_2010, "--panel-b", path] if verb == "shift" else ["--panel", path]
    code, out, err = run(capsys, verb, *argv)
    assert code == 1 and not out
    assert "no column for manifest indicators social_responsibility" in err


def test_constant_columns_are_named_in_one_warning(capsys, tmp_path):
    rows = [line.split(",") for line in Path(PANEL_2020).read_text(encoding="utf-8").splitlines()]
    names = [rows[0][1], rows[0][7]]
    for r in rows[1:]:
        r[1] = r[7] = "5"
    path = tmp_path / "constant.csv"
    path.write_text("".join(",".join(r) + "\n" for r in rows))
    for verb in ("rescale", "classify"):
        code, out, err = run(capsys, verb, "--panel", str(path))
        assert code == 0 and out
        assert err == f"foi {verb}: warning: constant columns mapped to 4.0: {', '.join(names)}\n"


def test_shift_names_the_panel_of_each_constant_column_warning(capsys, tmp_path):
    header, *rows = [line.split(",") for line in Path(PANEL_2020).read_text(encoding="utf-8").splitlines()]
    panels = []
    for j, name in ((1, "a.csv"), (7, "b.csv")):
        path = tmp_path / name
        path.write_text("".join(",".join(r) + "\n" for r in [header, *(r[:j] + ["5"] + r[j + 1 :] for r in rows)]))
        panels.append((path, header[j]))
    code, out, err = run(capsys, "shift", "--panel-a", str(panels[0][0]), "--panel-b", str(panels[1][0]))
    assert code == 0 and out
    assert err == "".join(f"foi shift: warning: {path}: constant columns mapped to 4.0: {name}\n" for path, name in panels)


@pytest.mark.parametrize("verb", ["rescale", "indices", "classify", "shift"])
def test_column_whose_span_overflows_is_an_input_error(capsys, tmp_path, verb):
    # 1e308 - (-1e308) is inf: read silently, every cell of the column
    # would rescale to nan or 1.0
    rows = [line.split(",") for line in Path(PANEL_2020).read_text(encoding="utf-8").splitlines()]
    rows[1][3], rows[2][3] = "1e308", "-1e308"
    path = tmp_path / "overflow.csv"
    path.write_text("".join(",".join(r) + "\n" for r in rows))
    argv = ["--panel-a", PANEL_2010, "--panel-b", str(path)] if verb == "shift" else ["--panel", str(path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, verb, *argv)
    assert code == 1 and not out
    assert err == f"foi {verb}: indicator {rows[0][3]!r}: the span of its observed values overflows\n"


def _latin1_in(path, tmp_path, name, after):
    """A copy of ``path`` with the Latin-1 byte 0xe9 put just after the
    first ``after``."""
    data = Path(path).read_bytes()
    out = tmp_path / name
    out.write_bytes(data.replace(after, after + b"\xe9", 1))
    return str(out)


@pytest.mark.parametrize("verb, panel", [("classify", PANEL_2020), ("factors", FA_PANEL)])
def test_panel_that_is_not_utf8_is_an_input_error(capsys, tmp_path, verb, panel):
    # the byte sits in the code of data row 3
    data = Path(panel).read_bytes().split(b"\n")
    path = _latin1_in(panel, tmp_path, "latin1.csv", b"\n" + data[3].split(b",")[0])
    code, out, err = run(capsys, verb, "--panel", path)
    assert code == 1 and not out
    assert err == f"foi {verb}: {path}: row 3: byte 0xe9 is not UTF-8 text\n"


@pytest.mark.parametrize("verb, panel", [("ingest", PANEL_2020), ("factors", FA_PANEL)])
def test_byte_order_mark_before_the_header_changes_no_output(capsys, tmp_path, verb, panel):
    # Excel's "CSV UTF-8" starts with EF BB BF, which must not make the
    # verb say "first header column must be 'country'"
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + Path(panel).read_bytes())
    assert run(capsys, verb, "--panel", str(marked)) == run(capsys, verb, "--panel", panel)


def test_manifest_that_is_not_utf8_is_an_input_error(capsys, tmp_path):
    manifest = str(DATA / "manifest_default.json")
    path = _latin1_in(manifest, tmp_path, "manifest.json", b'"name": "')
    code, out, err = run(capsys, "classify", "--panel", PANEL_2020, "--manifest", path)
    assert code == 1 and not out
    assert err.startswith(f"foi classify: {path}: not UTF-8 text") and err.count("\n") == 1


def _default_records_with(index, key, value):
    records = json.loads((DATA / "manifest_default.json").read_text(encoding="utf-8"))
    records[index][key] = value
    return records


@pytest.mark.parametrize("records, message", [
    ([1], "manifest record 0 is not an object"),
    (_default_records_with(3, "component", ["x"]), "manifest record 3: 'component' must be a string, got ['x']"),
    (_default_records_with(5, "id", ["x"]), "manifest record 5: 'id' must be a string, got ['x']"),
    (_default_records_with(7, "id", 7), "manifest record 7: 'id' must be a string, got 7"),
])
def test_manifest_record_of_the_wrong_type_is_an_input_error(capsys, tmp_path, records, message):
    # the parent ended in a TypeError traceback, or for an integer id
    # named an "unknown indicator column"
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(records))
    code, out, err = run(capsys, "classify", "--panel", PANEL_2020, "--manifest", str(path))
    assert (code, out, err) == (1, "", f"foi classify: {message}\n")


def test_manifest_that_is_not_json_is_an_input_error(capsys, tmp_path):
    # the parent named no file: "foi classify: Expecting ',' delimiter: ..."
    path = tmp_path / "manifest.json"
    for text, message in (('[{"id":"a"', "not JSON (Expecting ',' delimiter"),
                          ("{}", "manifest JSON must be an array of spec objects")):
        path.write_text(text)
        code, out, err = run(capsys, "classify", "--panel", PANEL_2020, "--manifest", str(path))
        assert code == 1 and not out
        assert err.startswith(f"foi classify: {path}: {message}") and err.count("\n") == 1


def test_export_document_that_is_not_json_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "scores.json"
    path.write_text('{"scores": [\n')
    code, out, err = run(capsys, "export", "--in", str(path))
    assert (code, out, err) == (1, "", f"foi export: {path}: not JSON (Expecting value: line 2 column 1 (char 13))\n")


def test_export_document_that_is_not_utf8_is_an_input_error(capsys, tmp_path):
    doc = tmp_path / "scores.json"
    assert run(capsys, "classify", "--panel", PANEL_2020, "--format", "json", "--out", str(doc))[0] == 0
    path = _latin1_in(doc, tmp_path, "latin1.json", b'"country": "')
    code, out, err = run(capsys, "export", "--in", path)
    assert code == 1 and not out
    assert err.startswith(f"foi export: {path}: not UTF-8 text") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("classify", "--panel", PANEL_2020),
    ("shift", "--panel-a", PANEL_2010, "--panel-b", PANEL_2020),
    ("verify", "--epoch", "2020"),
])
@pytest.mark.parametrize("flag, value, message", [
    ("--threshold", "nan", "threshold must be a finite number in [1, 7], got nan"),
    ("--threshold", "inf", "threshold must be a finite number in [1, 7], got inf"),
    ("--threshold", "9", "threshold must be a finite number in [1, 7], got 9.0"),
    ("--epsilon", "nan", "epsilon must be a finite number >= 0, got nan"),
    ("--epsilon", "-1", "epsilon must be a finite number >= 0, got -1.0"),
])
def test_threshold_or_epsilon_outside_its_domain_is_an_input_error(capsys, argv, flag, value, message):
    # the parent exited 0: every country in cluster 1, `verify` 8/34, or
    # nothing flagged as borderline
    code, out, err = run(capsys, *argv, f"{flag}={value}")
    assert (code, out, err) == (1, "", f"foi {argv[0]}: {message}\n")


@st.composite
def pipeline_inputs(draw):
    """A manifest's records, and a panel's codes, file columns and cells:
    three to six indicators, each pillar held by at least one, some
    `lower_is_better`, some sharing a component; two to eight codes, some
    quoted (a comma, a quote) or not ASCII, and one in ten panels with a
    code repeated; cells by ``panel_grid``, given the components."""
    p = draw(st.integers(3, 6))
    pillars = ["F", "O", "I", *draw(st.lists(st.sampled_from("FOI"), min_size=p - 3, max_size=p - 3))]
    records = [
        {"id": f"x{j}", "name": f"x{j}", "pillar": pillar, "direction": draw(st.sampled_from(DIRECTIONS)),
         "source": "test", "component": draw(st.sampled_from(["", "c0", "c1"]))}
        for j, pillar in enumerate(pillars)
    ]
    codes = draw(st.lists(st.text('AB,"\u00e9', min_size=1, max_size=3), min_size=2, max_size=8, unique=True))
    if draw(st.integers(0, 9)) == 9:  # not 0, which hypothesis draws far more often than one time in ten
        codes.append(draw(st.sampled_from(codes)))
    columns = [records[j]["id"] for j in draw(st.permutations(range(p)))]
    return records, codes, columns, draw(panel_grid(len(codes), p, _components(records, columns)))


def _components(records, columns):
    """The positions of ``columns`` grouped by the component that the
    manifest ``records`` put each in."""
    groups = {}
    for j, column in enumerate(columns):
        rec = next(r for r in records if r["id"] == column)
        groups.setdefault((rec["pillar"], rec["component"] or column), []).append(j)
    return list(groups.values())


@st.composite
def panel_grid(draw, n, p, components=()):
    """An n x p grid of cells in eighths, exact in binary, about one in 16
    missing, with up to two constant columns. Given ``components``, lists
    of column positions, seven grids in eight keep an observed cell in
    each column, and of each component in each row, so that more panels
    get past `indices`; the eighth may leave either empty."""
    cells = st.tuples(st.integers(0, 15), st.integers(-2000, 2000)).map(lambda c: math.nan if c[0] == 0 else c[1] / 8)
    values = draw(hnp.arrays(float, (n, p), elements=cells))
    if components and draw(st.integers(0, 7)) != 7:  # 7, not 0: see pipeline_inputs
        for cols in components:
            for i in np.flatnonzero(np.isnan(values[:, cols]).all(axis=1)):
                values[i, draw(st.sampled_from(cols))] = draw(st.integers(-2000, 2000)) / 8
        for j in np.flatnonzero(np.isnan(values).all(axis=0)):
            values[draw(st.integers(0, n - 1)), j] = draw(st.integers(-2000, 2000)) / 8
    for j in draw(st.sets(st.integers(0, p - 1), max_size=2)):
        values[:, j] = np.where(np.isnan(values[:, j]), math.nan, 2.5)
    return values


def _write_inputs(tmp, records, codes, columns, *grids):
    """The manifest file, and a panel file for each grid, under ``tmp``."""
    manifest = os.path.join(tmp, "manifest.json")
    with open(manifest, "w", encoding="utf-8") as fh:
        json.dump(records, fh)
    panels = [os.path.join(tmp, f"panel{i}.csv") for i in range(len(grids))]
    for path, values in zip(panels, grids):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["country", *columns])
            writer.writerows([code, *("" if math.isnan(v) else repr(v) for v in row)] for code, row in zip(codes, values.tolist()))
    return manifest, panels


def _main_in_process(*argv):
    """``main(argv)``'s exit status, stdout and stderr lines."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(list(argv))
    return status, out.getvalue(), err.getvalue().splitlines()


def _answer_or_one_error_line(verb, *argv):
    """Run ``foi verb argv`` in process. On exit 0, return its stdout,
    with no stderr line but ``DataWarning`` lines; otherwise check that it
    exited 1 or 2 with no stdout and one error line after any warning
    lines, and return None."""
    status, out, err = _main_in_process(verb, *argv)
    # a DataWarning (constant columns) is a line of its own
    errors = [line for line in err if not line.startswith(f"foi {verb}: warning: ")]
    if status == 0:
        assert not errors, err
        return out
    assert status in (1, 2) and not out, (status, err)
    assert len(errors) == 1 and errors[0] == err[-1] and errors[0].startswith(f"foi {verb}: "), err
    return None


@pytest.mark.skipif(sys.platform != "linux", reason="only Linux splits the writer and the aggregate")
@settings(max_examples=80)
@given(pipeline_inputs(), st.integers(2, 3))
def test_rescale_and_classify_give_the_oracle_answer_or_one_error_line(inputs, cpus):
    # both block maps split, the writer's and the aggregate's, so that
    # blocks hold a row or two, or none
    records, codes, columns, values = inputs
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(sys.modules["foi.panel"], "_WRITE_MIN_CELLS", 1)
        monkeypatch.setattr(pillar, "_SPLIT_MIN_CELLS", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        manifest, (panel,) = _write_inputs(tmp, records, codes, columns, values)
        for verb, extra, check in (
            ("rescale", ("--out", "-"), oracle.check_rescaled_csv),
            ("classify", ("--format", "json"), oracle.check_classify_json),
        ):
            out = _answer_or_one_error_line(verb, "--panel", panel, "--manifest", manifest, *extra)
            if out is not None:
                check(out, oracle.PanelTruth.build(records, codes, columns, values))


@settings(max_examples=60)
@given(pipeline_inputs(), st.data())
def test_ingest_indices_shift_and_export_give_the_oracle_answer_or_one_error_line(inputs, data):
    # a second grid over the same codes and columns is the later epoch
    records, codes, columns, values = inputs
    later = data.draw(panel_grid(len(codes), len(columns), _components(records, columns)))
    policy = data.draw(st.sampled_from(pillar.MISSING_POLICIES))
    truth = [oracle.PanelTruth.build(records, codes, columns, v) for v in (values, later)]
    with tempfile.TemporaryDirectory() as tmp:
        manifest, (panel_a, panel_b) = _write_inputs(tmp, records, codes, columns, values, later)
        scores, assignments = os.path.join(tmp, "scores.json"), os.path.join(tmp, "assignments.json")
        common = ("--panel", panel_a, "--manifest", manifest, "--epoch", "2020", "--format", "json")
        out = _answer_or_one_error_line("ingest", *common)
        if out is not None:
            oracle.check_ingest_json(out, truth[0])
        out = _answer_or_one_error_line(
            "shift", "--panel-a", panel_a, "--panel-b", panel_b, "--manifest", manifest, "--format", "csv"
        )
        if out is not None:
            oracle.check_shift_csv(out, *truth)
        scored = (*common, "--missing-policy", policy)
        if _answer_or_one_error_line("indices", *scored, "--out", scores) is None:
            return
        text = Path(scores).read_text(encoding="utf-8")
        if policy == "available_mean":  # the only policy the oracle knows
            oracle.check_indices_json(text, truth[0])
            oracle.check_export_csv(_answer_or_one_error_line("export", "--in", scores, "--format", "csv"), json.loads(text))
        assert _answer_or_one_error_line("classify", *scored, "--out", assignments) == ""
        for path, section in ((scores, "scores"), (assignments, "assignments")):
            # an emitted document exports to the same bytes
            text = Path(path).read_text(encoding="utf-8")
            assert _answer_or_one_error_line("export", "--in", path, "--format", "json") == text
            # with one derived value changed, it is rejected at that row and key
            rows = json.loads(text)[section]
            if not rows:  # every country left out under `strict`
                continue
            n = data.draw(st.integers(0, len(rows) - 1))
            if section == "scores":  # another row's rank: each pillar ranks 1..n
                key = data.draw(st.sampled_from(["f_rank", "o_rank", "i_rank"]))
                wrong = rows[(n + data.draw(st.integers(1, len(rows) - 1))) % len(rows)][key]
            else:  # another cluster's levels or label
                key = data.draw(st.sampled_from(["levels", "label"]))
                others = ["".join(v) for v in CLUSTER_LEVELS.values()] if key == "levels" else [*CLUSTER_LABELS.values(), "-"]
                wrong = data.draw(st.sampled_from(sorted(set(others) - {rows[n][key]})))
            right, rows[n][key] = rows[n][key], wrong
            bad = os.path.join(tmp, "changed.json")
            with open(bad, "w", encoding="utf-8") as fh:
                json.dump({section: rows}, fh)
            message = f"{section} row {n + 1} ({rows[n]['country']!r}): {key!r} {wrong!r} contradicts {right!r}"
            assert _main_in_process("export", "--in", bad) == (1, "", [f"foi export: {bad}: {message}"])


@settings(max_examples=100)
@given(st.integers(2, 5), st.integers(3, 10), st.data())
def test_factors_give_the_oracle_answer_or_one_error_line(p, n, data):
    # codes unique by their number, some quoted (a comma, a quote) or not
    # ASCII; a k in [1, p] or `--auto-k`; with and without Kaiser normalization
    codes = [f"C{i}" + data.draw(st.sampled_from(["", ",", '"', "é"])) for i in range(n)]
    columns, values = [f"x{j}" for j in range(p)], data.draw(panel_grid(n, p))
    missing = data.draw(st.sampled_from(["pairwise", "listwise"]))
    k = data.draw(st.none() | st.integers(1, p))
    flags = (["--auto-k"] if k is None else ["--factors-k", str(k)]) + data.draw(st.sampled_from([[], ["--no-kaiser"]]))
    with tempfile.TemporaryDirectory() as tmp:
        _, (panel,) = _write_inputs(tmp, [], codes, columns, values)
        scores = os.path.join(tmp, "scores.csv")
        out = _answer_or_one_error_line("factors", "--panel", panel, "--missing", missing, "--scores-out", scores, *flags)
        if out is None:
            return
        # exit 0: the complete rows vary in every column, so R is finite in both modes
        truth = oracle.FactorTruth.build(codes, columns, values)
        if k is None:
            eigenvalues = truth.eigenvalues[missing]
            if (abs(eigenvalues - 1.0) < 1e-9).any():  # either side of the rule is right
                return
            k = max(int((eigenvalues > 1.0).sum()), 1)
        oracle.check_factor_json(out, truth, missing, k)
        oracle.check_scores_csv(Path(scores).read_text(encoding="utf-8"), truth, k)
