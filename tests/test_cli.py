import json
from importlib import resources

import pytest

from foi.cli import main

DATA = resources.files("foi.data")
PANEL_2010 = str(DATA / "demo_panel_2010.csv")
PANEL_2020 = str(DATA / "demo_panel_2020.csv")
FA_PANEL = str(DATA / "demo_fa_panel.csv")


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
    lines = open(PANEL_2020, encoding="utf-8").read().splitlines()
    cells = lines[3].split(",")
    cells[5] = "inf"
    lines[3] = ",".join(cells)
    path = tmp_path / "panel.csv"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "indices", "--panel", str(path))
    assert code == 1 and not out
    assert "row 3" in err and lines[0].split(",")[5] in err
