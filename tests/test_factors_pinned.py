"""``foi factors`` output on the demo FA panel, pinned to a fixture.

``data/factors_demo_fa.json`` holds the model JSON and the scores CSV of
``factors --factors-k K --missing M --scores-out FILE`` for K in {2, 3, 12}
and both deletion modes, as printed before the correlations came from
masked matrix products. Factor floats are printed as ``repr``s, which no
reordered sum keeps byte-identical, so numbers are compared within 1e-9;
structure is exact: keys, shapes, ``converged``, ``df``, exit status and
which score cells are empty.
"""

import contextlib
import csv
import io
import json
from importlib import resources
from pathlib import Path

import pytest

from foi.cli import main

PANEL = str(resources.files("foi.data") / "demo_fa_panel.csv")
CASES = json.loads((Path(__file__).parent / "data" / "factors_demo_fa.json").read_text())
TOL = 1e-9


def assert_close(got, want, where="model"):
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, f"{where}[{i}]")
    elif isinstance(want, (bool, int, str)) or want is None:
        assert type(got) is type(want) and got == want, where
    else:
        assert isinstance(got, float) and abs(got - want) <= TOL, (where, got, want)


def score_cells(text):
    """Scores CSV rows with numeric cells parsed; empty cells stay ''."""
    rows = list(csv.reader(io.StringIO(text)))
    return [rows[0]] + [[row[0]] + [float(c) if c else "" for c in row[1:]] for row in rows[1:]]


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"k{c['k']}-{c['missing']}")
def test_factors_output_matches_pinned(case, tmp_path):
    scores = tmp_path / "scores.csv"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(
            [
                "factors", "--panel", PANEL, "--factors-k", str(case["k"]),
                "--missing", case["missing"], "--scores-out", str(scores),
            ]
        )
    assert status == case["status"]
    assert_close(json.loads(out.getvalue()), case["model"])
    assert_close(score_cells(scores.read_text()), score_cells(case["scores_csv"]), "scores")
