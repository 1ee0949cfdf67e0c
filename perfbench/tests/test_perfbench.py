"""Tests of the benchmark itself: generator, oracle, tracer, metric names.

    python3 -m pytest perfbench/tests
"""

import contextlib
import io
import json
import sys

import numpy as np
import pytest

import inputs
import oracle
import run
import tracer
from conftest import ROOT
from foi.cli import main as foi_main


def _foi(*argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert foi_main([str(a) for a in argv]) == 0
    return buf.getvalue()


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    cache = tmp_path_factory.mktemp("cache")
    ps = inputs.panel_set(cache, 5, 60, 30, epochs=2)
    truths = [oracle.PanelTruth.build(ps.manifest, ps.codes, ps.columns, v) for v in ps.values]
    return ps, truths


def test_generator_is_deterministic_per_seed(tmp_path):
    a = inputs.panel_set(tmp_path / "a", 3, 40, 30, epochs=2)
    b = inputs.panel_set(tmp_path / "b", 3, 40, 30, epochs=2)
    c = inputs.panel_set(tmp_path / "c", 4, 40, 30, epochs=2)
    for pa, pb, pc in zip(a.panel_paths, b.panel_paths, c.panel_paths):
        assert pa.read_bytes() == pb.read_bytes() != pc.read_bytes()
    assert a.manifest_path.read_bytes() == b.manifest_path.read_bytes()
    fa = inputs.factor_set(tmp_path / "a", 3, 50, 12)
    fb = inputs.factor_set(tmp_path / "b", 3, 50, 12)
    assert fa.path.read_bytes() == fb.path.read_bytes()


def test_written_cells_parse_to_the_oracle_values(small):
    ps, _ = small
    codes, columns, values = oracle.read_grid(ps.panel_paths[0].read_text())
    assert codes == ps.codes and columns == ps.columns
    np.testing.assert_array_equal(values, ps.values[0])  # bit-identical, nan where missing
    assert 0.02 < np.isnan(values).mean() < 0.08


def test_factor_missing_cells_stay_in_a_fifth_of_rows(tmp_path):
    fs = inputs.factor_set(tmp_path, 1, 500, 300)
    rows_with_missing = np.isnan(fs.values).any(axis=1).mean()
    assert rows_with_missing == pytest.approx(0.2)


def test_cache_keeps_only_recent_entries(tmp_path):
    for seed in range(inputs.CACHE_KEEP + 2):
        inputs.factor_set(tmp_path, seed, 20, 5)
    assert len(list(tmp_path.glob("factor-20x5-s*"))) == inputs.CACHE_KEEP


def test_oracle_accepts_foi_and_rejects_a_flipped_cluster(small):
    ps, (truth, _) = small
    out = _foi("classify", "--panel", ps.panel_paths[0], "--manifest", ps.manifest_path, "--format", "json")
    oracle.check_classify_json(out, truth)
    doc = json.loads(out)
    doc["assignments"][7]["cluster"] = 9 - doc["assignments"][7]["cluster"]
    with pytest.raises(oracle.CheckFailed, match="cluster"):
        oracle.check_classify_json(json.dumps(doc), truth)


def test_oracle_rejects_a_perturbed_rescaled_cell(small):
    ps, (truth, _) = small
    out = _foi("rescale", "--panel", ps.panel_paths[0], "--manifest", ps.manifest_path)
    oracle.check_rescaled_csv(out, truth)
    lines = out.splitlines()
    cells = lines[3].split(",")
    j = next(k for k, c in enumerate(cells[1:], start=1) if c)
    cells[j] = repr(float(cells[j]) + 1e-8)
    lines[3] = ",".join(cells)
    with pytest.raises(oracle.CheckFailed, match="rescaled"):
        oracle.check_rescaled_csv("\n".join(lines) + "\n", truth)


def test_oracle_checks_shift_and_factor_outputs(small, tmp_path):
    ps, (a, b) = small
    man = ("--manifest", ps.manifest_path)
    oracle.check_shift_csv(
        _foi("shift", "--panel-a", ps.panel_paths[0], "--panel-b", ps.panel_paths[1], *man, "--format", "csv"), a, b
    )
    fs = inputs.factor_set(tmp_path, 2, 200, 12)
    truth = oracle.FactorTruth.build(fs.codes, fs.columns, fs.values)
    scores = tmp_path / "scores.csv"
    model = _foi("factors", "--panel", fs.path, "--factors-k", 3, "--missing", "listwise", "--scores-out", scores)
    oracle.check_factor_json(model, truth, "listwise", 3)
    oracle.check_scores_csv(scores.read_text(), truth, 3)
    doc = json.loads(model)
    doc["eigenvalues"][0] += 1e-6
    with pytest.raises(oracle.CheckFailed, match="eigenvalues"):
        oracle.check_factor_json(json.dumps(doc), truth, "listwise", 3)


def test_install_covers_every_from_import_alias():
    import foi.cli

    originals = {(mod, name): getattr(sys.modules[f"foi.{mod}"], name) for mod, names in tracer.ALIASES.items()
                 for name in names}
    commands = dict(foi.cli.COMMANDS)
    tr = tracer.Tracer()
    installed = tracer.install(tr)
    try:
        for (mod, name), original in originals.items():
            patched = getattr(sys.modules[f"foi.{mod}"], name)
            assert patched is not original and patched.__wrapped__ is original, f"foi.{mod}.{name}"
        assert all(foi.cli.COMMANDS[k].__wrapped__ is f for k, f in commands.items())
        assert {f"{m}.{f}" for m, fns in tracer.FUNCTIONS.items() for f in fns} <= installed.wrapped
    finally:
        installed.restore()
    for (mod, name), original in originals.items():
        assert getattr(sys.modules[f"foi.{mod}"], name) is original
    assert foi.cli.COMMANDS == commands


def test_traced_spans_give_self_time_and_absent_metrics(monkeypatch):
    import foi.cli
    import foi.pillar

    monkeypatch.delattr(foi.pillar, "rank_countries")  # as if a refactor removed it
    tr = tracer.Tracer()
    installed = tracer.install(tr)
    try:
        tr.begin_op()
        with contextlib.redirect_stdout(io.StringIO()):
            assert foi.cli.main(["verify", "--epoch", "2020", "--format", "json"]) == 0
    finally:
        installed.restore()
    metrics, absent = tracer.layer_metrics(tr, installed.wrapped, {k: 1.0 for k in (
        "import.foi_ms", "import.scipy_stats_ms", "import.numpy_ms", "import.modules",
        "import.scipy_stats_loaded", "trace.overhead_ms", "report.bytes_out")})
    assert "pillar.rank_countries.ms" in absent and "pillar.rank_countries.errors" in absent
    assert metrics["classify.classify.calls"]["value"] == 34
    assert metrics["reference.verify_reference.ms"]["value"] > 0
    op = tr.per_op()[0]
    assert op["self"]["cli.main"] < op["incl"]["cli.main"]


def test_benchmark_json_names_match_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == tracer.layer_metric_names()
    results = [run.OpResult("v", True, 1.0, 0.5, 1024)]
    e2e = run.end_to_end(results, [1.0])
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    assert all(m["unit"] == e2e[m["name"]][1] for m in spec["end_to_end"])
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.workloads.WORKLOADS)


def test_importtime_parsing():
    stderr = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       100 |        200 |   numpy.core\n"
        "import time:      1000 |     250000 | numpy\n"
        "import time:       500 |     800000 |     scipy.stats\n"
        "import time:      3000 |    1400000 | foi\n"
        "import time:       700 |       9000 | foi.cli\n"
    )
    facts = run.parse_importtime(stderr, "862 1\n")
    assert facts["import.foi_ms"] == pytest.approx(1409.0)
    assert facts["import.scipy_stats_ms"] == pytest.approx(800.0)
    assert facts["import.numpy_ms"] == pytest.approx(250.0)
    assert facts["import.modules"] == 862 and facts["import.scipy_stats_loaded"] == 1
