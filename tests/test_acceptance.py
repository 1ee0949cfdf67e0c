"""Acceptance gate: one test per criterion, one printed line per result.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.
"""

import filecmp
import json
import math
import time
from importlib import resources

import numpy as np
import pytest

from foi.classify import classify_epoch, shift_report
from foi.cli import main as cli_main
from foi.errors import UndefinedStatisticError
from foi.factor import (
    CorrelationMatrix,
    bartlett_test,
    congruence,
    fit_factor_model,
    kmo_statistic,
    synthesize_known_factors,
    varimax_criterion,
    varimax_rotate,
)
from foi.pillar import FoiScores, rank_countries
from foi.reference import load_fixture, verify_reference
from foi.rescale import min_max_rescale

def corr(matrix):
    matrix = np.asarray(matrix, dtype=float)
    p = matrix.shape[0]
    return CorrelationMatrix(
        variables=tuple(f"v{j}" for j in range(p)),
        values=matrix,
        pair_counts=np.full((p, p), 99),
    )


def fixture_scores(epoch):
    fx = load_fixture()
    codes = tuple(sorted(fx.countries))
    return FoiScores(
        epoch=epoch,
        countries=codes,
        index={
            p: np.array([fx.index_value(epoch, c, p) for c in codes]) for p in "FOI"
        },
    )


def test_criterion_01_classification_reproduction_2020():
    start = time.perf_counter()
    rep = verify_reference(2020, threshold=4.0, epsilon=0.05)
    elapsed = time.perf_counter() - start
    assert rep.matches == 30
    assert rep.country_count == 34
    assert rep.hard_mismatches == ("CZE",)
    assert rep.borderline_mismatches == ("ESP", "POL", "SVN")
    assert elapsed < 1.0


def test_criterion_02_classification_reproduction_2010():
    rep = verify_reference(2010, threshold=4.0, epsilon=0.05)
    assert rep.hard_mismatches == ("CHL", "DEU", "GBR", "ISR", "JPN", "PRT")
    assert rep.borderline_mismatches == ("MEX", "NZL")
    assert rep.matches == 34 - 8


def test_criterion_03_shift_analysis():
    before = classify_epoch(fixture_scores(2010))
    after = classify_epoch(fixture_scores(2020))
    rep = shift_report(before, after, epoch_from=2010, epoch_to=2020)
    by = {s.country: s for s in rep.shifts}
    max_delta = max(s.delta_h for s in rep.shifts)
    israel = by["ISR"]
    assert israel.to_cluster == 8
    assert israel.delta_h == max_delta
    assert israel in rep.upward
    estonia = by["EST"]
    assert estonia.to_cluster == 7
    assert estonia.delta_h > 0


def test_criterion_04_bartlett():
    for p, df in ((15, 105), (7, 21), (18, 153)):
        r = corr(np.eye(p) * 0.8 + 0.2)
        assert bartlett_test(r, n=300).df == df
    assert bartlett_test(corr(np.eye(8)), n=100).chi_square == 0.0
    res = bartlett_test(corr([[1.0, 0.5], [0.5, 1.0]]), n=34)
    assert abs(res.chi_square - 31.5 * (-math.log(0.75))) < 1e-9


def test_criterion_05_kmo():
    for r01 in (0.2, -0.45, 0.9):
        assert kmo_statistic(corr([[1.0, r01], [r01, 1.0]])) == 0.5
    # hand-computed oracle: R = 0.4 I + 0.6 J, partials 3/11 by explicit inversion
    r_mat = np.full((4, 4), 0.6)
    np.fill_diagonal(r_mat, 1.0)
    expected = 0.36 / (0.36 + (3.0 / 11.0) ** 2)
    assert abs(kmo_statistic(corr(r_mat)) - expected) < 1e-9
    with pytest.raises(UndefinedStatisticError):
        kmo_statistic(corr(np.eye(4)))


def grid_search_criterion(lam, step=1e-5):
    lam = lam / np.sqrt((lam**2).sum(axis=1))[:, None]  # Kaiser normalization
    p = lam.shape[0]
    theta = np.arange(0.0, math.pi / 2, step)
    c, s = np.cos(theta), np.sin(theta)
    a, b = lam[:, [0]], lam[:, [1]]
    best = -np.inf
    for chunk in np.array_split(np.arange(theta.size), 8):
        col1 = a * c[chunk] + b * s[chunk]
        col2 = -a * s[chunk] + b * c[chunk]
        crit = 0.0
        for col in (col1, col2):
            sq = col**2
            crit = crit + (sq**2).sum(axis=0) / p - (sq.sum(axis=0) / p) ** 2
        best = max(best, crit.max())
    return float(best)


def test_criterion_06_varimax_optimality():
    # CPU time, not wall time: the 30s budget should not fail under
    # scheduler contention on a loaded host
    start = time.process_time()
    rng = np.random.default_rng(2024)
    for trial in range(100):
        p = int(rng.integers(5, 21))
        lam = rng.normal(size=(p, 2))
        rotated, _, crit, converged = varimax_rotate(lam, kaiser_normalize=True)
        assert converged
        assert np.allclose((lam**2).sum(axis=1), (rotated**2).sum(axis=1), atol=1e-10)
        assert abs(crit - grid_search_criterion(lam)) <= 1e-6
    # non-decreasing criterion across explicit single sweeps
    lam = rng.normal(size=(12, 3))
    work = lam / np.sqrt((lam**2).sum(axis=1))[:, None]
    last = varimax_criterion(work)
    for _ in range(25):
        work, _, now, _ = varimax_rotate(work, kaiser_normalize=False, max_iter=1)
        assert now >= last - 1e-12
        last = now
    assert time.process_time() - start < 30.0


def test_criterion_07_factor_recovery():
    data, lam = synthesize_known_factors(p=15, k=2, n=500, noise=0.3, seed=7)
    model = fit_factor_model(data, k=2)
    got = model.rotated_loadings
    used = set()
    for j in range(2):
        cong = {c: abs(congruence(lam[:, j], got[:, c])) for c in range(2) if c not in used}
        best = max(cong, key=cong.get)
        used.add(best)
        assert cong[best] >= 0.95


def test_criterion_08_rescaling_properties():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        n = int(rng.integers(2, 40))
        col = rng.normal(0.0, rng.uniform(0.1, 100.0), size=n) + rng.uniform(-1e5, 1e5)
        up = min_max_rescale(col, "higher_is_better")
        down = min_max_rescale(col, "lower_is_better")
        assert np.all(up >= 1.0) and np.all(up <= 7.0 + 1e-12)
        if len(set(col)) >= 2:
            assert up.min() == 1.0 and up.max() == pytest.approx(7.0, abs=1e-12)
            order = np.argsort(col)
            assert np.all(np.diff(up[order]) >= 0)
            assert np.all(np.diff(down[order]) <= 0)
        assert np.allclose(up + down, 8.0, atol=1e-9)  # direction reversal
        a, b = rng.uniform(0.1, 10.0), rng.uniform(-100.0, 100.0)
        assert np.allclose(min_max_rescale(a * col + b, "higher_is_better"), up, atol=1e-6)
    assert min_max_rescale([3.3, 3.3, 3.3], "higher_is_better").tolist() == [4.0, 4.0, 4.0]


def test_criterion_09_pillar_aggregation():
    from conftest import make_manifest, make_panel
    from foi.pillar import compute_pillar_scores

    rng = np.random.default_rng(7)
    manifest = make_manifest((9, 5, 10))
    for _ in range(5):
        grid = rng.uniform(1.0, 7.0, size=(34, 24))
        grid[rng.random((34, 24)) < 0.08] = np.nan
        scores = compute_pillar_scores(make_panel(manifest, grid), manifest)
        ranks = rank_countries(scores)
        for i in range(34):
            for pillar, lo, hi in (("F", 0, 9), ("O", 9, 14), ("I", 14, 24)):
                vals = [v for v in grid[i, lo:hi] if not math.isnan(v)]
                assert abs(scores.index[pillar][i] - sum(vals) / len(vals)) <= 1e-12
        for pillar in "FOI":
            assert sorted(ranks[pillar].tolist()) == list(range(1, 35))
    published = fixture_scores(2020)
    ranks = rank_countries(published)
    codes = published.countries
    assert ranks["O"][codes.index("LUX")] == 1
    assert ranks["I"][codes.index("CHE")] == 1


def test_criterion_10_cli_determinism(tmp_path):
    data = resources.files("foi.data")
    p2010 = str(data / "demo_panel_2010.csv")
    p2020 = str(data / "demo_panel_2020.csv")
    fa = str(data / "demo_fa_panel.csv")
    scores_json = tmp_path / "scores.json"
    assert cli_main(["indices", "--panel", p2020, "--format", "json", "--out", str(scores_json)]) == 0
    commands = [
        ["ingest", "--panel", p2020, "--format", "json"],
        ["rescale", "--panel", p2020],
        ["indices", "--panel", p2020, "--format", "csv"],
        ["classify", "--panel", p2020, "--format", "json"],
        ["shift", "--panel-a", p2010, "--panel-b", p2020, "--format", "json"],
        ["factors", "--panel", fa, "--factors-k", "2"],
        ["verify", "--epoch", "2020", "--format", "json"],
        ["export", "--in", str(scores_json), "--format", "table"],
    ]
    for i, argv in enumerate(commands):
        out1 = tmp_path / f"a{i}.txt"
        out2 = tmp_path / f"b{i}.txt"
        assert cli_main([*argv, "--out", str(out1)]) == 0
        assert cli_main([*argv, "--out", str(out2)]) == 0
        assert filecmp.cmp(out1, out2, shallow=False)
        assert out1.stat().st_size > 0
