import csv
import re
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from foi.errors import AggregationError
from foi.manifest import IndicatorManifest, IndicatorSpec, default_manifest
from foi.panel import load_panel
from foi.pillar import compute_pillar_scores, rank_countries
from foi.reference import load_fixture
from foi.rescale import rescale_panel

from conftest import make_manifest, make_panel


def test_constant_components_give_constant_index():
    manifest = make_manifest((3, 2, 2))
    grid = np.full((2, 7), 2.0)
    grid[0, :3] = 7.0  # country 0's F components
    scores = compute_pillar_scores(make_panel(manifest, grid), manifest)
    assert scores.index["F"][0] == 7.0


def test_available_mean_skips_missing():
    manifest = make_manifest((1, 5, 1))
    grid = np.full((1, 7), 3.0)
    grid[0, 1:6] = [1.0, 7.0, np.nan, np.nan, np.nan]
    scores = compute_pillar_scores(make_panel(manifest, grid), manifest)
    assert scores.index["O"][0] == pytest.approx(4.0)


def test_strict_policy_flags_absent():
    manifest = make_manifest((1, 2, 1))
    grid = np.array([[3.0, 1.0, np.nan, 5.0]])
    scores = compute_pillar_scores(make_panel(manifest, grid), manifest, missing_policy="strict")
    assert np.isnan(scores.index["O"][0])
    assert scores.index["F"][0] == 3.0


def test_available_mean_with_empty_pillar_is_error():
    manifest = make_manifest((1, 2, 1))
    grid = np.array([[3.0, np.nan, np.nan, 5.0]])
    with pytest.raises(AggregationError, match="O"):
        compute_pillar_scores(make_panel(manifest, grid), manifest)


def test_indices_match_brute_force_means():
    manifest = make_manifest((9, 5, 10))
    rng = np.random.default_rng(5)
    grid = rng.uniform(1.0, 7.0, size=(34, 24))
    grid[rng.random((34, 24)) < 0.1] = np.nan
    panel = make_panel(manifest, grid)
    scores = compute_pillar_scores(panel, manifest)
    for i in range(34):
        for pillar, lo, hi in (("F", 0, 9), ("O", 9, 14), ("I", 14, 24)):
            vals = [v for v in grid[i, lo:hi] if not np.isnan(v)]
            assert scores.index[pillar][i] == pytest.approx(sum(vals) / len(vals), abs=1e-12)


def test_index_within_component_range():
    manifest = make_manifest()
    rng = np.random.default_rng(6)
    grid = rng.uniform(1.0, 7.0, size=(10, 6))
    scores = compute_pillar_scores(make_panel(manifest, grid), manifest)
    for pillar, lo, hi in (("F", 0, 2), ("O", 2, 4), ("I", 4, 6)):
        assert np.all(scores.index[pillar] >= grid[:, lo:hi].min(axis=1) - 1e-12)
        assert np.all(scores.index[pillar] <= grid[:, lo:hi].max(axis=1) + 1e-12)


def test_spec_order_within_pillar_is_irrelevant():
    manifest = make_manifest((3, 1, 1))
    swapped = IndicatorManifest(
        (manifest.specs[2], manifest.specs[0], manifest.specs[1]) + manifest.specs[3:]
    )
    rng = np.random.default_rng(8)
    grid = rng.uniform(1.0, 7.0, size=(5, 5))
    panel = make_panel(manifest, grid)
    a = compute_pillar_scores(panel, manifest)
    b = compute_pillar_scores(panel, swapped)
    assert np.allclose(a.index["F"], b.index["F"])


def test_component_grouping_averages_subindicators_first():
    # two indicators share one component; the pillar mean must count them once
    specs = (
        IndicatorSpec("f_a", "A", "F", "higher_is_better", "t"),
        IndicatorSpec("f_b1", "B1", "F", "higher_is_better", "t", component="f_b"),
        IndicatorSpec("f_b2", "B2", "F", "higher_is_better", "t", component="f_b"),
        IndicatorSpec("o_a", "OA", "O", "higher_is_better", "t"),
        IndicatorSpec("i_a", "IA", "I", "higher_is_better", "t"),
    )
    manifest = IndicatorManifest(specs)
    grid = np.array([[2.0, 4.0, 6.0, 1.0, 1.0]])
    scores = compute_pillar_scores(make_panel(manifest, grid), manifest)
    # (2 + mean(4, 6)) / 2, not mean(2, 4, 6)
    assert scores.index["F"][0] == pytest.approx(3.5)


def test_rank_one_is_highest():
    manifest = make_manifest((1, 1, 1))
    grid = np.array([[2.0, 5.0, 3.0], [6.0, 1.0, 3.0], [4.0, 3.0, 3.0]])
    scores = rank_countries(compute_pillar_scores(make_panel(manifest, grid), manifest))
    assert scores.rank["F"].tolist() == [3, 1, 2]


def test_ties_break_by_country_code():
    manifest = make_manifest((1, 1, 1))
    grid = np.array([[5.0, 1.0, 1.0], [5.0, 1.0, 1.0]])
    scores = rank_countries(
        compute_pillar_scores(make_panel(manifest, grid, countries=["BBB", "AAA"]), manifest)
    )
    # AAA gets the smaller rank on equal indices
    assert scores.rank["F"].tolist() == [2, 1]


def test_ranks_are_permutations():
    manifest = make_manifest()
    rng = np.random.default_rng(9)
    grid = rng.uniform(1.0, 7.0, size=(34, 6))
    scores = rank_countries(compute_pillar_scores(make_panel(manifest, grid), manifest))
    for pillar in "FOI":
        assert sorted(scores.rank[pillar].tolist()) == list(range(1, 35))


def test_rank_invariant_under_monotone_transform():
    manifest = make_manifest((1, 1, 1))
    rng = np.random.default_rng(10)
    vals = rng.uniform(1.0, 7.0, size=(12, 3))
    base = rank_countries(compute_pillar_scores(make_panel(manifest, vals), manifest))
    squeezed = rank_countries(
        compute_pillar_scores(make_panel(manifest, 1.0 + (vals - 1.0) / 2.0), manifest)
    )
    for pillar in "FOI":
        assert base.rank[pillar].tolist() == squeezed.rank[pillar].tolist()


def test_published_rank_extremes():
    fx = load_fixture()
    assert fx.index_rank(2020, "LUX", "O") == 1
    assert fx.index_rank(2020, "USA", "O") == 2
    assert fx.index_rank(2020, "CHE", "I") == 1


def per_country_pillar_scores(rescaled, manifest, missing_policy):
    """Reference aggregation: one Python mean per country and pillar."""
    col_of = {ind: j for j, ind in enumerate(rescaled.indicators)}
    index = {}
    for pillar in "FOI":
        components = manifest.pillar_components(pillar)
        comp_vals = np.full((len(rescaled.countries), len(components)), np.nan)
        for c, (_, members) in enumerate(components):
            cols = [col_of[m] for m in members if m in col_of]
            if not cols:
                continue
            block = rescaled.values[:, cols]
            cnt = (~np.isnan(block)).sum(axis=1)
            total = np.nansum(block, axis=1)
            comp_vals[:, c] = np.where(cnt > 0, total / np.maximum(cnt, 1), np.nan)
        out = np.full(len(rescaled.countries), np.nan)
        observed = ~np.isnan(comp_vals)
        for i in range(len(rescaled.countries)):
            if missing_policy == "strict" and not observed[i].all():
                continue
            if not observed[i].any():
                raise AggregationError(
                    f"country {rescaled.countries[i]!r} has no observed components in pillar {pillar!r}"
                )
            out[i] = comp_vals[i, observed[i]].mean()
        index[pillar] = out
    return index


@st.composite
def grouped_panels(draw):
    """A manifest whose indicators share components at random, and a
    rescaled grid over it with random missing cells."""
    specs = []
    for pillar in "FOI":
        for j in range(draw(st.integers(1, 7))):
            group = draw(st.integers(0, 3))
            specs.append(IndicatorSpec(f"{pillar}{j}", "x", pillar, "higher_is_better", "t", f"{pillar}g{group}"))
    manifest = IndicatorManifest(tuple(specs))
    shape = (draw(st.integers(1, 25)), len(specs))
    grid = draw(hnp.arrays(float, shape, elements=st.floats(1.0, 7.0)))
    missing_frac = draw(st.sampled_from([0.0, 0.1, 0.5]))
    grid[draw(hnp.arrays(float, shape, elements=st.floats(0.0, 1.0))) < missing_frac] = np.nan
    return manifest, make_panel(manifest, grid)


@settings(max_examples=200)
@given(grouped_panels(), st.sampled_from(["available_mean", "strict"]))
def test_grouped_means_equal_per_country_loop_bitwise(case, policy):
    manifest, panel = case
    try:
        want = per_country_pillar_scores(panel, manifest, policy)
    except AggregationError as exc:
        with pytest.raises(AggregationError, match=re.escape(str(exc))):
            compute_pillar_scores(panel, manifest, missing_policy=policy)
        return
    got = compute_pillar_scores(panel, manifest, missing_policy=policy).index
    for pillar in "FOI":
        assert got[pillar].tobytes() == want[pillar].tobytes()


DEMO_2020 = resources.files("foi.data") / "demo_panel_2020.csv"


@settings(max_examples=30)
@given(st.randoms(use_true_random=False), st.sampled_from(["available_mean", "strict"]))
def test_indices_invariant_under_csv_row_and_column_permutation(rnd, policy):
    header, *rows = list(csv.reader(DEMO_2020.read_text(encoding="utf-8").splitlines()))
    cols = list(range(len(header)))
    cols[1:] = rnd.sample(cols[1:], len(cols) - 1)
    rnd.shuffle(rows)
    manifest = default_manifest()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "permuted.csv"
        path.write_text("".join(",".join(r[c] for c in cols) + "\n" for r in [header, *rows]))
        got = scores_of(path, manifest, policy)
    want = scores_of(DEMO_2020, manifest, policy)
    order = [got.countries.index(c) for c in want.countries]
    for pillar in "FOI":
        assert got.index[pillar][order].tobytes() == want.index[pillar].tobytes()


def scores_of(path, manifest, policy):
    panel = load_panel(path, manifest)
    return compute_pillar_scores(rescale_panel(panel, manifest), manifest, missing_policy=policy)
