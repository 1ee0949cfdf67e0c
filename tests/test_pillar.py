import csv
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
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import foi
from foi.classify import classify_epoch
from foi.errors import AggregationError, EmptyColumnError
from foi.manifest import IndicatorManifest, IndicatorSpec, default_manifest
from foi.panel import IndicatorPanel, load_panel, write_panel
from foi.pillar import FoiScores, compute_pillar_scores, rank_countries
from foi.reference import load_fixture
from foi.rescale import rescale_panel, rescale_rule

from conftest import make_manifest, make_panel

panel_module = sys.modules["foi.panel"]
pillar_module = sys.modules["foi.pillar"]
SRC = str(Path(foi.__file__).resolve().parents[1])


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
    ranks = rank_countries(compute_pillar_scores(make_panel(manifest, grid), manifest))
    assert ranks["F"].tolist() == [3, 1, 2]


def test_ties_break_by_country_code():
    manifest = make_manifest((1, 1, 1))
    grid = np.array([[5.0, 1.0, 1.0], [5.0, 1.0, 1.0]])
    ranks = rank_countries(
        compute_pillar_scores(make_panel(manifest, grid, countries=["BBB", "AAA"]), manifest)
    )
    # AAA gets the smaller rank on equal indices
    assert ranks["F"].tolist() == [2, 1]


def test_ranks_are_permutations():
    manifest = make_manifest()
    rng = np.random.default_rng(9)
    grid = rng.uniform(1.0, 7.0, size=(34, 6))
    ranks = rank_countries(compute_pillar_scores(make_panel(manifest, grid), manifest))
    for pillar in "FOI":
        assert sorted(ranks[pillar].tolist()) == list(range(1, 35))


def test_rank_invariant_under_monotone_transform():
    manifest = make_manifest((1, 1, 1))
    rng = np.random.default_rng(10)
    vals = rng.uniform(1.0, 7.0, size=(12, 3))
    base = rank_countries(compute_pillar_scores(make_panel(manifest, vals), manifest))
    squeezed = rank_countries(
        compute_pillar_scores(make_panel(manifest, 1.0 + (vals - 1.0) / 2.0), manifest)
    )
    for pillar in "FOI":
        assert base[pillar].tolist() == squeezed[pillar].tolist()


def rank_loop(scores):
    """The Python sort ``rank_countries`` replaced: the oracle of its ranks."""
    ranks = {}
    for pillar in "FOI":
        vals = scores.index[pillar]
        order = sorted(
            range(len(scores.countries)),
            key=lambda i: (-(vals[i] if not math.isnan(vals[i]) else -math.inf), scores.countries[i]),
        )
        r = np.zeros(len(order), dtype=int)
        for place, i in enumerate(order, start=1):
            r[i] = place
        ranks[pillar] = r
    return ranks


@settings(max_examples=300)
@given(st.data())
def test_ranks_equal_sort_loop(data):
    # ties, repeated codes, codes a trailing NUL tells apart, NaN indices
    n = data.draw(st.integers(0, 30))
    codes = data.draw(st.lists(st.sampled_from(["A", "A\0", "AB", "B", ""]), min_size=n, max_size=n))
    cells = st.one_of(st.sampled_from([1.0, 4.0, 7.0, 0.0, -0.0, np.nan]), st.floats(1.0, 7.0))
    index = {p: data.draw(hnp.arrays(float, n, elements=cells)) for p in "FOI"}
    scores = FoiScores(epoch=2020, countries=codes, index=index)
    got, want = rank_countries(scores), rank_loop(scores)
    for pillar in "FOI":
        assert got[pillar].dtype == want[pillar].dtype
        assert got[pillar].tolist() == want[pillar].tolist()


def test_published_rank_extremes():
    fx = load_fixture()
    assert fx.index_rank(2020, "LUX", "O") == 1
    assert fx.index_rank(2020, "USA", "O") == 2
    assert fx.index_rank(2020, "CHE", "I") == 1


def per_country_pillar_scores(rescaled, manifest, missing_policy):
    """Reference aggregation: per country, each component's observed
    members added one after another in manifest order, then one numpy
    mean per pillar over the observed components."""
    col_of = {ind: j for j, ind in enumerate(rescaled.indicators)}
    index = {}
    for pillar in "FOI":
        components = manifest.pillar_components(pillar)
        comp_vals = np.full((len(rescaled.countries), len(components)), np.nan)
        for i in range(len(rescaled.countries)):
            for c, (_, members) in enumerate(components):
                vals = [rescaled.values[i, col_of[m]] for m in members if m in col_of]
                vals = [v for v in vals if not math.isnan(v)]
                total = 0.0
                for v in vals:
                    total += v
                if vals:
                    comp_vals[i, c] = total / len(vals)
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


def assert_equals_per_country_loop(panel, manifest, policy):
    try:
        want = per_country_pillar_scores(panel, manifest, policy)
    except AggregationError as exc:
        with pytest.raises(AggregationError, match=re.escape(str(exc))):
            compute_pillar_scores(panel, manifest, missing_policy=policy)
        return
    got = compute_pillar_scores(panel, manifest, missing_policy=policy).index
    for pillar in "FOI":
        assert got[pillar].tobytes() == want[pillar].tobytes()


@settings(max_examples=200)
@given(grouped_panels(), st.sampled_from(["available_mean", "strict"]))
def test_grouped_means_equal_per_country_loop_bitwise(case, policy):
    assert_equals_per_country_loop(*reversed(case), policy)


@st.composite
def sized_components(draw):
    """Components of 1, 2, 7, 8, 9 and up to 20 members (numpy's own sum
    adds fewer than 8 terms one after another, 8 or more pairwise), specs
    and panel columns in any order, cells from [1, 7] and signed zeros
    with some missing, and blocks of one country up to all of them."""
    specs = [
        IndicatorSpec(f"{pillar}{c}_{j}", "x", pillar, "higher_is_better", "t", f"{pillar}{c}")
        for pillar in "FOI"
        for c in range(draw(st.integers(1, 3)))
        for j in range(draw(st.sampled_from([1, 2, 7, 8, 9, 16, 17, 20])))
    ]
    manifest = IndicatorManifest(tuple(draw(st.permutations(specs))))
    columns = draw(st.permutations([s.id for s in specs]))
    shape = (draw(st.integers(1, 30)), len(specs))
    cells = st.one_of(st.floats(1.0, 7.0), st.sampled_from([0.0, -0.0]))
    grid = draw(hnp.arrays(float, shape, elements=cells))
    missing_frac = draw(st.sampled_from([0.0, 0.2, 0.9]))
    grid[draw(hnp.arrays(float, shape, elements=st.floats(0.0, 1.0))) < missing_frac] = np.nan
    countries = [f"C{i:02d}" for i in range(shape[0])]
    panel = IndicatorPanel(epoch=2020, countries=countries, indicators=columns, values=grid)
    return manifest, panel, draw(st.sampled_from([1, 50, 400, 1 << 18]))


@settings(max_examples=200)
@given(sized_components(), st.sampled_from(["available_mean", "strict"]))
def test_components_of_any_size_equal_per_country_loop_bitwise(case, policy):
    manifest, panel, block_cells = case
    with mock.patch.object(sys.modules["foi.pillar"], "_BLOCK_CELLS", block_cells):
        assert_equals_per_country_loop(panel, manifest, policy)


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
    return compute_pillar_scores(rescale_panel(panel, rescale_rule(panel, manifest)), manifest, missing_policy=policy)


def classified_run(panel, manifest, tmp):
    """CSV to clusters: write the panel, read it back, rescale, aggregate
    and classify, as ``foi classify`` does."""
    path = Path(tmp) / f"panel{len(list(Path(tmp).iterdir()))}.csv"
    write_panel(panel, path)
    loaded = load_panel(path, manifest)
    scores = compute_pillar_scores(rescale_panel(loaded, rescale_rule(loaded, manifest)), manifest)
    return scores, {a.country: a.cluster_id for a in classify_epoch(scores)}


@settings(max_examples=150)
@given(st.data())
def test_positive_affine_map_of_a_raw_column_keeps_indices_and_clusters(data):
    directions = {i: data.draw(st.sampled_from(["higher_is_better", "lower_is_better"]))
                  for i in ("f0", "o1", "i0")}
    manifest = make_manifest(directions=directions)
    n = data.draw(st.integers(2, 12))
    cells = st.integers(-10**5, 10**5).map(lambda v: v / 100)
    grid = data.draw(hnp.arrays(float, (n, 6), elements=cells))
    grid[data.draw(hnp.arrays(bool, (n, 6), elements=st.sampled_from([False] * 5 + [True])))] = np.nan
    j = data.draw(st.integers(0, 5))
    observed = grid[~np.isnan(grid[:, j]), j]
    a = data.draw(st.floats(1e-3, 1e3))
    span = a * (observed.max() - observed.min()) if observed.size else 0.0
    b = data.draw(st.floats(-1.0, 1.0)) * 1e3 * span  # |b| up to 10^3 times the column's range
    moved = grid.copy()
    moved[:, j] = a * grid[:, j] + b
    with tempfile.TemporaryDirectory() as tmp:
        try:
            want, want_ids = classified_run(make_panel(manifest, grid), manifest, tmp)
        except (AggregationError, EmptyColumnError) as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                classified_run(make_panel(manifest, moved), manifest, tmp)
            return
        got, got_ids = classified_run(make_panel(manifest, moved), manifest, tmp)
    for pillar in "FOI":
        assert np.abs(got.index[pillar] - want.index[pillar]).max() <= 1e-9
    near = np.abs(np.array([want.index[p] for p in "FOI"]) - 4.0).min(axis=0) <= 1e-9
    for k, code in enumerate(want.countries):
        if not near[k]:
            assert got_ids[code] == want_ids[code]


def test_a_countrys_component_mean_does_not_depend_on_the_panel_size():
    # the parent summed a component of 8+ members pairwise in a one-row
    # panel and one after another in a longer one: 1.7277672953288628
    # alone, 1.7277672953288632 beside a copy of itself
    specs = [IndicatorSpec(f"f{j}", "x", "F", "higher_is_better", "t", "f") for j in range(8)]
    specs += [IndicatorSpec(p, "x", p.upper(), "higher_is_better", "t") for p in "oi"]
    manifest = IndicatorManifest(tuple(specs))
    row = [1.7277672953288628] * 10
    alone, twice = (
        compute_pillar_scores(make_panel(manifest, [row] * n), manifest).index["F"].tolist() for n in (1, 2)
    )
    assert alone == twice[:1] == twice[1:] == [1.7277672953288632]


@st.composite
def raw_panels(draw):
    """A manifest with shared components and either direction, and a raw
    grid over it whose columns may be constant, empty, or far from 1-7,
    with any pattern of missing cells."""
    specs = []
    for pillar in "FOI":
        for j in range(draw(st.integers(1, 5))):
            direction = draw(st.sampled_from(["higher_is_better", "lower_is_better"]))
            specs.append(IndicatorSpec(f"{pillar}{j}", "x", pillar, direction, "t", f"{pillar}g{draw(st.integers(0, 2))}"))
    manifest = IndicatorManifest(tuple(specs))
    shape = (draw(st.integers(1, 25)), len(specs))
    cells = st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, -0.0, 2.5, 5e-324, 1e15]))
    grid = draw(hnp.arrays(float, shape, elements=cells))
    for j in range(shape[1]):
        kind = draw(st.sampled_from(["as drawn"] * 4 + ["constant", "empty"]))
        if kind == "constant":
            grid[:, j] = grid[0, j]
        elif kind == "empty":
            grid[:, j] = np.nan
    missing_frac = draw(st.sampled_from([0.0, 0.1, 0.5]))
    grid[draw(hnp.arrays(float, shape, elements=st.floats(0.0, 1.0))) < missing_frac] = np.nan
    return manifest, make_panel(manifest, grid)


def _scores_outcome(run):
    """What ``run()`` gives, as comparable data: its index bytes, or the
    type and text of its error; with the number of warnings raised."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        try:
            scores = run()
            outcome = [scores.index[p].tobytes() for p in "FOI"]
        except (AggregationError, EmptyColumnError) as exc:
            outcome = [type(exc).__name__, str(exc)]
    return outcome, len(seen)


def rescaled_grid_outcome(manifest, panel, policy):
    return _scores_outcome(
        lambda: compute_pillar_scores(rescale_panel(panel, rescale_rule(panel, manifest)), manifest, missing_policy=policy)
    )


def fused_outcome(manifest, panel, policy):
    return _scores_outcome(
        lambda: compute_pillar_scores(panel, manifest, missing_policy=policy, rescale=rescale_rule(panel, manifest))
    )


@settings(max_examples=300)
@given(raw_panels(), st.sampled_from(["available_mean", "strict"]))
def test_fused_rescale_equals_aggregating_the_rescaled_grid_bitwise(case, policy):
    assert fused_outcome(*case, policy) == rescaled_grid_outcome(*case, policy)


@pytest.mark.skipif(sys.platform != "linux", reason="only Linux splits a panel")
@settings(max_examples=100)
@given(raw_panels(), st.sampled_from(["available_mean", "strict"]), st.integers(2, 4))
def test_split_aggregate_equals_aggregating_the_rescaled_grid_bitwise(case, policy, cpus):
    # the fused aggregate cut into two to four row ranges, so that ranges
    # hold a row or two, or none, against the unsplit aggregate
    want = rescaled_grid_outcome(*case, policy)
    forks = []
    forked = panel_module._forked
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(pillar_module, "_SPLIT_MIN_CELLS", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(panel_module, "_forked", lambda works: forks.append(len(works := list(works))) or forked(works))
        assert fused_outcome(*case, policy) == want
    assert forks == ([] if want[0][0] == "EmptyColumnError" else [cpus - 1])


# Run in a fresh interpreter (under a timeout, for a deadlock): aggregate
# a raw 6 000-country panel in three row ranges, each child's result
# larger than a pipe buffer, under both policies; then print the error of
# the first, the hash of the indices of the second, the forks made, the
# ranges aggregated in process, and whether a child process or a
# descriptor outlived the aggregates. A failing child sends the first
# bytes of the frame of `panel._send`, its 8-byte length and then its
# result's bytes, and exits 3.
_SPLIT_AGGREGATE = """
import hashlib, json, os, signal, sys
import numpy as np
from foi import panel, pillar
from foi.errors import AggregationError
from foi.manifest import default_manifest
from foi.rescale import rescale_rule
case = sys.argv[1]
manifest = default_manifest()
rng = np.random.default_rng(3)
grid = rng.normal(size=(6000, len(manifest.ids))) * 100
grid[rng.random(grid.shape) < 0.05] = np.nan
grid[:, 0] = 2.5  # a constant column
grid[5500, [j for j, ind in enumerate(manifest.ids) if manifest.by_id(ind).pillar == "O"]] = np.nan
raw = panel.IndicatorPanel(2020, [f"C{i:04d}" for i in range(len(grid))], manifest.ids, grid)
fds = sorted(os.listdir("/proc/self/fd"))
os.sched_getaffinity = lambda pid: {0, 1, 2}
pillar._SPLIT_MIN_CELLS = 1
forks, fork, aggregate, parent = [], panel._fork, pillar._aggregate, os.getpid()
panel._fork = lambda work, pipes: forks.append(1) or fork(work, pipes)
in_process = []
def counted(values, **kwargs):
    if os.getpid() == parent:
        in_process.append(1)
    return aggregate(values, **kwargs)
pillar._aggregate = counted
def send_and_fail(work, dump, block, w, keep):  # keep: the bytes of the result sent
    data = dump(work(block))
    with open(w, "wb") as out:
        out.write((len(data).to_bytes(8, "little") + data)[: 8 + keep(data)])
    os._exit(3)
keep = {
    "a child fails after part of its result": lambda data: 900 * 6 * 8,  # 900 rows of 6 floats
    "a child dies mid-frame": lambda data: len(data) // 2,
    "a child fails after it writes": len,
}
if case == "unsplit":
    pillar._SPLIT_MIN_CELLS = 1 << 62
elif case == "a child fails before it writes":
    panel._send = lambda *args: os._exit(3)
elif case in keep:
    panel._send = lambda *args: send_and_fail(*args, keep[case])
elif case == "SIGCHLD ignored":  # the system reaps each child
    signal.signal(signal.SIGCHLD, signal.SIG_IGN)
elif case == "a fork fails":  # the second of two, in each aggregate
    real_fork, fork_calls = os.fork, []
    def failing_fork():
        fork_calls.append(1)
        if len(fork_calls) % 2 == 0:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return real_fork()
    os.fork = failing_fork
rule = rescale_rule(raw, manifest)
try:  # country C5500, in the last range, has no O component
    pillar.compute_pillar_scores(raw, manifest, rescale=rule)
except AggregationError as exc:
    error = str(exc)
scores = pillar.compute_pillar_scores(raw, manifest, missing_policy="strict", rescale=rule)
digest = hashlib.sha256(b"".join(scores.index[p].tobytes() for p in "FOI"))
try:
    os.waitpid(-1, os.WNOHANG)
    children = "left"
except ChildProcessError:
    children = "none"
print(json.dumps([error, digest.hexdigest(), len(forks), len(in_process), children, sorted(os.listdir("/proc/self/fd")) == fds]))
"""


def _split_aggregate(case):
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c", _SPLIT_AGGREGATE, case],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0 and not proc.stderr, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.skipif(sys.platform != "linux", reason="only Linux splits a panel")
@pytest.mark.parametrize("case", [
    "plain", "a child fails before it writes", "a child fails after part of its result",
    "a child fails after it writes", "a child dies mid-frame", "SIGCHLD ignored", "a fork fails",
])
def test_split_aggregate_of_a_large_panel_equals_the_unsplit_aggregate(case):
    error, digest, *rest = _split_aggregate("unsplit")
    assert error == "country 'C5500' has no observed components in pillar 'O'"
    assert rest == [0, 2, "none", True]
    # two forks tried per aggregate; the process aggregates its own range,
    # and each range whose child or fork failed
    ranges = {
        "a child fails before it writes": 3, "a child fails after part of its result": 3, "a child dies mid-frame": 3,
        "a fork fails": 2,
    }
    assert _split_aggregate(case) == [error, digest, 4, 2 * ranges.get(case, 1), "none", True]
