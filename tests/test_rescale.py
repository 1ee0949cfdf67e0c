import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from foi.errors import DomainError, EmptyColumnError, SchemaError
from foi.panel import IndicatorPanel
from foi.pillar import compute_pillar_scores
from foi.rescale import min_max_rescale, rescale_panel, rescale_rule

from conftest import make_manifest, make_panel

finite = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False)
moderate = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)


def rescaled(panel, manifest):
    """``panel`` rescaled by its manifest directions."""
    return rescale_panel(panel, rescale_rule(panel, manifest))


def test_endpoints_higher_is_better():
    assert min_max_rescale([10, 40, 70], "higher_is_better").tolist() == [1.0, 4.0, 7.0]


def test_direction_reversal():
    assert min_max_rescale([10, 40, 70], "lower_is_better").tolist() == [7.0, 4.0, 1.0]


def test_degenerate_column_maps_to_midpoint():
    assert min_max_rescale([5, 5, 5], "higher_is_better").tolist() == [4.0, 4.0, 4.0]


def test_missing_cells_stay_missing():
    out = min_max_rescale([1.0, np.nan, 3.0], "higher_is_better")
    assert np.isnan(out[1])
    assert out[0] == 1.0 and out[2] == 7.0


def test_all_missing_is_error():
    with pytest.raises(EmptyColumnError):
        min_max_rescale([np.nan, np.nan], "higher_is_better")


@given(st.lists(finite, min_size=2, max_size=40))
@settings(max_examples=200)
def test_bounds_and_endpoint_attainment(values):
    out = min_max_rescale(values, "higher_is_better")
    assert np.all(out >= 1.0 - 1e-9) and np.all(out <= 7.0 + 1e-9)
    if len(set(values)) >= 2:
        assert out.min() == pytest.approx(1.0)
        assert out.max() == pytest.approx(7.0)


@given(st.lists(finite, min_size=2, max_size=40, unique=True))
@settings(max_examples=200)
def test_strict_monotonicity(values):
    # distinct values whose gaps survive the linear map in float arithmetic
    span = max(values) - min(values)
    ordered = sorted(values)
    assume(all(b - a > span * 1e-9 for a, b in zip(ordered, ordered[1:])))
    out = min_max_rescale(values, "higher_is_better")
    order = np.argsort(values)
    assert np.all(np.diff(out[order]) > 0)


@given(
    st.lists(moderate, min_size=2, max_size=20),
    st.floats(min_value=0.1, max_value=10.0),
    st.floats(min_value=-1e3, max_value=1e3),
)
@settings(max_examples=200)
def test_positive_affine_invariance(values, a, b):
    # keep the spread large enough that the shift cannot swamp it
    assume(max(values) - min(values) > 1e-2)
    base = min_max_rescale(values, "higher_is_better")
    shifted = min_max_rescale([a * v + b for v in values], "higher_is_better")
    assert np.allclose(base, shifted, atol=1e-6)


def test_panel_columns_scale_invariant():
    manifest = make_manifest()
    rng = np.random.default_rng(1)
    grid = rng.normal(size=(8, 6))
    scaled = grid.copy()
    scaled[:, 0] *= 10.0
    a = rescaled(make_panel(manifest, grid), manifest)
    b = rescaled(make_panel(manifest, scaled), manifest)
    assert np.allclose(a.values, b.values)


def test_two_country_panel_spans_range():
    manifest = make_manifest()
    grid = np.array([[1.0, 2, 3, 4, 5, 6], [2.0, 1, 4, 3, 6, 5]])
    out = rescaled(make_panel(manifest, grid), manifest)
    assert sorted(out.values[:, 0]) == [1.0, 7.0]
    assert {v for col in out.values.T for v in col} == {1.0, 7.0}


def test_random_panel_column_extremes():
    manifest = make_manifest((9, 5, 10))
    rng = np.random.default_rng(42)
    grid = rng.normal(size=(34, 24)) * rng.uniform(1, 100, size=24)
    out = rescaled(make_panel(manifest, grid), manifest)
    # brute-force per-column check
    assert np.allclose(out.values.min(axis=0), 1.0)
    assert np.allclose(out.values.max(axis=0), 7.0)


def test_permutation_of_countries_moves_values_with_them():
    manifest = make_manifest()
    rng = np.random.default_rng(3)
    grid = rng.normal(size=(6, 6))
    base = rescaled(make_panel(manifest, grid), manifest)
    perm = rng.permutation(6)
    permuted = rescaled(
        make_panel(manifest, grid[perm], countries=[f"C{i:02d}" for i in perm]), manifest
    )
    assert np.allclose(permuted.values, base.values[perm])


def test_empty_column_error_names_indicator():
    manifest = make_manifest()
    grid = np.ones((3, 6))
    grid[:, 2] = np.nan
    with pytest.raises(EmptyColumnError, match="o0"):
        rescaled(make_panel(manifest, grid), manifest)


@pytest.mark.parametrize("direction", ["higher_is_better", "lower_is_better"])
def test_column_whose_span_overflows_is_a_domain_error(direction):
    # the span 1e308 - (-1e308) is inf: the rule would give [nan, 1, 1, 1]
    with pytest.raises(DomainError, match="^column: the span of its observed values overflows$"):
        min_max_rescale([1e308, -1e308, 0.0, 5e307], direction)
    manifest = make_manifest(directions=dict.fromkeys(("f0", "f1", "o0", "o1", "i0", "i1"), direction))
    grid = np.ones((4, 6))
    grid[:, 3] = [1e308, -1e308, 0.0, np.nan]
    with pytest.raises(DomainError, match="^indicator 'o1': the span of its observed values overflows$"):
        rescaled(make_panel(manifest, grid), manifest)
    # a span just under the largest float still rescales
    assert min_max_rescale([1e308, -7.9e307, 0.0], direction).tolist() == (
        [7.0, 1.0, 1.0 + 6.0 * (7.9e307 / (1e308 + 7.9e307))] if direction == "higher_is_better"
        else [1.0, 7.0, 1.0 + 6.0 * (1e308 / (1e308 + 7.9e307))]
    )


def rescale_column_loop(values, direction):
    """The one-column-at-a-time rescale ``rescale_panel`` replaced: the
    oracle of its bits."""
    col = np.asarray(values, dtype=float)
    mask = ~np.isnan(col)
    lo, hi = col[mask].min(), col[mask].max()
    out = np.full_like(col, np.nan)
    if hi == lo:
        out[mask] = 4.0
        return out
    if direction == "lower_is_better":
        frac = (hi - col[mask]) / (hi - lo)
    else:
        frac = (col[mask] - lo) / (hi - lo)
    out[mask] = 1.0 + 6.0 * frac
    return out


@settings(max_examples=300)
@given(st.data())
def test_rescale_panel_equals_column_loop_bitwise(data):
    # ties, constant and empty columns, signed zeros, subnormal spans,
    # far-off levels and any pattern of missing cells
    directions = {ind: data.draw(st.sampled_from(["higher_is_better", "lower_is_better"]))
                  for ind in ("f0", "f1", "o0", "o1", "i0", "i1")}
    manifest = make_manifest(directions=directions)
    n = data.draw(st.integers(1, 12))
    cells = st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, 5e-324, 1e-310, np.nan]),
        finite,
        st.floats(1e15, 1e15 + 8),
    )
    grid = data.draw(hnp.arrays(float, (n, 6), elements=cells))
    panel = make_panel(manifest, grid)
    empty = [ind for j, ind in enumerate(panel.indicators) if np.isnan(grid[:, j]).all()]
    if empty:
        with pytest.raises(EmptyColumnError, match=f"^indicator '{empty[0]}' has no observed values$"):
            rescaled(panel, manifest)
        return
    got = rescaled(panel, manifest).values
    for j, ind in enumerate(panel.indicators):
        want = rescale_column_loop(grid[:, j], directions[ind])
        assert got[:, j].tobytes() == want.tobytes()
        assert min_max_rescale(grid[:, j], directions[ind]).tobytes() == want.tobytes()


_NAN = float("nan")


@settings(max_examples=300)
@given(
    hnp.arrays(float, st.tuples(st.integers(1, 12), st.just(6)), elements=st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, 5e-324, 1e-310, 1e308, -1e308, _NAN]), finite,
        st.floats(1e15, 1e15 + 8))),
    st.lists(st.booleans(), min_size=6, max_size=6),
)
@example(np.array([[1e308, 0, 0, 0, 0, 0], [-1e308, 1, 1, 1, 1, 1], [0.0, 2, 2, 2, 2, 2]]), [False, True] * 3)  # hi - lo overflows: an error
@example(np.array([[1e308, 0, 0, 0, 0, 0], [_NAN, 1, 1, 1, 1, 1], [0.0, 2, 2, 2, 2, 2]]), [True] * 6)  # a span of 1e308
@example(np.array([[5e-324, 0, 0, 0, 0, 0], [1e-323, 1, 1, 1, 1, 1], [0.0, 2, 2, 2, 2, 2]]), [False, True] * 3)  # a subnormal span
@example(np.array([[2.5, 0, 0, 0, 0, 0], [_NAN, 1, 1, 1, 1, 1], [2.5, 2, 2, 2, 2, 2]]), [False, True] * 3)  # constant, with a missing cell
@example(np.array([[-3.0, 0, 0, 0, 0, 0], [1.0, 1, 1, 1, 1, 1], [9.0, 2, 2, 2, 2, 2]]), [True] * 6)  # lower is better, at both ends
def test_folded_rule_equals_column_loop_bitwise(grid, lower):
    # the rule applied in place, to a copy of the grid, row blocks, and the
    # block transposed (as the aggregate applies it), all against the loop
    directions = dict(zip(("f0", "f1", "o0", "o1", "i0", "i1"), np.where(lower, "lower_is_better", "higher_is_better")))
    manifest = make_manifest(directions=directions)
    panel = make_panel(manifest, grid)
    for j, ind in enumerate(panel.indicators):  # the first column with no observed value or an infinite span
        observed = grid[~np.isnan(grid[:, j]), j].tolist()
        if not observed or not math.isfinite(max(observed) - min(observed)):
            with pytest.raises(DomainError if observed else EmptyColumnError, match=f"^indicator '{ind}'"):
                rescale_rule(panel, manifest)
            return
    rule = rescale_rule(panel, manifest)
    want = np.column_stack([rescale_column_loop(grid[:, j], directions[ind]) for j, ind in enumerate(panel.indicators)])
    in_place, blocks, transposed = grid.copy(), np.empty_like(grid), grid.T.copy()
    rule.apply(in_place, in_place)
    for i in range(0, len(grid), 5):
        rule.apply(grid[i : i + 5], blocks[i : i + 5])
    rule.apply(transposed.T, transposed.T)
    for got in (rescale_panel(panel, rule).values, in_place, blocks, transposed.T):
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()


def test_constant_column_is_marked_on_the_rule_and_warns_nothing():
    manifest = make_manifest()
    grid = np.arange(24.0).reshape(4, 6)
    grid[:, 2] = [2.5, np.nan, 2.5, 2.5]
    grid[1:, 4] = np.nan  # one observed cell: constant too
    panel = make_panel(manifest, grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rule = rescale_rule(panel, manifest)
        out = rescale_panel(panel, rule)
    assert rule.constant.tolist() == [False, False, True, False, True, False]
    assert out.values[[0, 2, 3], 2].tolist() == [4.0] * 3 and np.isnan(out.values[1, 2])


@pytest.mark.parametrize("width", [1, 3, 12])
def test_rule_of_another_width_is_a_schema_error(width):
    # a rule built on another panel would otherwise end on numpy's
    # IndexError: boolean index did not match; on a panel with no rows,
    # where no block of rows is rescaled, on empty scores
    manifest = make_manifest()
    other = make_manifest((width, 0, 0))
    rule = rescale_rule(make_panel(other, np.arange(4.0 * width).reshape(4, width)), other)
    message = f"^a rescale rule of {width} columns cannot rescale 6 columns$"
    for rows in (4, 0):
        panel = make_panel(manifest, np.arange(6.0 * rows).reshape(rows, 6))
        with pytest.raises(SchemaError, match=message):
            rescale_panel(panel, rule)
        with pytest.raises(SchemaError, match=message):
            compute_pillar_scores(panel, manifest, rescale=rule)


def test_panel_column_not_in_the_manifest_is_a_schema_error():
    # both ended in a bare KeyError: 'x' and KeyError: 'o0'
    manifest = make_manifest((1, 1, 1))
    panel = IndicatorPanel(2020, ("A", "B"), ("f0", "x", "i0"), np.arange(6.0).reshape(2, 3))
    with pytest.raises(SchemaError, match="^no indicator 'x' in the manifest$"):
        rescale_rule(panel, manifest)
    with pytest.raises(SchemaError, match="^no panel column for manifest indicator 'o0'$"):
        compute_pillar_scores(panel, manifest)
