import math
import os
import subprocess
import sys
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import foi
from foi import IndicatorPanel, factor
from foi.errors import (
    DomainError,
    DuplicateCountryError,
    PanelParseError,
    SchemaError,
    SingularMatrixError,
    UndefinedStatisticError,
)
from foi.factor import (
    _TAIL_UNDERFLOW_LOG,
    CorrelationMatrix,
    _chi2_upper_tail,
    _orient_signs,
    bartlett_test,
    congruence,
    correlation_matrix,
    factor_scores,
    fit_factor_model,
    kaiser_count,
    kmo_statistic,
    load_variable_matrix,
    pca_extract,
    synthesize_known_factors,
    variance_explained,
    varimax_criterion,
    varimax_rotate,
)

FA_PANEL = resources.files("foi.data") / "demo_fa_panel.csv"
SRC = str(Path(foi.__file__).resolve().parents[1])


def vm(values, rows=None, variables=None):
    values = np.asarray(values, dtype=float)
    rows = rows or tuple(f"r{i}" for i in range(values.shape[0]))
    variables = variables or tuple(f"v{j}" for j in range(values.shape[1]))
    return IndicatorPanel(epoch=0, countries=rows, indicators=variables, values=values)


def corr_from(matrix, variables=None):
    matrix = np.asarray(matrix, dtype=float)
    p = matrix.shape[0]
    variables = variables or tuple(f"v{j}" for j in range(p))
    return CorrelationMatrix(
        variables=tuple(variables), values=matrix, pair_counts=np.full((p, p), 100)
    )


# ---------------------------------------------------------------- correlations


def test_unit_diagonal_and_perfect_dependence():
    x = np.arange(10.0)
    data = vm(np.column_stack([x, 2 * x + 3, -x + 1]))
    r = correlation_matrix(data)
    assert np.allclose(np.diag(r.values), 1.0)
    assert r.values[0, 1] == pytest.approx(1.0)
    assert r.values[0, 2] == pytest.approx(-1.0)


def test_hand_computed_pearson():
    # 5x3 hand dataset; expectations from the definitional formula
    grid = np.array(
        [
            [1.0, 2.0, 5.0],
            [2.0, 1.0, 4.0],
            [3.0, 4.0, 3.0],
            [4.0, 3.0, 2.0],
            [5.0, 5.0, 1.0],
        ]
    )
    r = correlation_matrix(vm(grid))

    def pearson(x, y):
        mx, my = sum(x) / len(x), sum(y) / len(y)
        num = sum((a - mx) * (b - my) for a, b in zip(x, y))
        den = math.sqrt(sum((a - mx) ** 2 for a in x) * sum((b - my) ** 2 for b in y))
        return num / den

    for a in range(3):
        for b in range(3):
            assert r.values[a, b] == pytest.approx(pearson(grid[:, a], grid[:, b]), abs=1e-12)


def test_pairwise_uses_complete_pairs():
    grid = np.array(
        [
            [1.0, 1.0],
            [2.0, 2.0],
            [3.0, 3.0],
            [4.0, np.nan],
            [np.nan, 5.0],
        ]
    )
    r = correlation_matrix(vm(grid), missing="pairwise")
    assert r.pair_counts[0, 1] == 3
    assert r.values[0, 1] == pytest.approx(1.0)


def test_listwise_drops_incomplete_rows():
    grid = np.array([[1.0, 2.0], [2.0, 1.0], [3.0, 4.0], [4.0, np.nan]])
    r = correlation_matrix(vm(grid), missing="listwise")
    assert r.pair_counts[0, 0] == 3


def test_listwise_scale_ignores_dropped_rows():
    # v1 varies only at 1e-230 on the kept rows; the dropped last row
    # holds its 1.0, which must not set the column's scale
    grid = np.array([[0.0, 0.0], [1.0, 1e-230], [2.0, 0.0], [np.nan, 1.0]])
    r = correlation_matrix(vm(grid), missing="listwise")
    assert r.values[0, 1] == pytest.approx(0.0, abs=1e-12)
    assert_matches_loop(vm(grid), "listwise")


def correlation_loop(data, missing="pairwise"):
    """The pair-by-pair Pearson loop ``correlation_matrix`` replaced: the
    oracle for its values, pair counts and first error. Each column is
    first multiplied by the power of two that brings its largest
    magnitude into [0.5, 1), which is exact; unscaled, a varying column
    near 1e-200 squares to 0 and reads as zero variance."""
    grid = data.values
    if missing == "listwise":
        grid = grid[(~np.isnan(grid)).all(axis=1)]
    grid = np.ldexp(grid, -np.frexp(np.nanmax(np.abs(grid), axis=0, initial=0.0))[1])
    p = len(data.indicators)
    r = np.eye(p)
    counts = np.zeros((p, p), dtype=int)
    for j in range(p):
        col = grid[:, j]
        obs = col[~np.isnan(col)]
        counts[j, j] = obs.size
        if obs.size and (obs.min() == obs.max() or obs.std() == 0.0):
            raise DomainError(f"variable {data.indicators[j]!r} has zero variance")
    for a in range(p):
        for b in range(a + 1, p):
            ok = ~np.isnan(grid[:, a]) & ~np.isnan(grid[:, b])
            counts[a, b] = counts[b, a] = int(ok.sum())
            if counts[a, b] < 3:
                raise DomainError(
                    f"fewer than 3 complete observations for pair "
                    f"({data.indicators[a]!r}, {data.indicators[b]!r})"
                )
            x, y = grid[ok, a], grid[ok, b]
            if x.min() == x.max() or y.min() == y.max() or x.std() == 0.0 or y.std() == 0.0:
                raise DomainError(
                    f"zero variance in pair ({data.indicators[a]!r}, {data.indicators[b]!r})"
                )
            r[a, b] = r[b, a] = float(((x - x.mean()) * (y - y.mean())).mean() / (x.std() * y.std()))
    return r, counts


def _outcome(fn, data, missing):
    try:
        return fn(data, missing)
    except DomainError as exc:
        return str(exc)


def assert_matches_loop(data, missing):
    want = _outcome(correlation_loop, data, missing)
    got = _outcome(correlation_matrix, data, missing)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    assert np.array_equal(got.pair_counts, want[1])
    assert np.abs(got.values - want[0]).max() <= 1e-12
    assert np.array_equal(got.values, got.values.T)


@st.composite
def holed_grids(draw):
    """Small grids with ties, constant stretches, far-off levels and any
    pattern of missing cells."""
    n = draw(st.integers(0, 14))
    p = draw(st.integers(1, 5))
    cells = st.one_of(
        st.integers(0, 2).map(float),
        st.floats(-1e3, 1e3),
        st.floats(1e6, 1e6 + 1),
    )
    grid = draw(hnp.arrays(float, (n, p), elements=cells))
    holes = draw(hnp.arrays(bool, (n, p), elements=st.sampled_from([False, False, True])))
    grid[holes] = np.nan
    return grid


@settings(max_examples=300)
@given(holed_grids(), st.sampled_from(["pairwise", "listwise"]))
def test_correlation_matches_pair_loop(grid, missing):
    assert_matches_loop(vm(grid), missing)


@pytest.mark.parametrize("missing", ["pairwise", "listwise"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_correlation_matches_pair_loop_on_wide_holed_data(missing, seed):
    data, _ = synthesize_known_factors(p=40, k=4, n=200, seed=seed)
    grid = np.array(data.values)
    rng = np.random.default_rng(seed)
    grid[rng.random(grid.shape) < (0.1 if missing == "pairwise" else 0.002)] = np.nan
    grid[:, 3] += 1e8  # a far-off level, so centring matters
    assert_matches_loop(vm(grid), missing)


@pytest.mark.parametrize(
    "shared, others",
    [
        ([5.0] * 4, [1.0, 9.0]),
        # centred on its mean 0.3875, v1's restricted sum of squares comes
        # out 7e-18 rather than 0 in the matrix products
        ([0.3] * 6, [0.4, 0.9]),
    ],
)
def test_zero_variance_in_pair_named(shared, others):
    # v1 varies overall but is constant on the rows it shares with v0
    m = len(shared)
    grid = np.column_stack(
        [np.r_[np.arange(1.0, m + 1), [np.nan] * len(others)], shared + others]
    )
    with pytest.raises(DomainError, match=r"^zero variance in pair \('v0', 'v1'\)$"):
        correlation_matrix(vm(grid))
    assert_matches_loop(vm(grid), "pairwise")


def test_zero_variance_named():
    grid = np.column_stack([np.arange(5.0), np.full(5, 2.0)])
    with pytest.raises(DomainError, match="v1"):
        correlation_matrix(vm(grid))


@pytest.mark.parametrize("missing", ["pairwise", "listwise"])
def test_constant_variable_whose_std_rounds_off_zero_named(missing):
    # std() of [0.4, 0.4, 0.4] is 5.6e-17, not 0: a std() == 0 check let
    # this column through with r = 0
    assert np.array([0.4] * 3).std() != 0.0
    grid = np.column_stack([[1.0, 2.0, 3.0], [0.4] * 3])
    with pytest.raises(DomainError, match=r"^variable 'v1' has zero variance$"):
        correlation_matrix(vm(grid), missing=missing)
    assert_matches_loop(vm(grid), missing)


@pytest.mark.parametrize("missing", ["pairwise", "listwise"])
def test_pair_constant_on_shared_rows_whose_std_rounds_off_zero_named(missing):
    # v1 is 0.4 on the three rows it shares with v0 and varies elsewhere;
    # under listwise deletion the shared rows are all the rows left, so
    # the variable check names v1 first
    grid = np.array([
        [1.0, 0.4, 1.0], [2.0, 0.4, 3.0], [3.0, 0.4, 2.0], [np.nan, 0.7, 4.0], [np.nan, 0.9, 6.0],
    ])
    want = {
        "pairwise": r"^zero variance in pair \('v0', 'v1'\)$",
        "listwise": r"^variable 'v1' has zero variance$",
    }[missing]
    with pytest.raises(DomainError, match=want):
        correlation_matrix(vm(grid), missing=missing)
    assert_matches_loop(vm(grid), missing)


@pytest.mark.parametrize("scale", [1e160, 1e-160, 1e-200])
def test_correlation_of_extreme_magnitudes(scale, monkeypatch):
    # unscaled, the products overflow (1e160), lose digits in subnormals
    # (1e-160, relative error 3.6e-7) or read as zero variance (1e-200)
    grid = np.array([[1.0, 1.0], [2.0, 3.0], [4.0, 2.0], [3.0, 7.0]])
    want = correlation_matrix(vm(grid)).values
    # scaled before the matrix products, no pair needs the per-pair recheck
    monkeypatch.setattr("foi.factor._zero_variance", lambda x: pytest.fail("per-pair recheck ran"))
    assert np.abs(correlation_matrix(vm(grid * scale)).values - want).max() <= 1e-12


@settings(max_examples=60)
@given(
    st.lists(st.floats(-200.0, 200.0), min_size=6, max_size=6),
    st.sampled_from(["pairwise", "listwise"]),
)
def test_correlation_and_scores_unchanged_by_column_scales(exponents, missing):
    data, _ = synthesize_known_factors(p=6, k=2, n=40, seed=5)
    grid = np.array(data.values)
    grid[np.random.default_rng(5).random(grid.shape) < 0.05] = np.nan
    scaled = grid * 10.0 ** np.array(exponents)
    assert np.isfinite(scaled[~np.isnan(grid)]).all() and (scaled[~np.isnan(grid)] != 0).all()
    want = fit_factor_model(vm(grid), k=2, missing=missing)
    got = fit_factor_model(vm(scaled), k=2, missing=missing)
    r_want = correlation_matrix(vm(grid), missing=missing).values
    assert np.abs(correlation_matrix(vm(scaled), missing=missing).values - r_want).max() <= 1e-12
    assert np.array_equal(np.isnan(got.scores), np.isnan(want.scores))
    assert np.nanmax(np.abs(got.scores - want.scores)) <= 1e-12


def _affine_rounding_bound(x, y, a):
    """A bound on how far the Pearson r of the rounded column ``y`` =
    fl(fl(a·x) + b) can lie from that of x, whose exact image a·x + b has
    the same r: each cell of y is off by at most half an ulp of a·x plus
    half an ulp of y, which turns the centred column by an angle of at
    most the norm of those offsets over a·‖x − mean(x)‖."""
    offsets = 0.5 * (np.spacing(np.abs(a * x)) + np.spacing(np.abs(y)))
    spread = a * np.linalg.norm(x - x.mean())
    return np.linalg.norm(offsets) / spread if spread > 0 else np.inf


@settings(max_examples=300)
@given(
    holed_grids(), st.integers(0, 4), st.floats(1e-3, 1e3), st.floats(-1.0, 1.0), st.integers(0, 14),
    st.sampled_from(["pairwise", "listwise"]),
)
@example(np.array([[1.0, 2.0], [2.0, 1.0], [4.0, 3.0], [3.0, 7.0]]), 0, 1.0, 1.0, 14, "pairwise")  # b = 3e14
def test_correlation_under_a_positive_affine_map_stays_within_its_rounding_bound(grid, j, a, t, k, missing):
    # column j goes through x -> a·x + b with b up to 10^14 times its
    # range: its r with each other column may move by twice the rounding
    # bound plus a few ulps of r; every other r stays bit for bit
    assume(j < grid.shape[1])
    x = grid[:, j]
    observed = x[~np.isnan(x)]
    b = t * 10.0**k * a * max(np.ptp(observed) if observed.size else 0.0, 1.0)
    moved = grid.copy()
    moved[:, j] = a * x + b
    # a map that rounds distinct values together can take a column's
    # variance (see the test below)
    assume(np.unique(a * observed + b).size == np.unique(observed).size)
    want = _outcome(correlation_matrix, vm(grid), missing)
    got = _outcome(correlation_matrix, vm(moved), missing)
    if isinstance(want, str):  # equal values stay equal, and holes stay put
        assert got == want
        return
    kept = ~np.isnan(grid)
    if missing == "listwise":
        kept &= kept.all(axis=1)[:, None]
    bounds = [_affine_rounding_bound(x[kept[:, j] & kept[:, c]], moved[kept[:, j] & kept[:, c], j], a)
              for c in range(grid.shape[1]) if c != j]
    assume(all(bound < 1e-3 for bound in bounds))
    assert not isinstance(got, str), got
    others = [c for c in range(grid.shape[1]) if c != j]
    for c, bound in zip(others, bounds):
        assert abs(got.values[j, c] - want.values[j, c]) <= 2 * bound + 8 * np.finfo(float).eps
    assert np.array_equal(got.values[np.ix_(others, others)], want.values[np.ix_(others, others)])


@pytest.mark.parametrize("grid", [
    np.array([[0.0] * 5, [2.2250738585072014e-309] + [0.0] * 4, [0.0] * 5, [0.0] * 5]),
    np.array([[0.0], [2.14030148e-95]]),
])
def test_column_an_affine_map_rounds_to_one_value_has_zero_variance(grid):
    # x + 1 rounds the column's variation away: before the map v0 varies
    # (or v1 is the first constant column), after it v0 is constant
    moved = grid.copy()
    moved[:, 0] += 1.0
    assert np.unique(moved[:, 0]).size == 1 < np.unique(grid[:, 0]).size
    with pytest.raises(DomainError, match="^variable 'v0' has zero variance$"):
        correlation_matrix(vm(moved), "pairwise")


def test_too_few_complete_pairs():
    grid = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, np.nan], [4.0, np.nan]])
    with pytest.raises(DomainError, match="complete observations"):
        correlation_matrix(vm(grid))


# ------------------------------------------------------------------- Bartlett


@pytest.mark.parametrize("p,df", [(15, 105), (7, 21), (18, 153)])
def test_df_matches_variable_counts(p, df):
    r = corr_from(np.eye(p) * 0.9 + 0.1)
    assert bartlett_test(r, n=200).df == df


def test_identity_matrix_gives_zero_statistic():
    res = bartlett_test(corr_from(np.eye(6)), n=50)
    assert res.chi_square == 0.0
    assert res.p_value == pytest.approx(1.0)


def test_closed_formula_two_variables():
    # hand-evaluated: -(34 - 1 - 9/6) * ln det([[1, .5], [.5, 1]]) = 31.5 * (-ln 0.75)
    res = bartlett_test(corr_from([[1.0, 0.5], [0.5, 1.0]]), n=34)
    assert res.chi_square == pytest.approx(31.5 * (-math.log(0.75)), abs=1e-9)
    assert res.df == 1


def test_requires_n_greater_than_p():
    with pytest.raises(DomainError):
        bartlett_test(corr_from(np.eye(5)), n=5)


def test_even_number_of_negative_eigenvalues_rejected():
    # det = 16 > 0, but the eigenvalues are -1, -1, 2, 2, 2, 2
    bad = np.kron(np.eye(2), [[1.0, 1.0, 1.0], [1.0, 1.0, -1.0], [1.0, -1.0, 1.0]])
    assert np.linalg.slogdet(bad)[0] == 1.0
    with pytest.raises(SingularMatrixError, match="smallest eigenvalue -1"):
        bartlett_test(corr_from(bad), n=30)


def test_non_positive_definite_rejected():
    bad = np.array([[1.0, 1.2], [1.2, 1.0]])
    with pytest.raises(SingularMatrixError):
        bartlett_test(corr_from(bad), n=30)


def _equicorrelation(p, rho):
    return corr_from(np.full((p, p), rho) + (1.0 - rho) * np.eye(p))


@pytest.mark.parametrize("missing", ["pairwise", "listwise"])
def test_p_value_bitwise_equals_chi2_sf_on_demo_panel(missing):
    from scipy.stats import chi2

    data = load_variable_matrix(FA_PANEL)
    r = correlation_matrix(data, missing=missing)
    # listwise n counted from the grid, not from the pair counts the fit uses
    complete_rows = int((~np.isnan(data.values)).all(axis=1).sum())
    res = bartlett_test(r, n=complete_rows if missing == "listwise" else int(r.pair_counts.min()))
    assert res.p_value == chi2.sf(res.chi_square, res.df)


def test_p_value_bitwise_equals_chi2_sf_on_grid():
    from scipy.stats import chi2

    seen_df, seen_zero = set(), False
    for p in (2, 3, 5, 12, 24, 100, 300):
        for rho in (0.0, 1e-4, 0.01, 0.1, 0.3, 0.6):
            for n in (p + 1, 2 * p, 10 * p):
                res = bartlett_test(_equicorrelation(p, rho), n=n)
                assert res.p_value == chi2.sf(res.chi_square, res.df), (p, rho, n)
                seen_df.add(res.df)
                seen_zero |= res.chi_square == 0.0
    assert 44_850 in seen_df and seen_zero


def test_one_variable_is_a_domain_error():
    # chdtrc(0, 0.0) is nan, which would be returned as the p-value
    with pytest.raises(DomainError, match="at least two variables"):
        bartlett_test(corr_from([[1.0]]), n=30)


def _stat_at_bound(df, log_bound):
    """The x > df at which the Chernoff bound exp(-(df/2)(t - 1 - ln t)),
    t = x/df, equals exp(log_bound): Newton's method on the convex
    t - 1 - ln t - c, started to the right of its root."""
    c = -2.0 * log_bound / df
    t = 2.0 + 2.0 * c
    for _ in range(100):
        t -= (t - 1.0 - math.log(t) - c) / (1.0 - 1.0 / t)
    return df * t


@settings(max_examples=500)
@given(
    st.integers(1, 10**8),
    st.floats(-900.0, -700.0) | st.floats(-1e6, -1.0),
    st.floats(0.0, 1.0),
    st.booleans(),
)
def test_chi2_upper_tail_bitwise_equals_chdtrc(df, log_bound, below, under_df):
    from scipy.special import chdtrc

    stat = df * below if under_df else _stat_at_bound(df, log_bound)
    want = np.float64(chdtrc(df, stat))
    got = _chi2_upper_tail(df, stat)
    assert type(got) is float and np.float64(got).tobytes() == want.tobytes(), (df, stat)


@pytest.mark.parametrize("df", [1, 66, 44_850, 10**8])
def test_chi2_upper_tail_calls_chdtrc_only_above_the_bound(df, monkeypatch):
    import scipy.special

    monkeypatch.setattr(scipy.special, "chdtrc", lambda df, stat: 0.5)
    assert _chi2_upper_tail(df, _stat_at_bound(df, _TAIL_UNDERFLOW_LOG - 1.0)) == 0.0
    assert _chi2_upper_tail(df, _stat_at_bound(df, _TAIL_UNDERFLOW_LOG + 1.0)) == 0.5


def test_pairwise_r_not_psd_names_smallest_eigenvalue_and_listwise():
    # each pair is observed on its own four rows: a and b agree, a and c
    # agree, b and c are opposite, so R has eigenvalues 2, 2 and -1
    t = [1.0, 2.0, 3.0, 5.0]
    nan = [np.nan] * 4
    grid = np.column_stack([t + t + nan, t + nan + t, nan + t + [-v for v in t]])
    with pytest.raises(SingularMatrixError) as exc:
        fit_factor_model(vm(grid), k=1, missing="pairwise")
    assert "smallest eigenvalue -1" in str(exc.value)
    assert "--missing listwise" in str(exc.value)


@pytest.mark.parametrize("missing, hint", [("pairwise", True), ("listwise", False)])
def test_smallest_eigenvalue_at_the_round_off_floor_is_singular(monkeypatch, missing, hint):
    # pca_extract's smallest eigenvalue set to p * eps * the largest, the
    # floor itself, and then one step above it, which fits; the grid has a
    # missing cell, so the pairwise hint comes under pairwise deletion only
    grid = np.random.default_rng(6).normal(size=(40, 3))
    grid[5, 1] = np.nan
    r = correlation_matrix(vm(grid), missing=missing)
    floor = r.p * np.finfo(float).eps * pca_extract(r, 1)[1][0]
    smallest = floor

    def extract(r, k):
        loadings, eigvals = pca_extract(r, k)
        return loadings, np.append(eigvals[:-1], smallest)

    monkeypatch.setattr(factor, "pca_extract", extract)
    with pytest.raises(SingularMatrixError) as exc:
        fit_factor_model(vm(grid), k=1, missing=missing)
    want = f"correlation matrix is singular to working precision (smallest eigenvalue {floor:.6g})"
    assert str(exc.value) == want + ("; pairwise deletion can cause this, try --missing listwise" if hint else "")
    smallest = np.nextafter(floor, np.inf)
    assert fit_factor_model(vm(grid), k=1, missing=missing).eigenvalues[-1] == smallest


# ------------------------------------------------------------------------ KMO


@pytest.mark.parametrize("r01", [0.3, -0.6, 0.85])
def test_two_variable_kmo_is_half(r01):
    # with p = 2 the partial correlation equals the raw one, so the ratio is 1/2
    r = corr_from([[1.0, r01], [r01, 1.0]])
    assert kmo_statistic(r) == pytest.approx(0.5, abs=1e-15)


def test_four_variable_hand_value():
    # R = 0.4 I + 0.6 J; independent oracle by explicit inversion
    r_mat = np.full((4, 4), 0.6)
    np.fill_diagonal(r_mat, 1.0)
    inv = np.linalg.inv(r_mat)
    d = np.sqrt(np.diag(inv))
    q = -inv / np.outer(d, d)
    off = ~np.eye(4, dtype=bool)
    expected = (r_mat[off] ** 2).sum() / ((r_mat[off] ** 2).sum() + (q[off] ** 2).sum())
    assert expected == pytest.approx(0.36 / (0.36 + (3 / 11) ** 2), abs=1e-12)
    assert kmo_statistic(corr_from(r_mat)) == pytest.approx(expected, abs=1e-9)


def test_identity_is_undefined():
    with pytest.raises(UndefinedStatisticError):
        kmo_statistic(corr_from(np.eye(5)))


# ------------------------------------------------------------------------ PCA


def test_two_by_two_eigenvalues():
    _, eig = pca_extract(corr_from([[1.0, 0.4], [0.4, 1.0]]), k=2)
    assert eig.tolist() == pytest.approx([1.4, 0.6])


def test_identity_spectrum():
    loadings, eig = pca_extract(corr_from(np.eye(5)), k=5)
    assert np.allclose(eig, 1.0)
    assert np.allclose((loadings**2).sum(axis=1), 1.0)


def test_full_rank_reconstruction():
    rng = np.random.default_rng(23)
    m = rng.normal(size=(6, 6))
    cov = m @ m.T
    d = np.sqrt(np.diag(cov))
    r_mat = cov / np.outer(d, d)
    loadings, eig = pca_extract(corr_from(r_mat), k=6)
    assert np.allclose(loadings @ loadings.T, r_mat, atol=1e-8)
    assert eig.sum() == pytest.approx(6.0, abs=1e-8)
    assert np.all(np.diff(eig) <= 1e-12)


def test_sign_orientation():
    loadings, _ = pca_extract(corr_from([[1.0, -0.7], [-0.7, 1.0]]), k=2)
    for j in range(2):
        col = loadings[:, j]
        assert col[np.argmax(np.abs(col))] > 0


def orient_signs_loop(loadings):
    """The per-column loop ``_orient_signs`` replaced: the oracle for its
    flips."""
    flips = np.ones(loadings.shape[1])
    for j in range(loadings.shape[1]):
        col = loadings[:, j]
        if col[np.argmax(np.abs(col))] < 0:
            flips[j] = -1.0
    return flips


@st.composite
def tied_loadings(draw):
    """A p x k matrix, k >= 1, C- or Fortran-ordered, of cells drawn from
    a few magnitudes of either sign, ``-0.0`` and ``nan``, so that columns
    hold exact magnitude ties of opposite sign; some columns all zero."""
    p, k = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    cells = st.sampled_from([0.5, -0.5, 1.0, -1.0, 0.0, -0.0, math.nan]) | st.floats(-2.0, 2.0)
    loadings = draw(hnp.arrays(float, (p, k), elements=cells))
    for j in draw(st.sets(st.integers(0, k - 1), max_size=k)):
        loadings[:, j] = 0.0
    return np.asfortranarray(loadings) if draw(st.booleans()) else loadings


@settings(max_examples=300)
@given(tied_loadings())
@example(np.array([[0.5, 0.0, math.nan], [-0.5, 0.0, -1.0], [0.25, 0.0, 1.0]]))
def test_orient_signs_equals_the_column_loop_bitwise(loadings):
    got, want = _orient_signs(loadings), orient_signs_loop(loadings)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_k_out_of_range():
    with pytest.raises(DomainError):
        pca_extract(corr_from(np.eye(3)), k=4)


def test_kaiser_count():
    assert kaiser_count([2.5, 1.2, 0.8, 0.5]) == 2
    assert kaiser_count(np.ones(5)) == 0
    assert kaiser_count([1.0 + 1e-12, 0.9]) == 1


# --------------------------------------------------------------------- varimax


def brute_force_two_factor(loadings, kaiser_normalize=True, step=1e-5):
    """Grid search over the single rotation angle of the 2-factor case."""
    lam = np.asarray(loadings, dtype=float)
    p = lam.shape[0]
    if kaiser_normalize:
        lam = lam / np.sqrt((lam**2).sum(axis=1))[:, None]
    theta = np.arange(0.0, math.pi / 2, step)
    c, s = np.cos(theta), np.sin(theta)
    a, b = lam[:, 0][:, None], lam[:, 1][:, None]
    col1 = a * c + b * s
    col2 = -a * s + b * c
    best = -np.inf
    for cols in ((col1, col2),):
        sq1, sq2 = cols[0] ** 2, cols[1] ** 2
        crit = (
            (sq1**2).sum(axis=0) / p
            - (sq1.sum(axis=0) / p) ** 2
            + (sq2**2).sum(axis=0) / p
            - (sq2.sum(axis=0) / p) ** 2
        )
        best = max(best, crit.max())
    return float(best)


def varimax_matmul(loadings, kaiser_normalize=True, tol=1e-12, max_iter=1000):
    """The varimax ``varimax_rotate`` replaced, which applies each planar
    rotation as a product with a full k x k matrix: the oracle for the
    in-place column update. Takes k >= 2."""
    lam = np.array(loadings, dtype=float)
    p, k = lam.shape
    comm = np.sqrt((lam**2).sum(axis=1))
    work = lam / comm[:, None] if kaiser_normalize else lam.copy()
    rotation = np.eye(k)
    crit = varimax_criterion(work)
    converged = False
    for _ in range(max_iter):
        for a in range(k - 1):
            for b in range(a + 1, k):
                x, y = work[:, a], work[:, b]
                u = x**2 - y**2
                v = 2.0 * x * y
                num = 2.0 * ((u * v).sum() - u.sum() * v.sum() / p)
                den = (u**2 - v**2).sum() - (u.sum() ** 2 - v.sum() ** 2) / p
                phi = 0.25 * math.atan2(num, den)
                if abs(phi) < 1e-15:
                    continue
                c, s = math.cos(phi), math.sin(phi)
                g = np.eye(k)
                g[a, a] = g[b, b] = c
                g[a, b] = -s
                g[b, a] = s
                work = work @ g
                rotation = rotation @ g
        new_crit = varimax_criterion(work)
        gain = new_crit - crit
        rel = gain / crit if crit > 0 else gain
        crit = new_crit
        if rel < tol:
            converged = True
            break
    rotated = (work * comm[:, None]) if kaiser_normalize else work
    flips = _orient_signs(rotated)
    return rotated * flips, rotation * flips, varimax_criterion(work * flips), converged


def assert_matches_matmul(lam, **kwargs):
    got = varimax_rotate(lam, **kwargs)
    want = varimax_matmul(lam, **kwargs)
    for g, w in zip(got[:2], want[:2]):
        assert np.abs(g - w).max() <= 1e-12
    assert got[2] == pytest.approx(want[2], abs=1e-12)
    assert got[3] == want[3]


@pytest.mark.parametrize("kaiser", [True, False])
@pytest.mark.parametrize("p, k", [(6, 2), (10, 3), (24, 5), (40, 8), (90, 15)])
def test_varimax_matches_full_matrix_products(p, k, kaiser):
    rng = np.random.default_rng(p * 100 + k)
    lam = rng.normal(size=(p, k))
    assert_matches_matmul(lam, kaiser_normalize=kaiser)
    assert_matches_matmul(lam, kaiser_normalize=kaiser, max_iter=1)


@pytest.mark.parametrize("k", [2, 3, 12])
def test_varimax_matches_full_matrix_products_on_demo_panel(k):
    loadings, _ = pca_extract(correlation_matrix(load_variable_matrix(FA_PANEL)), k)
    assert_matches_matmul(loadings)


def test_single_factor_is_identity():
    lam = np.array([[0.9], [0.5], [-0.3]])
    rotated, rotation, _, converged = varimax_rotate(lam)
    assert converged
    assert np.allclose(np.abs(rotation), np.eye(1))
    assert np.allclose(np.abs(rotated), np.abs(lam))


# nonzero loadings whose squares are normal floats, so that a row's
# communality is its loading's magnitude, and whose fourth powers, summed,
# keep the varimax criterion finite
_SINGLE_LOADINGS = hnp.arrays(
    float, st.tuples(st.integers(1, 30), st.just(1)),
    elements=st.tuples(st.booleans(), st.floats(2.0**-511, 2.0**250)).map(lambda c: -c[1] if c[0] else c[1]),
)


@settings(max_examples=300)
@given(_SINGLE_LOADINGS, st.booleans())
def test_single_factor_only_orients_its_column(lam, kaiser):
    # one column has no pair to rotate: the sweeps change nothing and stop
    # after the first, and only the sign rule acts, bit for bit
    sign = 1.0 if lam[np.argmax(np.abs(lam[:, 0])), 0] > 0 else -1.0
    rotated, rotation, _, converged = varimax_rotate(lam, kaiser_normalize=kaiser)
    assert rotated.tobytes() == (lam * sign).tobytes()
    assert rotation.tolist() == [[sign]] and converged


def test_simple_structure_stays_put():
    lam = np.zeros((8, 2))
    lam[:4, 0] = 0.9
    lam[4:, 1] = 0.9
    rotated, rotation, crit, converged = varimax_rotate(lam)
    assert converged
    assert np.allclose(np.abs(rotation), np.eye(2), atol=1e-8)
    assert crit == pytest.approx(varimax_criterion(lam / 0.9), abs=1e-10)


def test_rotation_matrix_orthogonal_and_consistent():
    rng = np.random.default_rng(31)
    lam = rng.normal(size=(10, 3))
    rotated, rotation, _, converged = varimax_rotate(lam)
    assert converged
    assert np.allclose(rotation.T @ rotation, np.eye(3), atol=1e-10)
    assert np.allclose(lam @ rotation, rotated, atol=1e-10)


def test_communalities_preserved():
    rng = np.random.default_rng(37)
    lam = rng.normal(size=(12, 4))
    rotated, _, _, _ = varimax_rotate(lam)
    assert np.allclose((lam**2).sum(axis=1), (rotated**2).sum(axis=1), atol=1e-10)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_matches_grid_search(seed):
    rng = np.random.default_rng(seed)
    p = int(rng.integers(5, 21))
    lam = rng.normal(size=(p, 2))
    _, _, crit, _ = varimax_rotate(lam, kaiser_normalize=True)
    assert crit >= brute_force_two_factor(lam) - 1e-6


def test_zero_communality_row_named():
    lam = np.array([[0.9, 0.1], [0.0, 0.0]])
    with pytest.raises(DomainError, match="beta"):
        varimax_rotate(lam, variables=("alpha", "beta"))


@pytest.mark.parametrize("shape", [(0, 2), (0, 1), (3, 0), (0, 0)])
@pytest.mark.parametrize("kaiser", [True, False])
def test_loadings_with_no_row_or_column_are_a_domain_error(shape, kaiser):
    # with no row, the criterion divided by p = 0 and the sign rule took
    # the argmax of an empty column
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"^loadings must be a p x k matrix with p, k >= 1$"):
            varimax_rotate(np.empty(shape), kaiser_normalize=kaiser)


def test_criterion_non_decreasing_per_sweep():
    rng = np.random.default_rng(41)
    lam = rng.normal(size=(15, 3))
    comm = np.sqrt((lam**2).sum(axis=1))
    work = lam / comm[:, None]
    crit = varimax_criterion(work)
    for _ in range(30):
        work, _, new_crit, _ = varimax_rotate(work, kaiser_normalize=False, max_iter=1)
        assert new_crit >= crit - 1e-12
        crit = new_crit


def test_sign_flip_of_variable_preserves_criterion():
    rng = np.random.default_rng(43)
    lam = rng.normal(size=(9, 2))
    flipped = lam.copy()
    flipped[3] *= -1.0
    _, _, c1, _ = varimax_rotate(lam)
    _, _, c2, _ = varimax_rotate(flipped)
    assert c1 == pytest.approx(c2, abs=1e-9)


# --------------------------------------------------------- variance explained


def test_full_rank_explains_everything():
    rng = np.random.default_rng(47)
    m = rng.normal(size=(5, 5))
    cov = m @ m.T
    d = np.sqrt(np.diag(cov))
    r_mat = cov / np.outer(d, d)
    loadings, _ = pca_extract(corr_from(r_mat), k=5)
    assert variance_explained(loadings, 5) == pytest.approx(1.0, abs=1e-8)


def test_single_loading():
    assert variance_explained(np.array([[0.5]]), 1) == pytest.approx(0.25)


def test_invariant_under_rotation():
    rng = np.random.default_rng(53)
    lam = rng.normal(size=(10, 2)) * 0.5
    rotated, _, _, _ = varimax_rotate(lam)
    assert variance_explained(lam, 10) == pytest.approx(variance_explained(rotated, 10), abs=1e-10)


# --------------------------------------------------------------------- scores


def test_scores_recover_generating_factor():
    data, lam = synthesize_known_factors(p=8, k=1, n=300, noise=0.2, seed=5)
    r = correlation_matrix(data)
    loadings, _ = pca_extract(r, k=1)
    scores = factor_scores(data, r, loadings)
    rng = np.random.default_rng(5)
    factors = rng.standard_normal((300, 1))  # same stream the synthesizer drew first
    q, _ = np.linalg.qr(factors - factors.mean(axis=0))
    truth = (q * math.sqrt(300))[:, 0]
    assert abs(np.corrcoef(scores[:, 0], truth)[0, 1]) > 0.95


def test_missing_rows_get_missing_scores():
    grid = np.random.default_rng(59).normal(size=(30, 4))
    grid[2, 1] = np.nan
    data = vm(grid)
    r = correlation_matrix(data, missing="pairwise")
    loadings, _ = pca_extract(r, k=2)
    scores = factor_scores(data, r, loadings)
    assert np.isnan(scores[2]).all()
    complete = ~np.isnan(grid).any(axis=1)
    assert np.allclose(scores[complete].mean(axis=0), 0.0, atol=1e-10)


def test_location_shift_is_removed():
    rng = np.random.default_rng(61)
    grid = rng.normal(size=(40, 3))
    data = vm(grid)
    r = correlation_matrix(data)
    loadings, _ = pca_extract(r, k=2)
    base = factor_scores(data, r, loadings)
    shifted_grid = grid.copy()
    shifted_grid[:, 1] += 10.0
    shifted = factor_scores(vm(shifted_grid), r, loadings)
    assert np.allclose(base, shifted, atol=1e-10)


# ----------------------------------------------------------------- synthesizer


def test_synthesizer_deterministic():
    a, _ = synthesize_known_factors(p=6, k=2, n=50, noise=0.3, seed=9)
    b, _ = synthesize_known_factors(p=6, k=2, n=50, noise=0.3, seed=9)
    assert np.array_equal(a.values, b.values)


def test_noiseless_one_factor_dominant_eigenvalue():
    data, _ = synthesize_known_factors(p=5, k=1, n=100, noise=0.0, seed=3)
    r = correlation_matrix(data)
    _, eig = pca_extract(r, k=1)
    assert eig[0] == pytest.approx(5.0, abs=1e-6)


def test_synthesizer_rejects_bad_dims():
    with pytest.raises(DomainError):
        synthesize_known_factors(p=3, k=4, n=50)
    with pytest.raises(DomainError):
        synthesize_known_factors(p=5, k=2, n=5)


def test_recovery_experiment():
    data, lam = synthesize_known_factors(p=15, k=2, n=500, noise=0.3, seed=7)
    model = fit_factor_model(data, k=2)
    got = model.rotated_loadings
    # match columns by best absolute congruence, then align signs
    for j in range(2):
        cong = [abs(congruence(lam[:, j], got[:, c])) for c in range(2)]
        assert max(cong) >= 0.95


def test_fit_factor_model_fields():
    data, _ = synthesize_known_factors(p=6, k=2, n=120, noise=0.4, seed=11)
    model = fit_factor_model(data, k=2)
    assert model.converged
    assert model.eigenvalues.sum() == pytest.approx(6.0, abs=1e-8)
    assert np.allclose(model.rotation.T @ model.rotation, np.eye(2), atol=1e-10)
    assert np.allclose(
        (model.loadings**2).sum(axis=1), (model.rotated_loadings**2).sum(axis=1), atol=1e-10
    )
    assert 0.0 < model.kmo <= 1.0
    assert 0.0 < model.variance_explained <= 1.0
    assert model.bartlett.df == 15
    assert model.scores.shape == (120, 2)


def test_fit_loadings_equal_direct_extraction_for_every_k():
    # extracting k columns gives the first k of the full extraction, bit for bit
    data = load_variable_matrix(FA_PANEL)
    for missing in ("pairwise", "listwise"):
        r = correlation_matrix(data, missing=missing)
        full = pca_extract(r, r.p)[0]
        for k in range(1, r.p + 1):
            loadings = fit_factor_model(data, k=k, missing=missing).loadings
            assert loadings.tobytes() == np.ascontiguousarray(full[:, :k]).tobytes()


def _permuted_fit_differences(data, k, missing, rows, cols):
    """Fit ``data`` and its row- and column-permuted copy; the largest
    difference once the permuted outputs are moved back (0.0 when both
    fits raise the same error)."""
    rows, cols = list(rows), list(cols)
    moved = IndicatorPanel(
        epoch=0,
        countries=[data.countries[i] for i in rows],
        indicators=[data.indicators[j] for j in cols],
        values=data.values[np.ix_(rows, cols)],
    )
    try:
        want = fit_factor_model(data, k=k, missing=missing)
    except (DomainError, SingularMatrixError, UndefinedStatisticError) as exc:
        with pytest.raises(type(exc)):
            fit_factor_model(moved, k=k, missing=missing)
        return 0.0
    got = fit_factor_model(moved, k=k, missing=missing)
    assert got.variables == moved.indicators and got.score_rows == moved.countries
    assert got.bartlett.df == want.bartlett.df
    assert np.array_equal(np.isnan(got.scores), np.isnan(want.scores[rows]))
    complete = ~np.isnan(got.scores)
    return max(
        abs(got.bartlett.chi_square - want.bartlett.chi_square),
        abs(got.bartlett.p_value - want.bartlett.p_value),
        np.abs(got.eigenvalues - want.eigenvalues).max(),
        np.abs(got.rotated_loadings - want.rotated_loadings[cols]).max(),
        np.abs(got.scores[complete] - want.scores[rows][complete]).max(),
    )


@st.composite
def permuted_factor_data(draw):
    """A ``synthesize_known_factors`` matrix, perhaps with missing cells,
    and a row and a column permutation of it. With p = 2 both eigenvectors
    of R have entries of equal magnitude, so the sign rule falls to the
    first row and a column swap may flip and swap factors: p >= 3."""
    p = draw(st.integers(3, 10))
    k = draw(st.integers(1, min(p, 3)))
    n = draw(st.integers(p + 10, 80))
    seed = draw(st.integers(0, 2**16))
    data, _ = synthesize_known_factors(p=p, k=k, n=n, seed=seed)
    holes = draw(st.sampled_from([0.0, 0.01, 0.05]))
    grid = np.array(data.values)
    grid[np.random.default_rng(seed).random(grid.shape) < holes] = np.nan
    data = IndicatorPanel(epoch=0, countries=data.countries, indicators=data.indicators, values=grid)
    return data, k, draw(st.permutations(range(n))), draw(st.permutations(range(p)))


@settings(max_examples=150)
@given(permuted_factor_data(), st.sampled_from(["pairwise", "listwise"]))
def test_fit_permutes_with_rows_and_columns(case, missing):
    # permuting rows permutes the score rows, permuting columns the rows of
    # the rotated loadings; the spectrum and Bartlett's test stay put
    data, k, rows, cols = case
    assert _permuted_fit_differences(data, k, missing, rows, cols) <= 1e-9


@pytest.mark.parametrize("missing", ["pairwise", "listwise"])
@pytest.mark.parametrize("k", [2, 3])
def test_fit_permutes_with_rows_and_columns_on_demo_panel(k, missing):
    data = load_variable_matrix(FA_PANEL)
    rng = np.random.default_rng(k)
    rows, cols = rng.permutation(len(data.countries)), rng.permutation(len(data.indicators))
    assert _permuted_fit_differences(data, k, missing, rows, cols) <= 1e-9


def test_two_variable_factors_follow_column_position():
    # both eigenvectors of a 2x2 R have entries of equal magnitude, so the
    # sign rule falls to the first row: the first rotated factor is the
    # one the first column loads on, and a column swap swaps the factors
    data, _ = synthesize_known_factors(p=2, k=2, n=12, seed=0)
    swapped = IndicatorPanel(0, data.countries, data.indicators[::-1], data.values[:, ::-1])
    want, got = fit_factor_model(data, k=2), fit_factor_model(swapped, k=2)
    assert np.allclose(want.rotated_loadings, [[0.995, 0.098], [0.098, 0.995]], atol=5e-4)
    assert np.allclose(got.rotated_loadings[::-1], want.rotated_loadings[:, ::-1], rtol=0, atol=1e-12)
    assert np.allclose(got.scores, want.scores[:, ::-1], rtol=0, atol=1e-12)


@pytest.mark.parametrize("k", (0, 7))
def test_fit_rejects_k_out_of_range(monkeypatch, k):
    # after Bartlett's test and KMO, so that a singular or undefined R is
    # reported first, as `factors --factors-k 0` reports it
    calls = []
    for name in ("bartlett_test", "kmo_statistic"):
        real = getattr(factor, name)
        monkeypatch.setattr(factor, name, lambda *args, real=real: calls.append(real.__name__) or real(*args))
    data, _ = synthesize_known_factors(p=6, k=2, n=120, seed=11)
    with pytest.raises(DomainError) as exc:
        fit_factor_model(data, k=k)
    assert str(exc.value) == f"k must be in [1, 6], got {k}"
    assert calls == ["bartlett_test", "kmo_statistic"]


def write_csv(tmp_path, text):
    path = tmp_path / "vars.csv"
    path.write_text(text)
    return path


def test_variable_matrix_row_with_extra_cell_is_schema_error(tmp_path):
    path = write_csv(tmp_path, "country,a,b\nW,4,5\nX,1,2,3\n")
    with pytest.raises(SchemaError, match="row 2"):
        load_variable_matrix(path)


def test_variable_matrix_duplicate_row_rejected(tmp_path):
    path = write_csv(tmp_path, "country,a,b\nX,1,2\nX,3,4\n")
    with pytest.raises(DuplicateCountryError, match="X"):
        load_variable_matrix(path)


def test_variable_matrix_duplicate_header_rejected(tmp_path):
    path = write_csv(tmp_path, "country,a,a\nX,1,2\n")
    with pytest.raises(SchemaError, match="duplicate"):
        load_variable_matrix(path)


def test_variable_matrix_infinite_cell_names_row_and_column(tmp_path):
    path = write_csv(tmp_path, "country,a,b\nX,1,2\nY,-inf,4\n")
    with pytest.raises(PanelParseError) as exc:
        load_variable_matrix(path)
    assert (exc.value.row, exc.value.column) == (2, "a")


def test_variable_matrix_drops_a_byte_order_mark_before_the_header(tmp_path):
    path = tmp_path / "vars.csv"
    path.write_bytes(b"\xef\xbb\xbfcountry,a,b\nX,1,2\nY,3,\n")
    data = load_variable_matrix(path)
    assert (data.countries, data.indicators) == (("X", "Y"), ("a", "b"))
    assert np.array_equal(data.values, [[1.0, 2.0], [3.0, np.nan]], equal_nan=True)


@pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs Linux and at least two usable CPUs",
)
def test_factors_output_does_not_depend_on_the_cpu_count(tmp_path):
    data, _ = synthesize_known_factors(p=60, k=5, n=400, seed=7)
    path = tmp_path / "wide.csv"
    rows = (",".join([code, *map(repr, row)]) for code, row in zip(data.countries, data.values.tolist()))
    path.write_text("\n".join([",".join(["country", *data.indicators]), *rows]) + "\n")
    env = dict({k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}, PYTHONPATH=SRC)
    argv = [sys.executable, "-m", "foi.cli", "factors", "--panel", str(path), "--factors-k", "5", "--out", "-"]
    cpu = min(os.sched_getaffinity(0))

    def factors(**kwargs):
        proc = subprocess.run(argv, env=env, capture_output=True, **kwargs)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    assert factors(preexec_fn=lambda: os.sched_setaffinity(0, {cpu})) == factors()
