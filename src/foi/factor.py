"""Exploratory factor analysis built from first principles.

The stack: Pearson correlations with pairwise or listwise deletion,
sampling-adequacy diagnostics (KMO, sphericity chi-square), principal
component extraction, varimax rotation with optional Kaiser
normalization, explained variance, and regression-method factor scores.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DomainError, SingularMatrixError, UndefinedStatisticError
from .panel import _frozen_grid, _read_grid

VARIMAX_TOL = 1e-12
VARIMAX_MAX_SWEEPS = 1000
# correlation_matrix recomputes a pair from its own rows when a restricted
# sum of squares is under 1/_CANCELLATION of the raw one (digits lost to
# cancellation), or the raw one is so small that subnormal terms lost
# digits; every other r is then within about 1e-13 of the two-pass value
_CANCELLATION = 64.0
_SMALLEST_SUMSQ = np.finfo(float).tiny * 2.0**60
# Chernoff: P(chi2_df >= x) <= exp(-(df/2)(t - 1 - ln t)) for t = x/df > 1.
# A bound under e^-800 is far below half the smallest subnormal (about
# e^-745.1), so the tail rounds to 0.0 and scipy need not be imported
_TAIL_UNDERFLOW_LOG = -800.0


@dataclass(frozen=True)
class VariableMatrix:
    """Observations (rows) by variables (columns), ``nan`` = missing."""

    rows: tuple[str, ...]
    variables: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        object.__setattr__(self, "variables", tuple(self.variables))
        grid = _frozen_grid(self.values)
        object.__setattr__(self, "values", grid)
        if grid.shape != (len(self.rows), len(self.variables)):
            raise DomainError("grid shape does not match row/variable labels")

    @property
    def n(self) -> int:
        """Effective observation count: rows with no missing cell."""
        return int((~np.isnan(self.values)).all(axis=1).sum())


@dataclass(frozen=True)
class CorrelationMatrix:
    """Symmetric Pearson correlation matrix with per-pair counts."""

    variables: tuple[str, ...]
    values: np.ndarray
    pair_counts: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        for name in ("values", "pair_counts"):
            arr = np.array(getattr(self, name), dtype=float if name == "values" else int)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def p(self) -> int:
        return len(self.variables)

    @cached_property
    def inverse(self) -> np.ndarray:
        """R^-1, computed once per matrix and shared by the anti-image
        correlations and the factor-score weights."""
        try:
            inv = np.linalg.inv(self.values)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError("correlation matrix is singular") from exc
        inv.setflags(write=False)
        return inv


class BartlettResult(NamedTuple):
    chi_square: float
    df: int
    p_value: float


class FactorModel(NamedTuple):
    """Complete output of one factor-analysis run."""

    variables: tuple[str, ...]
    loadings: np.ndarray          # unrotated, p x k
    rotated_loadings: np.ndarray  # p x k
    rotation: np.ndarray          # k x k orthogonal
    eigenvalues: np.ndarray       # length p
    kmo: float
    bartlett: BartlettResult
    variance_explained: float
    scores: np.ndarray            # rows x k, nan rows for incomplete countries
    score_rows: tuple[str, ...]
    converged: bool


def correlation_matrix(data: VariableMatrix, missing: str = "pairwise") -> CorrelationMatrix:
    """Pearson correlations under pairwise or listwise deletion.

    Each r is computed on the rows where both variables are observed;
    listwise deletion first drops every row with a missing cell. All
    pairs come at once from masked matrix products: with M the 0/1
    observed mask and X the columns centred on their observed means (0
    where missing), M^T M gives the pair counts, X^T M and (X*X)^T M the
    pair-restricted sums and sums of squares, and X^T X the cross
    products. A pair whose restricted sum of squares is not clearly
    above its cancellation error is checked and computed again from its
    own rows. Columns are first scaled by powers of two, which is exact.

    Raises
    ------
    DomainError
        If a variable has zero variance, or some pair has fewer than 3
        complete observations or zero variance on its shared rows.
    """
    if missing not in ("pairwise", "listwise"):
        raise DomainError(f"missing must be 'pairwise' or 'listwise', got {missing!r}")
    grid = data.values
    p = len(data.variables)
    observed = ~np.isnan(grid)
    if missing == "listwise":
        observed &= observed.all(axis=1)[:, None]
    mask = observed.astype(float)
    counts = np.rint(mask.T @ mask).astype(int)
    n_obs = np.diag(counts)
    x = np.where(observed, grid, 0.0)
    # scaled by the kept cells only: a row that listwise deletion drops
    # must not set the scale, or the kept cells may square to 0
    e = _magnitude_exponents(x)
    np.ldexp(x, -e, out=x)
    mean = np.divide(x.sum(axis=0), n_obs, out=np.zeros(p), where=n_obs > 0)
    np.subtract(x, mean, out=x, where=observed)
    cross = x.T @ x
    sums = x.T @ mask  # sums[a, b]: sum of column a on the rows where a and b are observed
    np.square(x, out=x)
    sumsq = x.T @ mask
    del x, mask
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ss = sumsq - sums * sums / counts  # sum of squares about the pair-restricted mean
        r = (cross - sums * sums.T / counts) / (np.sqrt(ss) * np.sqrt(ss.T))
        unsure = ~((ss * _CANCELLATION > sumsq) & (sumsq > _SMALLEST_SUMSQ))
    for j in np.flatnonzero(np.diag(unsure) & (n_obs > 0)):
        if _zero_variance(np.ldexp(grid[observed[:, j], j], -e[j])):
            raise DomainError(f"variable {data.variables[j]!r} has zero variance")
    suspect = (counts < 3) | unsure | unsure.T | ~np.isfinite(r)
    for a, b in np.argwhere(np.triu(suspect, 1)):
        if counts[a, b] < 3:
            raise DomainError(
                f"fewer than 3 complete observations for pair "
                f"({data.variables[a]!r}, {data.variables[b]!r})"
            )
        ok = observed[:, a] & observed[:, b]
        x, y = np.ldexp(grid[ok, a], -e[a]), np.ldexp(grid[ok, b], -e[b])
        if _zero_variance(x) or _zero_variance(y):
            raise DomainError(
                f"zero variance in pair ({data.variables[a]!r}, {data.variables[b]!r})"
            )
        r[a, b] = ((x - x.mean()) * (y - y.mean())).mean() / (x.std() * y.std())
    r = np.triu(r, 1)
    r += r.T
    np.fill_diagonal(r, 1.0)
    return CorrelationMatrix(variables=data.variables, values=r, pair_counts=counts)


def _magnitude_exponents(grid: np.ndarray) -> np.ndarray:
    """Per column, the exponent e of ``np.frexp`` of its largest magnitude.
    ``np.ldexp(column, -e)`` is exact, so it changes no r or z-score, but
    keeps columns near 1e±160 from overflowing or underflowing when squared."""
    top = np.fmax(np.fmax.reduce(grid, axis=0, initial=0.0), -np.fmin.reduce(grid, axis=0, initial=0.0))
    return np.frexp(top)[1]


def _zero_variance(x: np.ndarray) -> bool:
    """All values equal, or deviations too small to square. ``std()`` of
    equal values is not always 0: for [0.4, 0.4, 0.4] it is 5.6e-17,
    because the mean rounds off the values."""
    return x.min() == x.max() or x.std() == 0.0


def bartlett_test(r: CorrelationMatrix, n: int) -> BartlettResult:
    """Sphericity test that the correlation matrix is the identity.

    chi2 = -(n - 1 - (2p + 5)/6) * ln det(R), with p(p-1)/2 degrees of
    freedom.
    """
    p = r.p
    if p < 2:
        raise DomainError(f"Bartlett's test needs at least two variables, got {p}")
    if n <= p:
        raise DomainError(f"need n > p, got n={n}, p={p}")
    # a Cholesky factor exists only for a positive definite R; the sign of
    # det(R) alone misses an even number of negative eigenvalues
    try:
        chol = np.linalg.cholesky(r.values)
    except np.linalg.LinAlgError:
        lowest = float(np.linalg.eigvalsh(r.values)[0])
        raise SingularMatrixError(
            f"correlation matrix is not positive definite (smallest eigenvalue {lowest:.6g})"
        ) from None
    logdet = 2.0 * np.log(np.diag(chol)).sum()
    df = p * (p - 1) // 2
    stat = -(n - 1 - (2 * p + 5) / 6.0) * logdet
    stat = max(stat, 0.0)
    return BartlettResult(chi_square=float(stat), df=df, p_value=_chi2_upper_tail(df, stat))


def _chi2_upper_tail(df: int, stat: float) -> float:
    """P(chi-square with ``df`` degrees of freedom >= ``stat``), as ``chdtrc``."""
    t = stat / df
    if t > 1.0 and -0.5 * df * (t - 1.0 - math.log(t)) < _TAIL_UNDERFLOW_LOG:
        return 0.0
    # imported here so that only `factors` loads scipy; scipy.stats.chi2.sf
    # gives the same bits but takes about a second longer to import
    from scipy.special import chdtrc

    return float(chdtrc(df, stat))


def anti_image_correlations(r: CorrelationMatrix) -> np.ndarray:
    """Partial correlations (negated scaled inverse), unit diagonal."""
    if r.p == 2:
        # with no third variable to partial out, the partial correlation
        # is the raw one; bypass the inverse to keep the identity exact
        return np.array(r.values)
    inv = r.inverse
    d = np.sqrt(np.diag(inv))
    q = -inv / np.outer(d, d)
    np.fill_diagonal(q, 1.0)
    return q


def kmo_statistic(r: CorrelationMatrix) -> float:
    """Overall sampling-adequacy ratio of squared correlations to squared
    correlations plus squared partial correlations.

    Raises
    ------
    UndefinedStatisticError
        If all off-diagonal correlations are zero (0/0).
    """
    q = anti_image_correlations(r)
    off = ~np.eye(r.p, dtype=bool)
    r2 = r.values[off] ** 2
    q2 = q[off] ** 2
    denom = r2.sum() + q2.sum()
    if denom == 0.0:
        raise UndefinedStatisticError("all off-diagonal correlations are zero")
    return float(r2.sum() / denom)


def _orient_signs(loadings: np.ndarray) -> np.ndarray:
    """Flip columns so each one's maximum-magnitude entry is positive.

    An exact tie in magnitude goes to the first of the tied rows, so the
    signs, and through them the order of the rotated factors, then follow
    column position. With two variables both eigenvectors of R tie: the
    first rotated factor is always the one the first column loads on, and
    swapping the two columns swaps the two rotated factors."""
    flips = np.ones(loadings.shape[1])
    for j in range(loadings.shape[1]):
        col = loadings[:, j]
        if col[np.argmax(np.abs(col))] < 0:
            flips[j] = -1.0
    return flips


def pca_extract(r: CorrelationMatrix, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Principal-component loadings and the full eigenvalue spectrum.

    Loading column j is eigenvector j scaled by sqrt(eigenvalue j),
    eigenvalues sorted descending. Column signs are oriented so the
    maximum-magnitude loading in each column is positive.
    """
    p = r.p
    if not (1 <= k <= p):
        raise DomainError(f"k must be in [1, {p}], got {k}")
    eigvals, eigvecs = np.linalg.eigh(r.values)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    loadings = eigvecs[:, :k] * np.sqrt(np.clip(eigvals[:k], 0.0, None))
    loadings = loadings * _orient_signs(loadings)
    return loadings, eigvals


def kaiser_count(eigenvalues) -> int:
    """Number of eigenvalues strictly greater than 1."""
    return int((np.asarray(eigenvalues, dtype=float) > 1.0).sum())


def varimax_criterion(loadings: np.ndarray) -> float:
    """Sum over factors of the variance of squared loadings."""
    sq = np.asarray(loadings, dtype=float) ** 2
    p = sq.shape[0]
    return float((sq**2).sum() / p - ((sq.sum(axis=0) / p) ** 2).sum())


def varimax_rotate(
    loadings: np.ndarray,
    kaiser_normalize: bool = True,
    max_iter: int = VARIMAX_MAX_SWEEPS,
    variables: tuple[str, ...] | None = None,
) -> tuple[np.ndarray, np.ndarray, float, bool]:
    """Rotate loadings to maximize the varimax criterion.

    Sweeps planar rotations over every factor pair until the relative
    criterion gain per sweep drops below ``VARIMAX_TOL``. With Kaiser
    normalization, rows are scaled to unit communality before rotation
    and rescaled after. A single column has no pair to rotate: the first
    sweep gains nothing, and only the sign rule acts on it.

    Returns ``(rotated, rotation, criterion, converged)``; the rotation
    matrix R is orthogonal and satisfies ``rotated = loadings @ R`` (up
    to the row normalization, which cancels).
    """
    lam = np.array(loadings, dtype=float)
    if lam.ndim != 2 or lam.shape[1] < 1:
        raise DomainError("loadings must be a p x k matrix with k >= 1")
    p, k = lam.shape
    comm = np.sqrt((lam**2).sum(axis=1))
    if kaiser_normalize:
        zero = np.flatnonzero(comm == 0.0)
        if zero.size:
            name = variables[zero[0]] if variables else f"row {zero[0]}"
            raise DomainError(f"zero communality for {name}; cannot Kaiser-normalize")
        work = lam / comm[:, None]
    else:
        work = lam.copy()

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
                # the planar rotation touches columns a and b only
                for m in (work, rotation):
                    x, y = m[:, a], m[:, b]
                    m[:, a], m[:, b] = c * x + s * y, c * y - s * x
        new_crit = varimax_criterion(work)
        gain = new_crit - crit
        rel = gain / crit if crit > 0 else gain
        crit = new_crit
        if rel < VARIMAX_TOL:
            converged = True
            break

    rotated = (work * comm[:, None]) if kaiser_normalize else work
    flips = _orient_signs(rotated)
    rotated = rotated * flips
    rotation = rotation * flips
    return rotated, rotation, varimax_criterion(work * flips), converged


def variance_explained(rotated_loadings: np.ndarray, p: int) -> float:
    """Fraction of total variance carried by the retained factors."""
    lam = np.asarray(rotated_loadings, dtype=float)
    return float((lam**2).sum() / p)


def factor_scores(
    data: VariableMatrix,
    r: CorrelationMatrix,
    rotated_loadings: np.ndarray,
) -> np.ndarray:
    """Regression-method factor scores: Z R^-1 L.

    Standardization statistics come from the complete rows; any row with
    a missing cell among the analysis variables gets a ``nan`` score
    vector. Score columns are centered on the complete rows.
    """
    grid = data.values
    complete = (~np.isnan(grid)).all(axis=1)
    if not complete.any():
        raise DomainError("no complete rows to score")
    base = grid[complete]
    np.ldexp(base, -_magnitude_exponents(base), out=base)  # an exact rescale, as in correlation_matrix
    mu = base.mean(axis=0)
    sd = base.std(axis=0)
    if (sd == 0.0).any():
        j = int(np.flatnonzero(sd == 0.0)[0])
        raise DomainError(f"variable {data.variables[j]!r} is constant on complete rows")
    weights = r.inverse @ np.asarray(rotated_loadings, dtype=float)
    scores = np.full((grid.shape[0], weights.shape[1]), np.nan)
    scores[complete] = ((base - mu) / sd) @ weights
    return scores


def fit_factor_model(
    data: VariableMatrix,
    k: int = 2,
    missing: str = "pairwise",
    kaiser_normalize: bool = True,
    auto_k: bool = False,
) -> FactorModel:
    """Run the full extraction/rotation/diagnostics/scoring pipeline.

    With ``auto_k`` the retained-factor count comes from the
    eigenvalue-above-1 rule instead of ``k``.
    """
    r = correlation_matrix(data, missing=missing)
    n = data.n if missing == "listwise" else int(r.pair_counts.min())
    try:
        bart = bartlett_test(r, n)
    except SingularMatrixError as exc:
        if missing != "pairwise":
            raise
        # pairwise deletion estimates each r from its own rows, so R need
        # not be positive semi-definite
        raise SingularMatrixError(
            f"{exc}; pairwise deletion can cause this, try --missing listwise"
        ) from None
    kmo = kmo_statistic(r)
    loadings, eigvals = pca_extract(r, r.p if auto_k else k)
    if auto_k:
        loadings = loadings[:, : max(kaiser_count(eigvals), 1)]
    rotated, rotation, _, converged = varimax_rotate(
        loadings, kaiser_normalize=kaiser_normalize, variables=data.variables
    )
    scores = factor_scores(data, r, rotated)
    return FactorModel(
        variables=data.variables,
        loadings=loadings,
        rotated_loadings=rotated,
        rotation=rotation,
        eigenvalues=eigvals,
        kmo=kmo,
        bartlett=bart,
        variance_explained=variance_explained(rotated, r.p),
        scores=scores,
        score_rows=data.rows,
        converged=converged,
    )


def synthesize_known_factors(
    p: int,
    k: int,
    n: int,
    noise: float = 0.3,
    seed: int = 0,
) -> tuple[VariableMatrix, np.ndarray]:
    """Deterministic synthetic data with a known factor structure.

    Draws n x k standard-normal factors and emits
    ``factors @ loadings.T + noise * eps``, where each variable loads 0.8
    on one factor, assigned round-robin. Returns the data and the
    generating loadings.
    """
    if not (p >= k >= 1) or n <= p:
        raise DomainError(f"need p >= k >= 1 and n > p, got p={p}, k={k}, n={n}")
    lam = np.zeros((p, k))
    for j in range(p):
        lam[j, j % k] = 0.8
    rng = np.random.default_rng(seed)
    factors = rng.standard_normal((n, k))
    # decorrelate so sample factors are orthogonal-ish even at modest n
    qmat, _ = np.linalg.qr(factors - factors.mean(axis=0))
    factors = qmat * math.sqrt(n)
    grid = factors @ lam.T + noise * rng.standard_normal((n, p))
    rows = tuple(f"obs{i:04d}" for i in range(n))
    variables = tuple(f"v{j:02d}" for j in range(p))
    return VariableMatrix(rows=rows, variables=variables, values=grid), lam


def load_variable_matrix(path) -> VariableMatrix:
    """Read a ``country,<variable ids...>`` CSV with the same checks and
    missing-value rule as ``panel.load_panel``; empty cells are missing."""
    variables, rows, values = _read_grid(path)
    return VariableMatrix(rows=tuple(rows), variables=tuple(variables), values=values)


def congruence(a: np.ndarray, b: np.ndarray) -> float:
    """Tucker congruence between two loading columns."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float((a * b).sum() / math.sqrt((a**2).sum() * (b**2).sum()))
