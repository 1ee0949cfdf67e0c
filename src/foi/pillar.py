"""Pillar indices (F, O, I) and country rankings.

A pillar index is the arithmetic mean of a country's rescaled component
values in that pillar. Indicators sharing a ``component`` key are first
averaged into one component value, so a component backed by two source
series still counts once in the pillar mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AggregationError, DomainError
from .manifest import PILLARS, IndicatorManifest
from .panel import IndicatorPanel

MISSING_POLICIES = ("available_mean", "strict")


@dataclass(frozen=True)
class FoiScores:
    """Per-country pillar indices on the 1-7 scale, with optional ranks.

    ``index[pillar][i]`` belongs to ``countries[i]``; a ``nan`` index
    means the pillar could not be computed under the strict policy.
    Ranks are 1-based, rank 1 = highest index.
    """

    epoch: int
    countries: tuple[str, ...]
    index: dict[str, np.ndarray]
    rank: dict[str, np.ndarray] | None = None

    def __post_init__(self):
        object.__setattr__(self, "countries", tuple(self.countries))
        for pillar in PILLARS:
            if pillar not in self.index:
                raise DomainError(f"missing pillar {pillar!r} in index map")


def compute_pillar_scores(
    rescaled: IndicatorPanel,
    manifest: IndicatorManifest,
    missing_policy: str = "available_mean",
) -> FoiScores:
    """Aggregate a rescaled panel into F/O/I indices.

    Under ``available_mean`` each index is the mean of the country's
    observed components in the pillar; a country with no observed
    component in some pillar is an error. Under ``strict`` any missing
    component makes the pillar index missing (``nan``).
    """
    if missing_policy not in MISSING_POLICIES:
        raise DomainError(f"missing_policy must be one of {MISSING_POLICIES}, got {missing_policy!r}")
    n = len(rescaled.countries)
    index: dict[str, np.ndarray] = {}
    col_of = {ind: j for j, ind in enumerate(rescaled.indicators)}
    for pillar in PILLARS:
        components = manifest.pillar_components(pillar)
        if not components:
            raise AggregationError(f"manifest has no components for pillar {pillar!r}")
        comp_vals = np.full((n, len(components)), np.nan)
        for c, (_, members) in enumerate(components):
            cols = [col_of[m] for m in members if m in col_of]
            if not cols:
                continue
            block = rescaled.values[:, cols]
            cnt = (~np.isnan(block)).sum(axis=1)
            total = np.nansum(block, axis=1)
            comp_vals[:, c] = np.where(cnt > 0, total / np.maximum(cnt, 1), np.nan)
        observed = ~np.isnan(comp_vals)
        count = observed.sum(axis=1)
        if missing_policy == "available_mean" and not count.all():
            i = np.flatnonzero(count == 0)[0]
            raise AggregationError(
                f"country {rescaled.countries[i]!r} has no observed components in pillar {pillar!r}"
            )
        # observed components first, in manifest order, then one row-wise
        # mean per observed count: the same sums, in the same order, as a
        # per-country mean over the observed components
        packed = np.take_along_axis(comp_vals, np.argsort(~observed, axis=1, kind="stable"), axis=1)
        wanted = count == len(components) if missing_policy == "strict" else count > 0
        out = np.full(n, np.nan)
        for m in np.unique(count[wanted]):
            rows = np.flatnonzero(wanted & (count == m))
            out[rows] = packed[rows, :m].mean(axis=1)
        index[pillar] = out
    return FoiScores(epoch=rescaled.epoch, countries=rescaled.countries, index=index)


def rank_countries(scores: FoiScores) -> FoiScores:
    """Fill ranks: rank 1 = highest index, ties broken by country code."""
    n = len(scores.countries)
    # each code's place in Python's string order; numpy's fixed-width
    # strings would drop a trailing NUL and tie "A" with "A\0"
    by_code = np.empty(n, dtype=int)
    by_code[sorted(range(n), key=scores.countries.__getitem__)] = np.arange(n)
    ranks: dict[str, np.ndarray] = {}
    for pillar in PILLARS:
        key = -np.asarray(scores.index[pillar], dtype=float)
        key[np.isnan(key)] = np.inf  # a missing index ranks last
        r = np.empty(n, dtype=int)
        r[np.lexsort((by_code, key))] = np.arange(1, n + 1)
        ranks[pillar] = r
    return FoiScores(epoch=scores.epoch, countries=scores.countries, index=scores.index, rank=ranks)
