"""Pillar indices (F, O, I) and country rankings.

A pillar index is the arithmetic mean of a country's rescaled component
values in that pillar. Indicators sharing a ``component`` key are first
averaged into one component value, so a component backed by two source
series still counts once in the pillar mean.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AggregationError, DomainError, SchemaError
from .manifest import PILLARS, IndicatorManifest
from .panel import IndicatorPanel, _in_blocks

MISSING_POLICIES = ("available_mean", "strict")


@dataclass(frozen=True)
class FoiScores:
    """Per-country pillar indices on the 1-7 scale.

    ``index[pillar][i]`` belongs to ``countries[i]``; a ``nan`` index
    means the pillar could not be computed under the strict policy.
    """

    epoch: int
    countries: tuple[str, ...]
    index: dict[str, np.ndarray]

    def __post_init__(self):
        object.__setattr__(self, "countries", tuple(self.countries))
        for pillar in PILLARS:
            if pillar not in self.index:
                raise DomainError(f"missing pillar {pillar!r} in index map")

    @cached_property
    def code_order(self) -> np.ndarray:
        """Positions of ``countries`` sorted by code, in Python's string
        order: numpy's fixed-width strings would drop a trailing NUL and
        tie "A" with "A\\0". Computed once, on first use."""
        return np.array(sorted(range(len(self.countries)), key=self.countries.__getitem__), dtype=np.intp)


def compute_pillar_scores(
    panel: IndicatorPanel,
    manifest: IndicatorManifest,
    missing_policy: str = "available_mean",
    rescale=None,
) -> FoiScores:
    """Aggregate a rescaled panel into F/O/I indices; or a raw one, with
    its columns' ``rescale.RescaleRule`` as ``rescale``, applied to each
    block of rows on its way in.

    Under ``available_mean`` each index is the mean of the country's
    observed components in the pillar; a country with no observed
    component in some pillar is an error. Under ``strict`` any missing
    component makes the pillar index missing (``nan``). A manifest
    indicator with no panel column is a ``SchemaError``.

    The rows are aggregated in blocks of at least ``_SPLIT_MIN_CELLS``
    cells, split over the CPUs by ``_in_blocks``.
    """
    if missing_policy not in MISSING_POLICIES:
        raise DomainError(f"missing_policy must be one of {MISSING_POLICIES}, got {missing_policy!r}")
    p = panel.values.shape[1]
    if rescale is not None:  # checked here, not per block: a panel with no rows has no block
        rescale.check_width(p)
    col_of = {ind: j for j, ind in enumerate(panel.indicators)}
    if absent := [ind for ind in manifest.ids if ind not in col_of]:
        raise SchemaError(f"no panel column for manifest indicator {absent[0]!r}")
    # per pillar, the panel columns of each component's members as an
    # (m, components) array, padded with column p, which is all nan
    members = []
    for pillar in PILLARS:
        components = manifest.pillar_components(pillar)
        if not components:
            raise AggregationError(f"manifest has no components for pillar {pillar!r}")
        cols = [[col_of[m] for m in ids] for _, ids in components]
        width = max(map(len, cols))
        members.append(np.array([c + [p] * (width - len(c)) for c in cols], dtype=np.intp).T)
    # per country: its F, O and I counts of observed components, then indices
    out = np.concatenate(list(_in_blocks(
        panel.values, _SPLIT_MIN_CELLS,
        lambda rows: _aggregate(panel.values[rows], members=members, rule=rescale, missing_policy=missing_policy),
        np.ndarray.tobytes, lambda data: np.frombuffer(data).reshape(-1, 2 * len(PILLARS)))))
    for k, pillar in enumerate(PILLARS):
        if missing_policy == "available_mean" and not out[:, k].all():
            i = np.flatnonzero(out[:, k] == 0)[0]
            raise AggregationError(
                f"country {panel.countries[i]!r} has no observed components in pillar {pillar!r}"
            )
    index = {pillar: out[:, len(PILLARS) + k].copy() for k, pillar in enumerate(PILLARS)}
    return FoiScores(epoch=panel.epoch, countries=panel.countries, index=index)


_BLOCK_CELLS = 1 << 18  # cells of the panel aggregated at a time (2 MB)

# A panel is cut into row ranges only when each would hold at least this
# many cells: on a 2-vCPU Linux VM two ranges lose to one below about 1.1
# million cells in all, and win by 17% or more from 1.8 million up
# (BENCH_12.json).
_SPLIT_MIN_CELLS = 1 << 20


def _aggregate(values: np.ndarray, *, members, rule, missing_policy: str) -> np.ndarray:
    """Each row's counts and indices, as rows of ``values`` go, a block of
    countries at a time, so that every temporary stays small."""
    n, p = values.shape
    out = np.empty((n, 2 * len(members)))
    rows = max(1, min(n, _BLOCK_CELLS // (p + 1)))
    columns = np.full((p + 1, rows), np.nan)
    for i in range(0, n, rows):
        block = values[i : i + rows]
        view = columns[:p, : len(block)]
        view[:] = block.T  # the block's indicators as contiguous rows
        if rule is not None:
            rule.apply(view.T, view.T)
        for k, cols in enumerate(members):
            out[i : i + rows, k], out[i : i + rows, len(members) + k] = _pillar_means(
                columns[:, : len(block)][cols], missing_policy
            )
    return out


def _pillar_means(values: np.ndarray, missing_policy: str) -> tuple[np.ndarray, np.ndarray]:
    """Each country's count of observed components and pillar index, from
    ``values[j, c, i]``: member j of component c for country i.

    A component's observed members are added one after another in
    manifest order, from 0.0, and divided by their count. Each country's
    observed components are then packed one country after another, and
    averaged by one row-wise mean per count: the same sums, in the same
    order, as a per-country mean over them.
    """
    seen = ~np.isnan(values)
    total = np.zeros(values.shape[1:])
    for x, s in zip(values, seen):
        total += np.where(s, x, 0.0)
    present = seen.sum(axis=0)
    comp_vals = np.where(present > 0, total / np.maximum(present, 1), np.nan).T
    observed = ~np.isnan(comp_vals)
    count = observed.sum(axis=1)
    packed = comp_vals[observed]
    start = np.cumsum(count) - count
    wanted = count == comp_vals.shape[1] if missing_policy == "strict" else count > 0
    out = np.full(len(count), np.nan)
    for m in np.flatnonzero(np.bincount(count[wanted])):
        rows = np.flatnonzero(wanted & (count == m))
        out[rows] = packed[start[rows, None] + np.arange(m)].mean(axis=1)
    return count, out


def rank_countries(scores: FoiScores) -> dict[str, np.ndarray]:
    """Each pillar's 1-based ranks, ``[pillar][i]`` for ``countries[i]``:
    rank 1 = highest index, ties broken by country code, a missing index
    last."""
    n = len(scores.countries)
    by_code = np.empty(n, dtype=int)  # each code's place in code order
    by_code[scores.code_order] = np.arange(n)
    ranks: dict[str, np.ndarray] = {}
    for pillar in PILLARS:
        key = -np.asarray(scores.index[pillar], dtype=float)
        key[np.isnan(key)] = np.inf  # a missing index ranks last
        r = np.empty(n, dtype=int)
        r[np.lexsort((by_code, key))] = np.arange(1, n + 1)
        ranks[pillar] = r
    return ranks
