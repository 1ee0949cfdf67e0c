"""Min-max rescaling of raw indicator columns onto the common 1-7 scale.

Each column is rescaled independently: the worst observed value maps to
1, the best to 7, everything else linearly in between. "Best" depends on
the indicator's direction flag. Extremes are taken over the countries in
the panel at hand, so the scale is relative to the analyzed set.
"""

from typing import NamedTuple

import numpy as np

from .errors import DomainError, EmptyColumnError, SchemaError
from .manifest import IndicatorManifest
from .panel import IndicatorPanel

SCALE_LO = 1.0
SCALE_HI = 7.0
SCALE_MID = 4.0


class RescaleRule(NamedTuple):
    """Each column's rescale, its direction folded in: a cell ``x`` maps
    to ``(x - sub) / div * 6 + 1``, where ``sub`` is the column's worst
    value (``lo``, or ``hi`` when lower is better) and ``div`` its best
    minus its worst; a cell of a ``constant`` column maps to 4.0."""

    sub: np.ndarray
    div: np.ndarray
    constant: np.ndarray

    def apply(self, values: np.ndarray, out: np.ndarray) -> None:
        """Rescale the rows of ``values`` into ``out``, which may be
        ``values``, with a column for each of the rule's (the callers that
        take a rule and a panel check it first, with ``check_width``). A
        missing cell stays ``nan`` through the arithmetic; only the
        constant columns need 4.0 put back."""
        missing = np.isnan(values[..., self.constant])  # read before out is written
        np.subtract(values, self.sub, out=out)
        with np.errstate(divide="ignore", invalid="ignore"):
            out /= self.div  # ratio first: stays in [0, 1] even when the span is subnormal
        out *= SCALE_HI - SCALE_LO
        out += SCALE_LO
        out[..., self.constant] = np.where(missing, np.nan, SCALE_MID)

    def check_width(self, width: int) -> None:
        """Raise ``SchemaError`` unless the rule has ``width`` columns."""
        if width != len(self.sub):
            raise SchemaError(f"a rescale rule of {len(self.sub)} columns cannot rescale {width} columns")


def _fold(grid: np.ndarray, lower: np.ndarray, names) -> RescaleRule:
    """The rule of each column of ``grid``, named ``names`` in its errors,
    reversed where ``lower`` is set; ``lo - hi`` is exactly ``-(hi - lo)``,
    so the fold keeps the bits."""
    lo = np.fmin.reduce(grid, axis=0, initial=np.nan)  # fmin skips nan
    hi = np.fmax.reduce(grid, axis=0, initial=np.nan)
    with np.errstate(over="ignore"):
        rule = RescaleRule(np.where(lower, hi, lo), np.where(lower, lo - hi, hi - lo), hi == lo)
    for name, sub, div in zip(names, rule.sub, rule.div):
        if np.isnan(sub):
            raise EmptyColumnError(f"{name} has no observed values")
        if np.isinf(div):  # while it is finite, x - sub cannot overflow
            raise DomainError(f"{name}: the span of its observed values overflows")
    return rule


def min_max_rescale(values, direction: str) -> np.ndarray:
    """Rescale one column to [1, 7], keeping missing cells missing.

    A degenerate column (all observed values equal) maps to the scale
    midpoint 4.0: a neutral contribution to the pillar mean.

    Raises
    ------
    EmptyColumnError
        If every value is missing.
    DomainError
        If the highest minus the lowest observed value overflows.
    """
    col = np.asarray(values, dtype=float)
    out = np.empty_like(col)
    _fold(col[:, None], np.array([direction == "lower_is_better"]), ["column"]).apply(col[:, None], out[:, None])
    return out


def rescale_rule(panel: IndicatorPanel, manifest: IndicatorManifest) -> RescaleRule:
    """The rule that rescales every column of a panel by its manifest
    direction. The first column with no observed value, or whose span
    overflows, raises ``EmptyColumnError`` or ``DomainError``. The
    rule's ``constant`` marks the columns whose observed values are all
    equal, which map to 4.0."""
    lower = [manifest.by_id(ind).direction == "lower_is_better" for ind in panel.indicators]
    return _fold(panel.values, np.array(lower, dtype=bool), [f"indicator {ind!r}" for ind in panel.indicators])


def rescale_panel(panel: IndicatorPanel, rule: RescaleRule) -> IndicatorPanel:
    """Rescale every column of a panel by ``rule`` (as ``rescale_rule``
    gives it), into a new grid."""
    rule.check_width(panel.values.shape[1])
    grid = np.empty_like(panel.values)
    rule.apply(panel.values, grid)
    grid.setflags(write=False)  # the panel takes it without a copy
    return IndicatorPanel(panel.epoch, panel.countries, panel.indicators, grid)
