"""Min-max rescaling of raw indicator columns onto the common 1-7 scale.

Each column is rescaled independently: the worst observed value maps to
1, the best to 7, everything else linearly in between. "Best" depends on
the indicator's direction flag. Extremes are taken over the countries in
the panel at hand, so the scale is relative to the analyzed set.
"""

from __future__ import annotations

import dataclasses
import warnings
from typing import NamedTuple

import numpy as np

from .errors import DataWarning, EmptyColumnError
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
        ``values``. A missing cell stays ``nan`` through the arithmetic;
        only the constant columns need 4.0 put back."""
        missing = np.isnan(values[..., self.constant])  # read before out is written
        np.subtract(values, self.sub, out=out)
        with np.errstate(divide="ignore", invalid="ignore"):
            out /= self.div  # ratio first: stays in [0, 1] even when the span is subnormal
        out *= SCALE_HI - SCALE_LO
        out += SCALE_LO
        out[..., self.constant] = np.where(missing, np.nan, SCALE_MID)


def _fold(grid: np.ndarray, lower: np.ndarray) -> RescaleRule:
    """The rule of each column of ``grid``, reversed where ``lower`` is
    set; ``lo - hi`` is exactly ``-(hi - lo)``, so the fold keeps the bits."""
    lo = np.fmin.reduce(grid, axis=0, initial=np.nan)  # fmin skips nan
    hi = np.fmax.reduce(grid, axis=0, initial=np.nan)
    return RescaleRule(np.where(lower, hi, lo), np.where(lower, lo - hi, hi - lo), hi == lo)


def min_max_rescale(values, direction: str) -> np.ndarray:
    """Rescale one column to [1, 7], keeping missing cells missing.

    A degenerate column (all observed values equal) maps to the scale
    midpoint 4.0: a neutral contribution to the pillar mean.

    Raises
    ------
    EmptyColumnError
        If every value is missing.
    """
    col = np.asarray(values, dtype=float)
    if np.isnan(col).all():
        raise EmptyColumnError("column has no observed values")
    out = np.empty_like(col)
    _fold(col[:, None], np.array([direction == "lower_is_better"])).apply(col[:, None], out[:, None])
    return out


def rescale_rule(panel: IndicatorPanel, manifest: IndicatorManifest) -> RescaleRule:
    """The rule that rescales every column of a panel by its manifest
    direction. The first column with no observed value raises
    ``EmptyColumnError``; constant columns, mapped to 4.0, are named in
    one ``DataWarning``."""
    lower = [manifest.by_id(ind).direction == "lower_is_better" for ind in panel.indicators]
    rule = _fold(panel.values, np.array(lower, dtype=bool))
    for ind, empty in zip(panel.indicators, np.isnan(rule.sub)):
        if empty:
            raise EmptyColumnError(f"indicator {ind!r} has no observed values")
    if rule.constant.any():
        names = ", ".join(ind for ind, c in zip(panel.indicators, rule.constant) if c)
        warnings.warn(f"constant columns mapped to {SCALE_MID}: {names}", DataWarning, stacklevel=2)
    return rule


def rescale_panel(panel: IndicatorPanel, manifest: IndicatorManifest) -> IndicatorPanel:
    """Rescale every column of a panel by ``rescale_rule``, into a new grid."""
    grid = np.empty_like(panel.values)
    rescale_rule(panel, manifest).apply(panel.values, grid)
    grid.setflags(write=False)  # the panel takes it without a copy
    return dataclasses.replace(panel, values=grid)
