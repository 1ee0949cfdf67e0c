"""Min-max rescaling of raw indicator columns onto the common 1-7 scale.

Each column is rescaled independently: the worst observed value maps to
1, the best to 7, everything else linearly in between. "Best" depends on
the indicator's direction flag. Extremes are taken over the countries in
the panel at hand, so the scale is relative to the analyzed set.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import DataWarning, EmptyColumnError
from .manifest import IndicatorManifest
from .panel import IndicatorPanel

SCALE_LO = 1.0
SCALE_HI = 7.0
SCALE_MID = 4.0


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
    return _rescale_columns(col[:, None], np.array([direction == "lower_is_better"]))[0][:, 0]


def _rescale_columns(grid: np.ndarray, lower: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rescale every column of ``grid`` onto [1, 7], reversed where
    ``lower`` is set, and mark the constant columns, which map to 4.0.
    Each pass runs over the whole grid in row order; the arithmetic per
    cell is the same as one column at a time."""
    lo = np.fmin.reduce(grid, axis=0, initial=np.nan)  # fmin skips nan
    hi = np.fmax.reduce(grid, axis=0, initial=np.nan)
    out = np.subtract(grid, lo)
    np.subtract(hi, grid, out=out, where=lower)
    # ratio first: stays in [0, 1] even when hi - lo is subnormal
    with np.errstate(divide="ignore", invalid="ignore"):
        out /= hi - lo
    out *= SCALE_HI - SCALE_LO
    out += SCALE_LO
    constant = hi == lo
    out[:, constant] = SCALE_MID
    np.copyto(out, np.nan, where=np.isnan(grid))
    return out, constant


def rescale_panel(panel: IndicatorPanel, manifest: IndicatorManifest) -> IndicatorPanel:
    """Rescale every column of a panel using its manifest direction.
    Constant columns, mapped to 4.0, are named in one ``DataWarning``."""
    lower = []
    for ind, empty in zip(panel.indicators, np.isnan(panel.values).all(axis=0)):
        lower.append(manifest.by_id(ind).direction == "lower_is_better")
        if empty:
            raise EmptyColumnError(f"indicator {ind!r} has no observed values")
    grid, constant = _rescale_columns(panel.values, np.array(lower, dtype=bool))
    if constant.any():
        names = ", ".join(ind for ind, c in zip(panel.indicators, constant) if c)
        warnings.warn(f"constant columns mapped to {SCALE_MID}: {names}", DataWarning, stacklevel=2)
    grid.setflags(write=False)  # the panel takes it without a copy
    return IndicatorPanel(
        epoch=panel.epoch,
        countries=panel.countries,
        indicators=panel.indicators,
        values=grid,
    )
