"""Interval-halving classification into eight clusters, plus shift analysis.

Each pillar index is split at the scale midpoint: low (L) below the
threshold, high (H) at the threshold or above, and borderline within
``epsilon`` of the threshold, where display rounding could flip the
level. The three level letters identify one of 2^3 = 8 clusters; the
larger recurring clusters carry model names. A classification is stored
as its cluster id, from which the levels, the label and the number of
high pillars are read.
"""

from itertools import compress
from typing import NamedTuple

import numpy as np

from .errors import CountrySetMismatchError, DomainError, DuplicateCountryError
from .manifest import PILLARS
from .pillar import FoiScores

DEFAULT_THRESHOLD = 4.0
DEFAULT_EPSILON = 0.05

# cluster id = 1 + 4*[F high] + 2*[O high] + [I high]
CLUSTER_LEVELS = {1 + c: tuple("LH"[c >> shift & 1] for shift in (2, 1, 0)) for c in range(8)}

CLUSTER_LABELS = {
    1: "Traditional",
    3: "Dualistic",
    4: "Open market-based",
    7: "Government-led / Bureaucratic",
    8: "Human capital-based",
}

# the pillars whose bit is set in a 3-bit mask (F 4, O 2, I 1)
PILLAR_SETS = tuple(frozenset(p for p, shift in zip(PILLARS, (2, 1, 0)) if m >> shift & 1) for m in range(8))
# the number of high pillars, by cluster id (entry 0 is unused)
_HIGH_COUNT = np.array([0] + [levels.count("H") for levels in CLUSTER_LEVELS.values()])


class ClusterAssignment(NamedTuple):
    """One country's cluster for one epoch. The levels, the label and
    the high-pillar count follow from ``cluster_id``."""

    country: str
    cluster_id: int
    borderline: frozenset[str] = frozenset()

    @property
    def levels(self) -> tuple[str, str, str]:
        return CLUSTER_LEVELS[self.cluster_id]

    @property
    def label(self) -> str:
        return CLUSTER_LABELS.get(self.cluster_id, "-")

    @property
    def high_count(self) -> int:
        return int(_HIGH_COUNT[self.cluster_id])


class CountryShift(NamedTuple):
    country: str
    from_cluster: int
    to_cluster: int
    delta_h: int


class ShiftReport(NamedTuple):
    """Epoch-to-epoch cluster movements.

    ``transitions[a-1][b-1]`` counts countries moving from cluster ``a``
    to cluster ``b``. Mover lists are sorted by \\|delta_h\\| descending,
    then country code.
    """

    epoch_from: int
    epoch_to: int
    shifts: tuple[CountryShift, ...]
    transitions: np.ndarray
    upward: tuple[CountryShift, ...]
    downward: tuple[CountryShift, ...]
    stayers: tuple[CountryShift, ...]


def _cluster_ids(index: np.ndarray, threshold: float, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """Cluster ids and 3-bit borderline masks (F 4, O 2, I 1) for the
    columns of a (3, n) array of F, O and I indices. A ``threshold`` that
    is not a finite number in [1, 7], an ``epsilon`` that is not a finite
    number >= 0, and then the first column with an index outside [1, 7]
    (``nan`` included) raise ``DomainError``.
    """
    if not 1.0 <= threshold <= 7.0:  # nan fails every comparison
        raise DomainError(f"threshold must be a finite number in [1, 7], got {threshold!r}")
    if not 0.0 <= epsilon < np.inf:
        raise DomainError(f"epsilon must be a finite number >= 0, got {epsilon!r}")
    bad = ~((index >= 1.0) & (index <= 7.0))
    if bad.any():
        k = np.flatnonzero(bad.any(axis=0))[0]
        p = np.flatnonzero(bad[:, k])[0]
        raise DomainError(f"{PILLARS[p]}-index {float(index[p, k])} outside [1, 7]")
    bits = np.array([4, 2, 1])
    return 1 + bits @ (index >= threshold), bits @ (np.abs(index - threshold) <= epsilon)


def classify(
    f: float,
    o: float,
    i: float,
    threshold: float = DEFAULT_THRESHOLD,
    epsilon: float = DEFAULT_EPSILON,
    country: str = "",
) -> ClusterAssignment:
    """Assign one country to a cluster from its three pillar indices,
    by the rule of ``classify_epoch``."""
    ids, border = _cluster_ids(np.array([[f], [o], [i]], dtype=float), threshold, epsilon)
    return ClusterAssignment(country, int(ids[0]), PILLAR_SETS[border[0]])


def classify_epoch(
    scores: FoiScores,
    threshold: float = DEFAULT_THRESHOLD,
    epsilon: float = DEFAULT_EPSILON,
) -> list[ClusterAssignment]:
    """Classify every country of an epoch; output ordered by country code.

    Countries listed by ``unclassifiable`` are left out.
    """
    index = np.array([scores.index[p] for p in PILLARS])
    keep = ~np.isnan(index).any(axis=0)
    ids, border = _cluster_ids(index[:, keep], threshold, epsilon)
    return [
        ClusterAssignment(country, c, PILLAR_SETS[m])
        for country, c, m in zip(compress(scores.countries, keep), ids.tolist(), border.tolist())
    ]


def unclassifiable(scores: FoiScores) -> list[str]:
    """Codes, in code order, of the countries with a missing (``nan``)
    pillar index, as the ``strict`` missing policy leaves them."""
    missing = np.isnan([scores.index[p] for p in PILLARS]).any(axis=0)
    return list(compress(scores.countries, missing))


def check_same_countries(a, b) -> None:
    """Raise ``CountrySetMismatchError`` unless the two collections of
    country codes hold the same countries."""
    a, b = set(a), set(b)
    if a != b:
        only_a, only_b = sorted(a - b), sorted(b - a)
        raise CountrySetMismatchError(
            f"country sets differ: only in first epoch {only_a}, only in second {only_b}",
            only_in_a=only_a,
            only_in_b=only_b,
        )


def shift_report(
    a: list[ClusterAssignment],
    b: list[ClusterAssignment],
    epoch_from: int = 0,
    epoch_to: int = 0,
) -> ShiftReport:
    """Compare two classified epochs covering the same country set.

    ``delta_h`` is the change in the number of high pillars. Countries
    that keep their cluster are stayers; the rest are upward or downward
    movers by the sign of ``delta_h`` (a lateral move with ``delta_h``
    0 is in neither list but visible in the transition matrix). A
    country listed twice in one epoch raises ``DuplicateCountryError``.
    """
    by_a, by_b = {}, {}
    for side, assignments, by in (("first", a, by_a), ("second", b, by_b)):
        for x in assignments:
            if x.country in by:
                raise DuplicateCountryError(f"country {x.country!r} appears twice in the {side} epoch")
            by[x.country] = x
    check_same_countries(by_a, by_b)
    codes = sorted(by_a)
    fr = np.array([by_a[code].cluster_id for code in codes], dtype=int)
    to = np.array([by_b[code].cluster_id for code in codes], dtype=int)
    trans = np.bincount(8 * (fr - 1) + (to - 1), minlength=64).reshape(8, 8)
    delta_h = _HIGH_COUNT[to] - _HIGH_COUNT[fr]
    shifts = [CountryShift(*row) for row in zip(codes, fr.tolist(), to.tolist(), delta_h.tolist())]
    # movers by |delta_h| descending, then code (the shifts are in code order)
    by_size = [shifts[k] for k in np.lexsort((np.arange(len(codes)), -np.abs(delta_h))).tolist()]
    return ShiftReport(
        epoch_from=epoch_from,
        epoch_to=epoch_to,
        shifts=tuple(shifts),
        transitions=trans,
        upward=tuple(s for s in by_size if s.delta_h > 0),
        downward=tuple(s for s in by_size if s.delta_h < 0),
        stayers=tuple(s for s in shifts if s.from_cluster == s.to_cluster),
    )
