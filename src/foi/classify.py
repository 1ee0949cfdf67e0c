"""Interval-halving classification into eight clusters, plus shift analysis.

Each pillar index is split at the scale midpoint: low (L) below the
threshold, high (H) at the threshold or above. The three level letters
identify one of 2^3 = 8 clusters; the larger recurring clusters carry
model names.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CountrySetMismatchError, DomainError
from .manifest import PILLARS
from .pillar import FoiScores

DEFAULT_THRESHOLD = 4.0
DEFAULT_EPSILON = 0.05

# cluster id = 1 + 4*[F high] + 2*[O high] + [I high]
CLUSTER_LEVELS = {
    1: ("L", "L", "L"),
    2: ("L", "L", "H"),
    3: ("L", "H", "L"),
    4: ("L", "H", "H"),
    5: ("H", "L", "L"),
    6: ("H", "L", "H"),
    7: ("H", "H", "L"),
    8: ("H", "H", "H"),
}

CLUSTER_LABELS = {
    1: "Traditional",
    3: "Dualistic",
    4: "Open market-based",
    7: "Government-led / Bureaucratic",
    8: "Human capital-based",
}


@dataclass(frozen=True)
class ClusterAssignment:
    """One country's cluster for one epoch."""

    country: str
    f_level: str
    o_level: str
    i_level: str
    cluster_id: int
    label: str
    borderline: frozenset[str] = frozenset()

    @property
    def levels(self) -> tuple[str, str, str]:
        return (self.f_level, self.o_level, self.i_level)

    @property
    def high_count(self) -> int:
        return sum(lv == "H" for lv in self.levels)


@dataclass(frozen=True)
class CountryShift:
    country: str
    from_cluster: int
    to_cluster: int
    delta_h: int


@dataclass(frozen=True)
class ShiftReport:
    """Epoch-to-epoch cluster movements.

    ``transitions[a-1][b-1]`` counts countries moving from cluster ``a``
    to cluster ``b``. Mover lists are sorted by \\|delta_h\\| descending,
    then country code.
    """

    epoch_from: int
    epoch_to: int
    shifts: tuple[CountryShift, ...]
    transitions: np.ndarray
    upward: tuple[CountryShift, ...] = field(default_factory=tuple)
    downward: tuple[CountryShift, ...] = field(default_factory=tuple)
    stayers: tuple[CountryShift, ...] = field(default_factory=tuple)


def classify(
    f: float,
    o: float,
    i: float,
    threshold: float = DEFAULT_THRESHOLD,
    epsilon: float = DEFAULT_EPSILON,
    country: str = "",
) -> ClusterAssignment:
    """Assign one country to a cluster from its three pillar indices.

    A pillar is high when its index is at or above the threshold. The
    borderline set collects pillars whose index lies within ``epsilon``
    of the threshold, where display rounding could flip the level.
    """
    indices = {"F": f, "O": o, "I": i}
    for pillar, v in indices.items():
        if not (1.0 <= v <= 7.0):
            raise DomainError(f"{pillar}-index {v} outside [1, 7]")
    levels = tuple("H" if v >= threshold else "L" for v in (f, o, i))
    cluster_id = 1 + 4 * (levels[0] == "H") + 2 * (levels[1] == "H") + (levels[2] == "H")
    borderline = frozenset(p for p, v in indices.items() if abs(v - threshold) <= epsilon)
    return ClusterAssignment(
        country=country,
        f_level=levels[0],
        o_level=levels[1],
        i_level=levels[2],
        cluster_id=cluster_id,
        label=CLUSTER_LABELS.get(cluster_id, "-"),
        borderline=borderline,
    )


def classify_epoch(
    scores: FoiScores,
    threshold: float = DEFAULT_THRESHOLD,
    epsilon: float = DEFAULT_EPSILON,
) -> list[ClusterAssignment]:
    """Classify every country of an epoch; output ordered by country code.

    Countries listed by ``unclassifiable`` are left out.
    """
    f, o, i = (scores.index[p] for p in PILLARS)
    skip = set(unclassifiable(scores))
    return [
        classify(float(f[k]), float(o[k]), float(i[k]), threshold=threshold, epsilon=epsilon, country=code)
        for code, k in sorted((code, k) for k, code in enumerate(scores.countries))
        if code not in skip
    ]


def unclassifiable(scores: FoiScores) -> list[str]:
    """Sorted codes of the countries with a missing (``nan``) pillar
    index, as the ``strict`` missing policy leaves them."""
    missing = np.isnan([scores.index[p] for p in PILLARS]).any(axis=0)
    return sorted(code for code, m in zip(scores.countries, missing) if m)


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
    0 is in neither list but visible in the transition matrix).
    """
    by_a = {x.country: x for x in a}
    by_b = {x.country: x for x in b}
    check_same_countries(by_a, by_b)
    shifts = []
    trans = np.zeros((8, 8), dtype=int)
    for code in sorted(by_a):
        fr, to = by_a[code], by_b[code]
        shifts.append(
            CountryShift(
                country=code,
                from_cluster=fr.cluster_id,
                to_cluster=to.cluster_id,
                delta_h=to.high_count - fr.high_count,
            )
        )
        trans[fr.cluster_id - 1, to.cluster_id - 1] += 1
    movers_key = lambda s: (-abs(s.delta_h), s.country)
    return ShiftReport(
        epoch_from=epoch_from,
        epoch_to=epoch_to,
        shifts=tuple(shifts),
        transitions=trans,
        upward=tuple(sorted((s for s in shifts if s.delta_h > 0), key=movers_key)),
        downward=tuple(sorted((s for s in shifts if s.delta_h < 0), key=movers_key)),
        stayers=tuple(s for s in shifts if s.from_cluster == s.to_cluster),
    )
