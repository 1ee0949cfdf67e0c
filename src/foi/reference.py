"""Embedded reference tables and verification against them.

The fixture carries the published per-country indices and ranks for
both epochs, the published cluster memberships, and the published
factor values (with genuinely empty cells). ``verify_reference``
re-classifies the published index values with the interval-halving rule
and diffs the result against the published memberships; it reports
disagreements, it never papers over them.
"""

import json
from functools import lru_cache
from importlib import resources
from typing import NamedTuple

from .classify import DEFAULT_EPSILON, DEFAULT_THRESHOLD, PILLAR_SETS, classify
from .errors import DomainError, FixtureIntegrityError


class ReferenceFixture(NamedTuple):
    """Read-only transcription of the published tables."""

    countries: dict[str, str]
    indices: dict[str, dict[str, dict[str, list]]]   # epoch -> code -> pillar -> [value, rank]
    clusters: dict[str, dict[str, int]]              # epoch -> code -> cluster id
    factor_columns: tuple[str, ...]
    factor_values: dict[str, dict[str, float | None]]

    def index_value(self, epoch: int | str, code: str, pillar: str) -> float:
        return float(self.indices[str(epoch)][code][pillar][0])

    def index_rank(self, epoch: int | str, code: str, pillar: str) -> int:
        return int(self.indices[str(epoch)][code][pillar][1])

    def cluster(self, epoch: int | str, code: str) -> int:
        return self.clusters[str(epoch)][code]


class Mismatch(NamedTuple):
    """A country whose cluster computed from its published indices is
    not its published cluster; its fields are the keys of a mismatch in
    the ``verify`` document."""

    country: str
    computed: int
    reference: int
    borderline: bool


class VerifyReport(NamedTuple):
    epoch: int
    matches: int
    mismatches: tuple[Mismatch, ...]

    @property
    def country_count(self) -> int:
        return self.matches + len(self.mismatches)

    @property
    def hard_mismatches(self) -> tuple[str, ...]:
        return tuple(m.country for m in self.mismatches if not m.borderline)

    @property
    def borderline_mismatches(self) -> tuple[str, ...]:
        return tuple(m.country for m in self.mismatches if m.borderline)


@lru_cache(maxsize=1)
def load_fixture() -> ReferenceFixture:
    """Load the embedded tables, checking their checksum."""
    # imported here: it loads OpenSSL, and only `verify` hashes
    import hashlib

    text = resources.files("foi.data").joinpath("reference_tables.json").read_text(encoding="utf-8")
    payload = json.loads(text)
    tables = payload["tables"]
    canonical = json.dumps(tables, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode()).hexdigest()
    if digest != payload["sha256"]:
        raise FixtureIntegrityError(
            f"reference fixture checksum mismatch: {digest} != {payload['sha256']}"
        )
    return ReferenceFixture(
        countries=tables["countries"],
        indices=tables["indices"],
        clusters=tables["clusters"],
        factor_columns=tuple(tables["factor_columns"]),
        factor_values=tables["factor_values"],
    )


def verify_reference(
    epoch: int,
    threshold: float = DEFAULT_THRESHOLD,
    epsilon: float = DEFAULT_EPSILON,
) -> VerifyReport:
    """Classify the published index values and diff against the
    published memberships.

    A mismatch is borderline when every pillar whose computed level
    disagrees with the published cluster lies within ``epsilon`` of the
    threshold (so 1-decimal display rounding can explain it); otherwise
    it is hard.
    """
    fx = load_fixture()
    key = str(epoch)
    if key not in fx.indices:
        raise DomainError(f"no reference data for epoch {epoch}; have {sorted(fx.indices)}")
    mismatches = []
    for code in sorted(fx.countries):
        values = (fx.index_value(epoch, code, p) for p in "FOI")
        got = classify(*values, threshold=threshold, epsilon=epsilon, country=code)
        want = fx.cluster(epoch, code)
        if got.cluster_id != want:
            # the set bits of (computed - 1) XOR (published - 1) are the
            # pillars whose levels differ
            disagreeing = PILLAR_SETS[(got.cluster_id - 1) ^ (want - 1)]
            mismatches.append(Mismatch(code, got.cluster_id, want, borderline=disagreeing <= got.borderline))
    matches = len(fx.countries) - len(mismatches)
    return VerifyReport(epoch=int(epoch), matches=matches, mismatches=tuple(mismatches))
