"""Indicator metadata: which raw series feed which pillar, and how.

A manifest is an ordered list of indicator specs. Each spec names the
pillar it belongs to (F = future, O = outside, I = inside) and whether
larger raw values are better or worse. Specs may share a ``component``
key, in which case their rescaled values are averaged into a single
component before the pillar mean is taken.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources

from .errors import SchemaError

PILLARS = ("F", "O", "I")
DIRECTIONS = ("higher_is_better", "lower_is_better")


@dataclass(frozen=True)
class IndicatorSpec:
    """Metadata for one raw indicator column.

    Parameters
    ----------
    id : str
        Short unique key; doubles as the CSV column header.
    name : str
        Human-readable label.
    pillar : str
        One of ``"F"``, ``"O"``, ``"I"``.
    direction : str
        ``"higher_is_better"`` or ``"lower_is_better"``.
    source : str
        Free-text provenance label (e.g. ``"OECD"``).
    component : str
        Grouping key for indicators that are averaged into one component
        value before pillar aggregation. Defaults to ``id``.
    """

    id: str
    name: str
    pillar: str
    direction: str
    source: str
    component: str = ""

    def __post_init__(self):
        if self.pillar not in PILLARS:
            raise SchemaError(f"spec {self.id!r}: pillar must be one of {PILLARS}, got {self.pillar!r}")
        if self.direction not in DIRECTIONS:
            raise SchemaError(f"spec {self.id!r}: direction must be one of {DIRECTIONS}, got {self.direction!r}")
        if not self.component:
            object.__setattr__(self, "component", self.id)


@dataclass(frozen=True)
class IndicatorManifest:
    """Ordered collection of indicator specs."""

    specs: tuple[IndicatorSpec, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "specs", tuple(self.specs))
        ids = [s.id for s in self.specs]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise SchemaError(f"duplicate indicator ids in manifest: {dupes}")

    def __len__(self):
        return len(self.specs)

    def __iter__(self):
        return iter(self.specs)

    @property
    def ids(self) -> list[str]:
        return [s.id for s in self.specs]

    def by_id(self, indicator_id: str) -> IndicatorSpec:
        for s in self.specs:
            if s.id == indicator_id:
                return s
        raise KeyError(indicator_id)

    def pillar_ids(self, pillar: str) -> list[str]:
        """Indicator ids belonging to one pillar, in manifest order."""
        return [s.id for s in self.specs if s.pillar == pillar]

    def pillar_components(self, pillar: str) -> list[tuple[str, list[str]]]:
        """Components of one pillar as ``(component, member ids)`` pairs."""
        out: list[tuple[str, list[str]]] = []
        seen: dict[str, list[str]] = {}
        for s in self.specs:
            if s.pillar != pillar:
                continue
            if s.component not in seen:
                seen[s.component] = []
                out.append((s.component, seen[s.component]))
            seen[s.component].append(s.id)
        return out


def manifest_from_records(records) -> IndicatorManifest:
    """Build a manifest from an iterable of plain dicts, each with string
    ``id``, ``name``, ``pillar``, ``direction`` and ``source`` and an
    optional string ``component``."""
    specs = []
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise SchemaError(f"manifest record {i} is not an object")
        try:
            fields = {key: rec[key] for key in ("id", "name", "pillar", "direction", "source")}
        except KeyError as exc:
            raise SchemaError(f"manifest record {i} missing key {exc}") from exc
        fields["component"] = rec.get("component", "")
        if bad := [key for key, value in fields.items() if not isinstance(value, str)]:
            raise SchemaError(f"manifest record {i}: {bad[0]!r} must be a string, got {fields[bad[0]]!r}")
        specs.append(IndicatorSpec(**fields))
    return IndicatorManifest(tuple(specs))


def load_manifest(path) -> IndicatorManifest:
    """Load a manifest from a JSON array of spec objects."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    if not isinstance(payload, list):
        raise SchemaError("manifest JSON must be an array of spec objects")
    return manifest_from_records(payload)


def default_manifest() -> IndicatorManifest:
    """The 24-indicator manifest shipped with the package.

    Direction flags for inverted indicators (ageing share, ecological
    footprint, tax burden, exchange-rate variance) are documented
    interpretive choices, not facts taken from any upstream source.
    """
    text = resources.files("foi.data").joinpath("manifest_default.json").read_text(encoding="utf-8")
    return manifest_from_records(json.loads(text))
