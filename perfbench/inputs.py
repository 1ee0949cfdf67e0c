"""Seeded inputs for the benchmark workloads.

Every input is a pure function of ``(seed, scale)``. The program under test
only ever sees the files written here (panel CSVs, a variable CSV and a
manifest JSON); the arrays behind them are handed to the oracle.

Cell values are decimals with exactly three fractional digits, drawn as
integers ``v`` in [100000, 999999] and written as ``v / 1000``. Python's
``float("123.456")`` and numpy's ``123456 / 1000`` both round the same
exact decimal, so the oracle sees bit-identical values without parsing
the files back. The fixed width lets the writer format the whole grid as
one byte array; missing cells are then cut out to leave truly empty cells.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PILLARS = ("F", "O", "I")
VMIN, VMAX = 100_000, 999_999
CACHE_KEEP = 3  # cached input sets kept per scale; older ones are deleted
MISSING_FRAC = 0.05  # panel cells left empty
FACTORS = 20  # true factors behind the variable matrix
ROWS_WITH_MISSING = 0.2  # share of variable-matrix rows that have empty cells


@dataclass(frozen=True)
class PanelSet:
    """Generated manifest plus one or two epochs of the same countries."""

    manifest_path: Path
    panel_paths: tuple[Path, ...]
    manifest: list[dict]
    codes: tuple[str, ...]          # file row order
    columns: tuple[str, ...]        # file column order
    values: tuple[np.ndarray, ...]  # per epoch, file order, nan = missing


@dataclass(frozen=True)
class FactorSet:
    path: Path
    codes: tuple[str, ...]
    columns: tuple[str, ...]
    values: np.ndarray  # nan = missing


def format_grid(codes, columns, ints: np.ndarray, missing: np.ndarray) -> bytes:
    """CSV text for a ``country,<columns...>`` grid of ``ints / 1000``."""
    n, p = ints.shape
    if n == 0:
        return ("country," + ",".join(columns) + "\n").encode()
    if ints.min() < VMIN or ints.max() > VMAX:
        raise ValueError("cell values must lie in [100.000, 999.999]")
    width = len(codes[0])
    if any(len(c) != width for c in codes):
        raise ValueError("country codes must have one width")
    cells = np.empty((n, p, 8), dtype=np.uint8)
    for k, div in enumerate((100_000, 10_000, 1_000)):
        cells[:, :, k] = 48 + ints // div % 10
    cells[:, :, 3] = ord(".")
    for k, div in enumerate((100, 10, 1)):
        cells[:, :, 4 + k] = 48 + ints // div % 10
    cells[:, :, 7] = ord(",")
    cells[:, -1, 7] = ord("\n")
    keep = np.ones(cells.shape, dtype=bool)
    keep[:, :, :7] = ~missing[:, :, None]
    lead = np.frombuffer("".join(f"{c}," for c in codes).encode(), dtype=np.uint8).reshape(n, width + 1)
    rows = np.concatenate([lead, cells.reshape(n, p * 8)], axis=1)
    rows_keep = np.concatenate([np.ones((n, width + 1), dtype=bool), keep.reshape(n, p * 8)], axis=1)
    header = ("country," + ",".join(columns) + "\n").encode()
    return header + rows[rows_keep].tobytes()


def _to_ints(x: np.ndarray, centre: float, spread: float) -> np.ndarray:
    return np.clip(np.rint((centre + spread * x) * 1000), VMIN, VMAX).astype(np.int64)


def make_manifest(rng: np.random.Generator, p: int) -> list[dict]:
    """``p`` indicators split evenly over F/O/I, a third of each pillar in
    two-indicator components, about 15% ``lower_is_better``."""
    records = []
    for j in range(p):
        pillar = PILLARS[j % 3]
        q = j // 3  # position within the pillar
        component = f"{pillar}-pair{q // 2:03d}" if q < p // 9 * 2 else ""
        rec = {
            "id": f"ind{j:03d}",
            "name": f"Indicator {j}",
            "pillar": pillar,
            "direction": "lower_is_better" if rng.random() < 0.15 else "higher_is_better",
            "source": "synthetic",
        }
        if component:
            rec["component"] = component
        records.append(rec)
    return records


def make_panels(seed: int, n: int, p: int, epochs: int):
    """Manifest, file column order, row codes, and per-epoch int grids plus
    missing masks. Country quality is a latent per pillar, so clusters
    spread over all eight ids; a later epoch drifts the latent."""
    rng = np.random.default_rng([seed, n, p, epochs])
    manifest = make_manifest(rng, p)
    pillar_of = np.array([PILLARS.index(r["pillar"]) for r in manifest])
    sign = np.array([-1.0 if r["direction"] == "lower_is_better" else 1.0 for r in manifest])
    order = rng.permutation(p)  # file column j holds manifest indicator order[j]
    codes = tuple(f"C{i:05d}" for i in rng.permutation(n))
    latent = rng.standard_normal((n, 3))
    grids = []
    for _ in range(epochs):
        x = sign * (0.8 * latent[:, pillar_of] + 0.6 * rng.standard_normal((n, p)))
        ints = _to_ints(x, 550.0, 110.0)[:, order]
        missing = rng.random((n, p)) < MISSING_FRAC
        for k in range(3):  # each country keeps an observed cell in each pillar
            cols = np.flatnonzero(pillar_of[order] == k)
            empty = missing[:, cols].all(axis=1)
            missing[empty, cols[0]] = False
        grids.append((ints, missing))
        latent = 0.9 * latent + 0.45 * rng.standard_normal((n, 3))
    columns = tuple(manifest[j]["id"] for j in order)
    return manifest, columns, codes, grids


def make_factor_matrix(seed: int, n: int, p: int):
    """``n x p`` data with a ``FACTORS``-factor block structure. Missing cells
    (one to five per row) sit only in a ``ROWS_WITH_MISSING`` share of the
    rows, so listwise deletion and factor scoring keep complete rows."""
    k = FACTORS
    rng = np.random.default_rng([seed, n, p, k, 7])
    lam = 0.1 * rng.standard_normal((p, k))
    lam[np.arange(p), np.arange(p) % k] += 0.7
    x = rng.standard_normal((n, k)) @ lam.T + 0.6 * rng.standard_normal((n, p))
    ints = _to_ints(x, 550.0, 100.0)
    missing = np.zeros((n, p), dtype=bool)
    rows = rng.choice(n, size=int(round(ROWS_WITH_MISSING * n)), replace=False)
    for i in rows:
        missing[i, rng.choice(p, size=rng.integers(1, 6), replace=False)] = True
    codes = tuple(f"R{i:05d}" for i in range(n))
    columns = tuple(f"v{j:03d}" for j in range(p))
    return codes, columns, ints, missing


def _values(ints, missing):
    v = ints / 1000.0
    v[missing] = np.nan
    return v


def _cached(cache: Path, name: str, write) -> Path:
    """Directory ``cache/name`` filled by ``write(tmpdir)`` unless already
    complete; keeps the ``CACHE_KEEP`` most recently used entries per scale."""
    target = cache / name
    if (target / "done").exists():
        os.utime(target / "done")
        return target
    tmp = cache / f".tmp-{name}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    write(tmp)
    (tmp / "done").write_text("")
    shutil.rmtree(target, ignore_errors=True)
    tmp.rename(target)
    scale = name.rsplit("-s", 1)[0]
    entries = sorted(
        (d for d in cache.glob(f"{scale}-s*") if (d / "done").exists()),
        key=lambda d: (d / "done").stat().st_mtime,
    )
    for old in entries[:-CACHE_KEEP]:
        shutil.rmtree(old, ignore_errors=True)
    return target


def panel_set(cache: Path, seed: int, n: int, p: int, epochs: int) -> PanelSet:
    manifest, columns, codes, grids = make_panels(seed, n, p, epochs)

    def write(d: Path):
        (d / "manifest.json").write_text(json.dumps(manifest, indent=1))
        for e, (ints, missing) in enumerate(grids):
            (d / f"panel{e}.csv").write_bytes(format_grid(codes, columns, ints, missing))

    d = _cached(cache, f"panel-{n}x{p}x{epochs}-s{seed}", write)
    return PanelSet(
        manifest_path=d / "manifest.json",
        panel_paths=tuple(d / f"panel{e}.csv" for e in range(epochs)),
        manifest=manifest,
        codes=codes,
        columns=columns,
        values=tuple(_values(i, m) for i, m in grids),
    )


def factor_set(cache: Path, seed: int, n: int, p: int) -> FactorSet:
    codes, columns, ints, missing = make_factor_matrix(seed, n, p)

    def write(d: Path):
        (d / "variables.csv").write_bytes(format_grid(codes, columns, ints, missing))

    d = _cached(cache, f"factor-{n}x{p}-s{seed}", write)
    return FactorSet(path=d / "variables.csv", codes=codes, columns=columns, values=_values(ints, missing))
