"""Reference results and output checks, written without ``foi``.

Plain numpy for min-max rescaling, component mean then pillar mean, and
``id = 1 + 4*[F>=t] + 2*[O>=t] + [I>=t]``; masked matrix products for
Pearson correlation. Each ``check_*`` function parses one verb's output
and raises ``CheckFailed`` on the first disagreement. Unknown JSON keys
are ignored, so result documents may grow new blocks.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

PILLARS = ("F", "O", "I")
THRESHOLD = 4.0
EPSILON = 0.05
TOL = 1e-9    # rescaled cells, indices, eigenvalues
EDGE = 1e-9   # pillars this close to a decision edge are not compared

# verify: published clusters re-derived from published indices
VERIFY_EXPECTED = {
    2020: {"matches": 30, "hard": {"CZE"}, "borderline": {"ESP", "POL", "SVN"}},
    2010: {
        "matches": 26,
        "hard": {"CHL", "DEU", "GBR", "ISR", "JPN", "PRT"},
        "borderline": {"MEX", "NZL"},
    },
}


class CheckFailed(Exception):
    """A verb's output disagrees with the oracle."""


def _fail(cond: bool, msg: str) -> None:
    if cond:
        raise CheckFailed(msg)


def read_grid(text: str):
    """``country,<cols...>`` CSV text -> (codes, columns, values); empty = nan."""
    rows = list(csv.reader(io.StringIO(text)))
    _fail(not rows or rows[0][0] != "country", "CSV does not start with a 'country' header")
    columns = tuple(rows[0][1:])
    codes, grid = [], []
    for rec in rows[1:]:
        if not rec:
            continue
        _fail(len(rec) != len(columns) + 1, f"row {rec[0]!r} has {len(rec) - 1} cells")
        codes.append(rec[0])
        grid.append([float(c) if c.strip() else math.nan for c in rec[1:]])
    return tuple(codes), columns, np.array(grid, dtype=float).reshape(len(codes), len(columns))


@dataclass(frozen=True)
class Structure:
    """Manifest as arrays, in manifest order."""

    ids: tuple[str, ...]
    lower: np.ndarray       # (p,) bool, lower_is_better
    comp: np.ndarray        # (p, C) membership of indicator in component
    comp_pillar: np.ndarray  # (C, 3) membership of component in pillar

    @classmethod
    def from_records(cls, records) -> "Structure":
        ids = tuple(r["id"] for r in records)
        keys: dict[str, int] = {}
        pillar_of_comp: list[int] = []
        comp_of = []
        for r in records:
            key = (r["pillar"], r.get("component") or r["id"])
            if key not in keys:
                keys[key] = len(keys)
                pillar_of_comp.append(PILLARS.index(r["pillar"]))
            comp_of.append(keys[key])
        comp = np.zeros((len(ids), len(keys)))
        comp[np.arange(len(ids)), comp_of] = 1.0
        comp_pillar = np.zeros((len(keys), 3))
        comp_pillar[np.arange(len(keys)), pillar_of_comp] = 1.0
        lower = np.array([r["direction"] == "lower_is_better" for r in records])
        return cls(ids=ids, lower=lower, comp=comp, comp_pillar=comp_pillar)


def to_manifest_order(columns, values, ids):
    pos = {c: j for j, c in enumerate(columns)}
    return values[:, [pos[i] for i in ids]]


def rescale(values: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """Min-max onto [1, 7] per column; a constant column maps to 4."""
    lo = np.nanmin(values, axis=0)
    hi = np.nanmax(values, axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    frac = np.where(lower, (hi - values) / span, (values - lo) / span)
    out = np.where(hi > lo, 1.0 + 6.0 * frac, 4.0)
    out[np.isnan(values)] = np.nan
    return out


def _nanmean_by(x: np.ndarray, member: np.ndarray) -> np.ndarray:
    seen = ~np.isnan(x)
    total = np.where(seen, x, 0.0) @ member
    count = seen.astype(float) @ member
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(count > 0, total / count, np.nan)


def pillar_indices(rescaled: np.ndarray, s: Structure) -> np.ndarray:
    """(n, 3) F/O/I: mean of observed components, component = mean of members."""
    return _nanmean_by(_nanmean_by(rescaled, s.comp), s.comp_pillar)


def cluster_ids(idx: np.ndarray) -> np.ndarray:
    high = idx >= THRESHOLD
    return 1 + 4 * high[:, 0] + 2 * high[:, 1] + high[:, 2]


def ranks(idx: np.ndarray, codes) -> np.ndarray:
    """Rank 1 = highest, ties by code; (n, 3)."""
    code_key = np.argsort(np.argsort(np.array(codes)))
    out = np.empty(idx.shape, dtype=int)
    for k in range(3):
        order = np.lexsort((code_key, -idx[:, k]))
        out[order, k] = np.arange(1, len(codes) + 1)
    return out


def correlation(values: np.ndarray, missing: str) -> np.ndarray:
    """Pearson R under pairwise or listwise deletion (population moments)."""
    if missing == "listwise":
        values = values[~np.isnan(values).any(axis=1)]
    seen = ~np.isnan(values)
    x = np.where(seen, values - np.nanmean(values, axis=0), 0.0)
    m = seen.astype(float)
    n = m.T @ m
    sx = x.T @ m           # sx[a, b]: sum of column a over rows where b is seen
    sxx = (x * x).T @ m
    sxy = x.T @ x
    cov = sxy / n - (sx / n) * (sx.T / n)
    var_a = sxx / n - (sx / n) ** 2
    r = cov / np.sqrt(var_a * var_a.T)
    np.fill_diagonal(r, 1.0)
    return r


@dataclass(frozen=True)
class PanelTruth:
    """Oracle results for one panel, rows in file order."""

    codes: tuple[str, ...]
    ids: tuple[str, ...]
    raw: np.ndarray        # manifest order
    rescaled: np.ndarray   # manifest order
    idx: np.ndarray        # (n, 3)

    @classmethod
    def build(cls, records, codes, columns, values) -> "PanelTruth":
        s = Structure.from_records(records)
        raw = to_manifest_order(columns, values, s.ids)
        resc = rescale(raw, s.lower)
        return cls(codes=tuple(codes), ids=s.ids, raw=raw, rescaled=resc, idx=pillar_indices(resc, s))


def _close(got: np.ndarray, want: np.ndarray, what: str) -> None:
    _fail(got.shape != want.shape, f"{what}: shape {got.shape}, expected {want.shape}")
    gn, wn = np.isnan(got), np.isnan(want)
    _fail(bool((gn != wn).any()), f"{what}: missing cells differ")
    if (~wn).any():
        err = float(np.max(np.abs(got[~wn] - want[~wn])))
        _fail(err > TOL, f"{what}: max |difference| {err:.3g} > {TOL:g}")


def _by_code(truth: PanelTruth, codes) -> np.ndarray:
    pos = {c: i for i, c in enumerate(truth.codes)}
    _fail(set(codes) != set(pos) or len(codes) != len(pos), "country set differs from the input")
    return np.array([pos[c] for c in codes])


def check_rescaled_csv(text: str, truth: PanelTruth) -> None:
    codes, columns, values = read_grid(text)
    _fail(columns != truth.ids, "rescaled columns are not in manifest order")
    _close(values, truth.rescaled[_by_code(truth, codes)], "rescaled cells")


def check_ingest_json(text: str, truth: PanelTruth) -> None:
    doc = json.loads(text)
    n, p = truth.raw.shape
    _fail(doc["countries"] != n or doc["indicators"] != p, "ingest shape differs")
    miss = np.isnan(truth.raw)
    want = {i: int(c) for i, c in zip(truth.ids, miss.sum(axis=0))}
    _fail(doc["missing_by_indicator"] != want, "missing_by_indicator differs")
    _fail(abs(doc["coverage"] - (1.0 - miss.mean())) > TOL, "coverage differs")


def check_indices_json(text: str, truth: PanelTruth) -> None:
    rows = json.loads(text)["scores"]
    order = _by_code(truth, [r["country"] for r in rows])
    got = np.array([[r[f"{p.lower()}_index"] for p in PILLARS] for r in rows], dtype=float)
    _close(got, truth.idx[order], "pillar indices")
    want_rank = ranks(truth.idx, truth.codes)[order]
    got_rank = np.array([[r[f"{p.lower()}_rank"] for p in PILLARS] for r in rows])
    _fail(not np.array_equal(got_rank, want_rank), "ranks differ")


def _decided(v: np.ndarray, edge: float) -> np.ndarray:
    return np.abs(v - edge) > EDGE


def check_assignments(rows, truth: PanelTruth) -> None:
    """``rows``: dicts with country, cluster, levels, borderline."""
    t, eps = THRESHOLD, EPSILON
    order = _by_code(truth, [r["country"] for r in rows])
    idx = truth.idx[order]
    got_id = np.array([r["cluster"] for r in rows])
    want_id = cluster_ids(idx)
    sure = _decided(idx, t).all(axis=1)
    bad = np.flatnonzero(sure & (got_id != want_id))
    _fail(bad.size > 0, f"cluster of {rows[bad[0]]['country'] if bad.size else ''} differs")
    for r, v in zip(rows, idx):
        levels = "".join("H" if x >= t else "L" for x in v)
        flags = {p for p, x in zip(PILLARS, v) if abs(x - t) <= eps}
        for p, x, have, want in zip(PILLARS, v, r["levels"], levels):
            _fail(_decided(x, t) and have != want, f"{r['country']}: {p} level {have}, expected {want}")
            near = abs(abs(x - t) - eps) <= EDGE
            _fail(not near and ((p in r["borderline"]) != (p in flags)), f"{r['country']}: {p} borderline flag")


def check_classify_json(text: str, truth: PanelTruth) -> None:
    check_assignments(json.loads(text)["assignments"], truth)


def _check_shift_rows(rows, a: PanelTruth, b: PanelTruth) -> None:
    codes = [r["country"] for r in rows]
    ia, ib = a.idx[_by_code(a, codes)], b.idx[_by_code(b, codes)]
    sure = _decided(ia, THRESHOLD).all(axis=1) & _decided(ib, THRESHOLD).all(axis=1)
    got = np.array([[int(r["from_cluster"]), int(r["to_cluster"]), int(r["delta_h"])] for r in rows])
    want = np.stack(
        [
            cluster_ids(ia),
            cluster_ids(ib),
            (ib >= THRESHOLD).sum(axis=1) - (ia >= THRESHOLD).sum(axis=1),
        ],
        axis=1,
    )
    bad = np.flatnonzero(sure & (got != want).any(axis=1))
    _fail(bad.size > 0, f"shift of {codes[bad[0]] if bad.size else ''} differs")


def check_shift_csv(text: str, a: PanelTruth, b: PanelTruth) -> None:
    rows = list(csv.DictReader(io.StringIO(text)))
    _check_shift_rows(rows, a, b)


def check_shift_json(text: str, a: PanelTruth, b: PanelTruth) -> None:
    doc = json.loads(text)
    _check_shift_rows(doc["shifts"], a, b)
    trans = np.zeros((8, 8), dtype=int)
    np.add.at(trans, (cluster_ids(a.idx) - 1, cluster_ids(b.idx[_by_code(b, a.codes)]) - 1), 1)
    sure = _decided(a.idx, THRESHOLD).all() and _decided(b.idx, THRESHOLD).all()
    _fail(sure and doc["transitions"] != trans.tolist(), "transition matrix differs")


def check_verify_json(text: str, epoch: int) -> None:
    doc = json.loads(text)
    want = VERIFY_EXPECTED[epoch]
    _fail(doc["matches"] != want["matches"], f"verify {epoch}: {doc['matches']} matches")
    hard = {m["country"] for m in doc["mismatches"] if not m["borderline"]}
    border = {m["country"] for m in doc["mismatches"] if m["borderline"]}
    _fail(hard != want["hard"] or border != want["borderline"], f"verify {epoch}: mismatch sets differ")


@dataclass(frozen=True)
class FactorTruth:
    codes: tuple[str, ...]
    columns: tuple[str, ...]
    complete: np.ndarray            # (n,) rows with no missing cell
    eigenvalues: dict[str, np.ndarray]

    @classmethod
    def build(cls, codes, columns, values) -> "FactorTruth":
        eig = {
            m: np.sort(np.linalg.eigvalsh(correlation(values, m)))[::-1] for m in ("pairwise", "listwise")
        }
        return cls(tuple(codes), tuple(columns), ~np.isnan(values).any(axis=1), eig)


def check_factor_json(text: str, truth: FactorTruth, missing: str, k: int) -> None:
    doc = json.loads(text)
    _fail(tuple(doc["variables"]) != truth.columns, "factor variables differ")
    _close(np.array(doc["eigenvalues"], dtype=float), truth.eigenvalues[missing], "eigenvalues")
    _fail(np.array(doc["rotated_loadings"]).shape != (len(truth.columns), k), "loadings shape differs")


def check_scores_csv(text: str, truth: FactorTruth, k: int) -> None:
    codes, columns, values = read_grid(text)
    _fail(codes != truth.codes or len(columns) != k, "scores rows or columns differ")
    done = ~np.isnan(values).any(axis=1)
    _fail(not np.array_equal(done, truth.complete), "scored rows are not the complete rows")
    centre = np.abs(values[done].mean(axis=0)).max()
    _fail(centre > TOL, f"scores are not centred on complete rows ({centre:.3g})")


def scores_document(truth: PanelTruth, epoch: int) -> dict:
    """An ``indices --format json`` style document built by the oracle."""
    rk = ranks(truth.idx, truth.codes)
    rows = [
        {
            "country": c,
            **{f"{p.lower()}_index": float(truth.idx[i, k]) for k, p in enumerate(PILLARS)},
            **{f"{p.lower()}_rank": int(rk[i, k]) for k, p in enumerate(PILLARS)},
        }
        for i, c in enumerate(truth.codes)
    ]
    return {"epoch": epoch, "scores": sorted(rows, key=lambda r: r["country"])}


def check_export_csv(text: str, doc: dict) -> None:
    rows = list(csv.DictReader(io.StringIO(text)))
    _fail(len(rows) != len(doc["scores"]), "exported row count differs")
    for got, want in zip(rows, doc["scores"]):
        for key, value in want.items():
            _fail(got[key] != str(value), f"{want['country']}: exported {key} {got[key]!r} != {value!r}")
