"""The benchmark's workloads: one round of ``foi`` verbs each, with checks.

A run repeats whole rounds, so every verb of a workload contributes the
same number of samples and the median does not depend on where the run
stopped. Why each workload exists is in ``README.md``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import inputs
import oracle

STRESS = (20_000, 300)
REGIONAL = (3_000, 300)
FACTOR = (2_000, 300)
FACTOR_K = 20


@dataclass(frozen=True)
class Op:
    """One ``foi`` invocation. ``check(stdout)`` raises ``oracle.CheckFailed``;
    it reads the files in ``outputs`` itself."""

    verb: str
    argv: tuple[str, ...]
    check: Callable[[str], None]
    outputs: tuple[Path, ...] = ()


def _panel_truth(records, path: Path) -> oracle.PanelTruth:
    codes, columns, values = oracle.read_grid(path.read_text(encoding="utf-8"))
    return oracle.PanelTruth.build(records, codes, columns, values)


def _factor_op(label: str, panel: Path, truth: oracle.FactorTruth, missing: str, k: int, work: Path,
               extra: tuple[str, ...] = ()) -> Op:
    model, scores = work / f"{label}-model.json", work / f"{label}-scores.csv"

    def check(_stdout: str) -> None:
        oracle.check_factor_json(model.read_text(encoding="utf-8"), truth, missing, k)
        oracle.check_scores_csv(scores.read_text(encoding="utf-8"), truth, k)

    argv = ("factors", "--panel", str(panel), *extra, "--missing", missing,
            "--out", str(model), "--scores-out", str(scores))
    return Op(label, argv, check, (model, scores))


def paper_cli(seed: int, cache: Path, work: Path, data: Path) -> list[Op]:
    """Every verb once on the bundled 34-country panels; the seed picks the
    epoch each panel verb reads, the exported document and the order."""
    rng = random.Random(seed)
    records = json.loads((data / "manifest_default.json").read_text(encoding="utf-8"))
    panels = {e: data / f"demo_panel_{e}.csv" for e in (2010, 2020)}
    truth = {e: _panel_truth(records, p) for e, p in panels.items()}
    fa = data / "demo_fa_panel.csv"
    fa_truth = oracle.FactorTruth.build(*oracle.read_grid(fa.read_text(encoding="utf-8")))

    def panel_args(verb, epoch, *rest):
        return (verb, "--panel", str(panels[epoch]), "--epoch", str(epoch), *rest)

    e = [rng.choice((2010, 2020)) for _ in range(4)]
    doc_epoch = rng.choice((2010, 2020))
    doc = oracle.scores_document(truth[doc_epoch], doc_epoch)
    doc_path = work / "scores.json"
    doc_path.write_text(json.dumps(doc), encoding="utf-8")
    ops = [
        Op("ingest", panel_args("ingest", e[0], "--format", "json"),
           lambda out: oracle.check_ingest_json(out, truth[e[0]])),
        Op("rescale", panel_args("rescale", e[1]), lambda out: oracle.check_rescaled_csv(out, truth[e[1]])),
        Op("indices", panel_args("indices", e[2], "--format", "json"),
           lambda out: oracle.check_indices_json(out, truth[e[2]])),
        Op("classify", panel_args("classify", e[3], "--format", "json"),
           lambda out: oracle.check_classify_json(out, truth[e[3]])),
        Op("shift", ("shift", "--panel-a", str(panels[2010]), "--panel-b", str(panels[2020]),
                     "--epoch-a", "2010", "--epoch-b", "2020", "--format", "json"),
           lambda out: oracle.check_shift_json(out, truth[2010], truth[2020])),
        _factor_op("factors", fa, fa_truth, "pairwise", 2, work),
        Op("verify-2010", ("verify", "--epoch", "2010", "--format", "json"),
           lambda out: oracle.check_verify_json(out, 2010)),
        Op("verify-2020", ("verify", "--epoch", "2020", "--format", "json"),
           lambda out: oracle.check_verify_json(out, 2020)),
        Op("export", ("export", "--in", str(doc_path), "--format", "csv"),
           lambda out: oracle.check_export_csv(out, doc)),
    ]
    start = rng.randrange(len(ops))
    return ops[start:] + ops[:start]


def stress_classify(seed: int, cache: Path, work: Path, data: Path) -> list[Op]:
    """``classify --format json`` on a 20 000 x 300 panel, about 5% missing."""
    ps = inputs.panel_set(cache, seed, *STRESS, epochs=1)
    truth = oracle.PanelTruth.build(ps.manifest, ps.codes, ps.columns, ps.values[0])
    out = work / "classify.json"
    argv = ("classify", "--panel", str(ps.panel_paths[0]), "--manifest", str(ps.manifest_path),
            "--epoch", "2020", "--format", "json", "--out", str(out))
    return [Op("classify", argv, lambda _: oracle.check_classify_json(out.read_text(encoding="utf-8"), truth), (out,))]


def regional_write(seed: int, cache: Path, work: Path, data: Path) -> list[Op]:
    """``rescale --out -`` then ``shift --format csv`` on two 3 000 x 300 epochs."""
    ps = inputs.panel_set(cache, seed, *REGIONAL, epochs=2)
    a, b = (oracle.PanelTruth.build(ps.manifest, ps.codes, ps.columns, v) for v in ps.values)
    manifest = ("--manifest", str(ps.manifest_path))
    pa, pb = (str(p) for p in ps.panel_paths)
    return [
        Op("rescale", ("rescale", "--panel", pa, *manifest, "--epoch", "2010", "--out", "-"),
           lambda out: oracle.check_rescaled_csv(out, a)),
        Op("shift", ("shift", "--panel-a", pa, "--panel-b", pb, *manifest, "--epoch-a", "2010",
                     "--epoch-b", "2020", "--format", "csv"),
           lambda out: oracle.check_shift_csv(out, a, b)),
    ]


def factor_wide(seed: int, cache: Path, work: Path, data: Path) -> list[Op]:
    """``factors --factors-k 20`` with pairwise, then listwise deletion, on a
    2 000 x 300 matrix whose missing cells sit in a fifth of its rows."""
    fs = inputs.factor_set(cache, seed, *FACTOR)
    truth = oracle.FactorTruth.build(fs.codes, fs.columns, fs.values)
    k = ("--factors-k", str(FACTOR_K))
    return [_factor_op(f"factors-{m}", fs.path, truth, m, FACTOR_K, work, k) for m in ("pairwise", "listwise")]


WORKLOADS = {
    "paper_cli": paper_cli,
    "stress_classify": stress_classify,
    "regional_write": regional_write,
    "factor_wide": factor_wide,
}
