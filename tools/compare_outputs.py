"""Run one fixed list of ``foi`` command lines against two source trees
and list every output that differs between them.

Each command runs as ``python -m foi.cli ARGS`` in a fresh process, once
with ``PYTHONPATH=PARENT_SRC`` and once with ``PYTHONPATH=CHANGE_SRC``,
each side in a working directory of its own. Its standard output,
standard error and exit status are kept as files, next to the files it
writes there (``--out``, ``--scores-out`` take paths relative to it).
Inputs are read from one shared copy, so paths printed in messages are
the same on both sides.

The list covers every verb and format on both bundled demo panels;
``factors`` on the bundled variable matrix at k = 1, 2, 3 and 12, with
``--auto-k`` and with an out-of-range k, under both deletion modes, with
and without ``--no-kaiser``; every ``--help``; and the input errors of
``error_cases``, on inputs written next to the shared copy of the bundled
ones, so that error lines and exit statuses are compared too. With
``--cache DIR`` it adds the benchmark's seed-1 inputs, built in (or read
from) DIR as ``perfbench/run.py`` builds them: ``classify`` JSON at
stress scale, ``rescale`` and ``shift`` CSV at regional scale, and the
``factors`` model and scores of the wide factor workload.

Run from the repo root, for example against a copy of the parent commit:
    python tools/compare_outputs.py ../parent/src src --cache .bench_cache
The exit status is 0 when no file differs, 1 otherwise.
"""

import argparse
import filecmp
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
VERBS = ("ingest", "rescale", "indices", "classify", "shift", "factors", "verify", "export")
FORMATS = ("table", "csv", "json")
POLICIES = ("available_mean", "strict")


def demo_cases(data: Path) -> dict[str, list[str]]:
    """Name -> argv of each command on the bundled inputs under ``data``."""
    panels = {e: str(data / f"demo_panel_{e}.csv") for e in (2010, 2020)}
    cases = {"help": ["--help"], **{f"help-{verb}": [verb, "--help"] for verb in VERBS}}
    for e, panel in panels.items():
        common = ["--panel", panel, "--epoch", str(e)]
        cases[f"rescale-{e}"] = ["rescale", *common]
        cases[f"rescale-{e}-file"] = ["rescale", *common, "--out", f"rescale-{e}.csv"]
        for fmt in ("table", "json"):
            cases[f"ingest-{e}-{fmt}"] = ["ingest", *common, "--format", fmt]
        for policy in POLICIES:
            scored = [*common, "--missing-policy", policy]
            for fmt in FORMATS:
                cases[f"indices-{e}-{policy}-{fmt}"] = ["indices", *scored, "--format", fmt]
                cases[f"classify-{e}-{policy}-{fmt}"] = ["classify", *scored, "--format", fmt]
            for verb in ("indices", "classify"):
                doc = f"{verb}-{e}-{policy}.json"
                cases[f"{verb}-{e}-{policy}-doc"] = [verb, *scored, "--format", "json", "--out", doc]
                for fmt in FORMATS:
                    cases[f"export-{verb}-{e}-{policy}-{fmt}"] = ["export", "--in", doc, "--format", fmt]
        for fmt in ("table", "json"):
            cases[f"verify-{e}-{fmt}"] = ["verify", "--epoch", str(e), "--format", fmt]
        cases[f"verify-{e}-strict"] = ["verify", "--epoch", str(e), "--strict-verify"]
    for policy in POLICIES:
        pair = ["--panel-a", panels[2010], "--panel-b", panels[2020], "--epoch-a", "2010", "--epoch-b", "2020",
                "--missing-policy", policy]
        for fmt in FORMATS:
            cases[f"shift-{policy}-{fmt}"] = ["shift", *pair, "--format", fmt]
        cases[f"shift-{policy}-doc"] = ["shift", *pair, "--format", "json", "--out", f"shift-{policy}.json"]
        cases[f"export-shift-{policy}"] = ["export", "--in", f"shift-{policy}.json"]
    for k in ("1", "2", "3", "12", "auto", "0", "13"):
        for missing in ("pairwise", "listwise"):
            for kaiser in ("kaiser", "no-kaiser"):
                name = f"factors-k{k}-{missing}-{kaiser}"
                cases[name] = [
                    "factors", "--panel", str(data / "demo_fa_panel.csv"), "--missing", missing,
                    *(["--auto-k"] if k == "auto" else ["--factors-k", k]),
                    *(["--no-kaiser"] if kaiser == "no-kaiser" else []),
                    "--out", f"{name}.json", "--scores-out", f"{name}-scores.csv",
                ]
    return cases


def _write_variables(path: Path, grid: list[list[float | None]]) -> str:
    """Write ``grid`` as a variable CSV with columns v0, v1, ...; a
    ``None`` cell is left empty."""
    lines = ["country," + ",".join(f"v{j}" for j in range(len(grid[0])))]
    lines += [f"C{i}," + ",".join("" if x is None else repr(x) for x in row) for i, row in enumerate(grid)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def error_cases(data: Path) -> dict[str, list[str]]:
    """Name -> argv of each command that fails on an input written under
    ``data``: a correlation matrix made singular by a repeated column,
    exactly or to working precision, with no missing cell, under both
    deletion modes; a variable that is 0.4 or 2.5 on the complete rows
    alone; a manifest record with a bad pillar; and an empty panel."""
    rng = random.Random(1)
    # integer columns with integer means keep every sum exact: v3 repeats
    # v0, whose deviations (+-1) square to 36 = 6 ** 2, so r(v0, v3) is
    # exactly 1 and R exactly singular
    grid = [[(-1.0) ** i, float(rng.randint(-4, 4)), float(rng.randint(-4, 4))] for i in range(36)]
    for j in (1, 2):
        grid[0][j] -= sum(r[j] for r in grid) % 36
    singular = _write_variables(data / "singular.csv", [r + r[:1] for r in grid])
    # v3 repeats v0 among gaussian columns: r(v0, v3) is 1 up to
    # round-off, and R singular to working precision only
    gauss = random.Random(1)
    rows = [[gauss.gauss(0.0, 1.0) for _ in range(3)] for _ in range(40)]
    repeated = _write_variables(data / "repeated.csv", [r + r[:1] for r in rows])
    cases = {f"error-{name}-{missing}": ["factors", "--panel", path, "--missing", missing]
             for name, path in (("singular", singular), ("repeated", repeated))
             for missing in ("pairwise", "listwise")}
    rows = [[rng.gauss(0.0, 1.0) for _ in range(3)] for _ in range(60)]
    for c in (0.4, 2.5):
        # v1 is missing on rows 0-19, v2 on rows 20-39: rows 40-59 are the complete ones
        grid = [[c if i >= 40 else r[0], None if i < 20 else r[1], None if 20 <= i < 40 else r[2]]
                for i, r in enumerate(rows)]
        cases[f"error-constant-{c}"] = ["factors", "--panel", _write_variables(data / f"constant-{c}.csv", grid),
                                        "--out", f"constant-{c}.json", "--scores-out", f"constant-{c}-scores.csv"]
    records = json.loads((data / "manifest_default.json").read_text(encoding="utf-8"))
    records[0]["pillar"] = "X"
    (data / "bad-manifest.json").write_text(json.dumps(records))
    cases["error-manifest"] = ["classify", "--panel", str(data / "demo_panel_2020.csv"),
                               "--manifest", str(data / "bad-manifest.json")]
    (data / "empty.csv").write_text("")
    for verb in ("ingest", "factors"):
        cases[f"error-empty-{verb}"] = [verb, "--panel", str(data / "empty.csv")]
    return cases


def cache_cases(cache: Path) -> dict[str, list[str]]:
    """Name -> argv of each command on the benchmark's seed-1 inputs."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import inputs
    import workloads

    stress = inputs.panel_set(cache, 1, *workloads.STRESS, epochs=1)
    regional = inputs.panel_set(cache, 1, *workloads.REGIONAL, epochs=2)
    wide = inputs.factor_set(cache, 1, *workloads.FACTOR)
    pa, pb = (str(p) for p in regional.panel_paths)
    cases = {
        "stress-classify": ["classify", "--panel", str(stress.panel_paths[0]), "--manifest",
                            str(stress.manifest_path), "--epoch", "2020", "--format", "json",
                            "--out", "stress-classify.json"],
        "regional-rescale": ["rescale", "--panel", pa, "--manifest", str(regional.manifest_path),
                             "--epoch", "2010", "--out", "-"],
        "regional-shift": ["shift", "--panel-a", pa, "--panel-b", pb, "--manifest", str(regional.manifest_path),
                           "--epoch-a", "2010", "--epoch-b", "2020", "--format", "csv"],
    }
    for missing in ("pairwise", "listwise"):
        cases[f"wide-factors-{missing}"] = [
            "factors", "--panel", str(wide.path), "--factors-k", str(workloads.FACTOR_K), "--missing", missing,
            "--out", f"wide-{missing}.json", "--scores-out", f"wide-{missing}-scores.csv",
        ]
    return cases


def run_side(src: Path, cases: dict[str, list[str]], work: Path) -> None:
    """Run every case with ``src`` on the path, in the directory ``work``,
    which keeps each one's stdout, stderr and exit status as files."""
    work.mkdir()
    env = {**os.environ, "PYTHONPATH": str(src)}
    for name, argv in cases.items():
        done = subprocess.run([sys.executable, "-m", "foi.cli", *argv], cwd=work, env=env, capture_output=True)
        (work / f"{name}.stdout").write_bytes(done.stdout)
        (work / f"{name}.stderr").write_bytes(done.stderr)
        (work / f"{name}.status").write_text(f"{done.returncode}\n")


def differing(a: Path, b: Path) -> list[str]:
    """Names of the files under ``a`` or ``b`` that the other lacks or
    holds with other bytes."""
    names = sorted({p.name for p in a.iterdir()} | {p.name for p in b.iterdir()})
    return [n for n in names if not ((a / n).exists() and (b / n).exists()
                                     and filecmp.cmp(a / n, b / n, shallow=False))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("parent_src", type=Path, help="source tree to compare against (holds foi/)")
    parser.add_argument("change_src", type=Path, help="source tree under test (holds foi/)")
    parser.add_argument("--cache", type=Path, help="benchmark input cache; adds the benchmark-scale commands")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        data = shutil.copytree(args.change_src / "foi" / "data", tmp / "data")
        cases = demo_cases(data) | error_cases(data)
        if args.cache:
            cases |= cache_cases(args.cache.resolve())
        for side, src in (("parent", args.parent_src), ("change", args.change_src)):
            run_side(src.resolve(), cases, tmp / side)
        files = len(list((tmp / "change").iterdir()))
        diff = differing(tmp / "parent", tmp / "change")
    for name in diff:
        print(f"differs: {name}")
    print(f"{len(cases)} commands, {files} files, {len(diff)} differ")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
