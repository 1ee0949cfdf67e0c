"""Command-line front end.

One verb per pipeline stage: ``ingest``, ``rescale``, ``indices``,
``classify``, ``shift``, ``factors``, ``verify``, ``export``. Exit
codes: 0 success, 1 input error, 2 numerical failure, 3 verification
mismatches (only with ``--strict-verify``), 141 standard output closed
early by its reader (as a shell reports a filter that ``SIGPIPE`` ended).
"""

import argparse
import json
import os
import sys
from itertools import compress

import numpy as np

from . import factor, pillar, report
from .classify import (
    DEFAULT_EPSILON,
    DEFAULT_THRESHOLD,
    ClusterAssignment,
    classify_epoch,
    check_same_countries,
    shift_report,
    unclassifiable,
)
from .errors import FoiError, SchemaError, SingularMatrixError, UndefinedStatisticError
from .manifest import PILLARS, _read_json, default_manifest, load_manifest
from .panel import load_panel, validate_panel, write_panel
from .reference import verify_reference
from .rescale import SCALE_MID, rescale_panel, rescale_rule

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERICAL = 2
EXIT_VERIFY = 3
EXIT_PIPE = 141


def _add_panel_flags(sp):
    sp.add_argument("--panel", required=True, help="panel CSV path")
    sp.add_argument("--manifest", help="manifest JSON path (default: built-in 24-indicator manifest)")
    sp.add_argument("--epoch", type=int, default=0, help="epoch year label")


def _add_output_flags(sp, formats=report.FORMATS):
    sp.add_argument("--format", choices=formats, default="table")
    sp.add_argument("--out", default="-", help="output path, '-' for stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="foi", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("ingest", help="load a panel and report missing-data coverage")
    _add_panel_flags(sp)
    _add_output_flags(sp, ("table", "json"))

    sp = sub.add_parser("rescale", help="min-max rescale a panel to the 1-7 scale")
    _add_panel_flags(sp)
    sp.add_argument("--out", default="-", help="rescaled panel CSV path, '-' for stdout")

    sp = sub.add_parser("indices", help="compute F/O/I pillar indices and ranks")
    _add_panel_flags(sp)
    sp.add_argument("--missing-policy", choices=pillar.MISSING_POLICIES, default="available_mean")
    _add_output_flags(sp)

    sp = sub.add_parser("classify", help="assign countries to the eight clusters")
    _add_panel_flags(sp)
    sp.add_argument("--missing-policy", choices=pillar.MISSING_POLICIES, default="available_mean")
    sp.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    sp.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    _add_output_flags(sp)

    sp = sub.add_parser("shift", help="compare cluster assignments across two epochs")
    sp.add_argument("--panel-a", required=True, help="earlier epoch panel CSV")
    sp.add_argument("--panel-b", required=True, help="later epoch panel CSV")
    sp.add_argument("--manifest", help="manifest JSON path (default: built-in 24-indicator manifest)")
    sp.add_argument("--epoch-a", type=int, default=0, help="epoch year label of --panel-a")
    sp.add_argument("--epoch-b", type=int, default=0, help="epoch year label of --panel-b")
    sp.add_argument("--missing-policy", choices=pillar.MISSING_POLICIES, default="available_mean")
    sp.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    sp.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    _add_output_flags(sp)

    sp = sub.add_parser("factors", help="run the factor-analysis stack on a variable CSV")
    sp.add_argument("--panel", required=True, help="variable CSV path (country,<ids...>)")
    sp.add_argument("--factors-k", type=int, default=2, help="number of retained factors")
    sp.add_argument("--auto-k", action="store_true", help="retain eigenvalues > 1 instead of --factors-k")
    sp.add_argument("--missing", choices=("pairwise", "listwise"), default="pairwise")
    sp.add_argument("--no-kaiser", action="store_true", help="rotate without Kaiser normalization")
    sp.add_argument("--out", default="-", help="model JSON path, '-' for stdout")
    sp.add_argument("--scores-out", help="optional factor-scores CSV path")

    sp = sub.add_parser("verify", help="diff the published indices against the published clusters")
    sp.add_argument("--epoch", type=int, required=True, choices=(2010, 2020))
    sp.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    sp.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    sp.add_argument("--strict-verify", action="store_true", help="exit 3 when mismatches exist")
    _add_output_flags(sp, ("table", "json"))

    sp = sub.add_parser("export", help="re-render a previously emitted JSON result")
    sp.add_argument("--in", dest="infile", required=True, help="JSON file from indices/classify")
    _add_output_flags(sp)
    return parser


def _manifest(args):
    return load_manifest(args.manifest) if args.manifest else default_manifest()


def _rule_for(command, panel, manifest, where=""):
    """The panel's rescale rule; a warning line, after ``where``, names
    the columns it maps to 4.0 as constant."""
    rule = rescale_rule(panel, manifest)
    if rule.constant.any():
        names = ", ".join(compress(panel.indicators, rule.constant))
        _warn(command, f"{where}constant columns mapped to {SCALE_MID}: {names}")
    return rule


def _scores_for(command, panel_path, manifest, epoch, missing_policy, where=""):
    panel = load_panel(panel_path, manifest, epoch=epoch)
    rule = _rule_for(command, panel, manifest, where)
    return pillar.compute_pillar_scores(panel, manifest, missing_policy=missing_policy, rescale=rule)


def _warn(command, message):
    print(f"foi {command}: warning: {message}", file=sys.stderr)


def _warn_left_out(command, codes):
    if codes:
        listed = ", ".join(sorted(codes))
        _warn(command, f"left out {len(codes)} countries with a missing pillar index: {listed}")


def cmd_ingest(args) -> int:
    panel = load_panel(args.panel, _manifest(args), epoch=args.epoch)
    rep = validate_panel(panel)
    payload = {
        "epoch": panel.epoch,
        "countries": len(panel.countries),
        "indicators": len(panel.indicators),
        **rep._asdict(),
    }

    def table():
        lines = [
            f"countries:  {payload['countries']}",
            f"indicators: {payload['indicators']}",
            f"coverage:   {rep.coverage:.4f}",
        ]
        return lines + [f"warning: {w}" for w in rep.warnings]

    report.write_text(report.render(args.format, payload, table), args.out)
    return EXIT_OK


def cmd_rescale(args) -> int:
    manifest = _manifest(args)
    panel = load_panel(args.panel, manifest, epoch=args.epoch)
    write_panel(rescale_panel(panel, _rule_for(args.command, panel, manifest)), args.out)
    return EXIT_OK


def cmd_indices(args) -> int:
    scores = _scores_for(args.command, args.panel, _manifest(args), args.epoch, args.missing_policy)
    report.write_text(report.render_scores(scores, args.format), args.out)
    return EXIT_OK


def cmd_classify(args) -> int:
    scores = _scores_for(args.command, args.panel, _manifest(args), args.epoch, args.missing_policy)
    assignments = classify_epoch(scores, threshold=args.threshold, epsilon=args.epsilon)
    _warn_left_out(args.command, unclassifiable(scores))
    report.write_text(report.render_assignments(assignments, args.format), args.out)
    return EXIT_OK


def cmd_shift(args) -> int:
    manifest = _manifest(args)
    epochs = [_scores_for(args.command, path, manifest, epoch, args.missing_policy, f"{path}: ")
              for path, epoch in ((args.panel_a, args.epoch_a), (args.panel_b, args.epoch_b))]
    # compare the panels' countries before leaving out the unclassifiable
    # ones, which could otherwise hide a country missing from one panel
    check_same_countries(epochs[0].countries, epochs[1].countries)
    left_out = set(unclassifiable(epochs[0])) | set(unclassifiable(epochs[1]))
    a, b = (classify_epoch(s, threshold=args.threshold, epsilon=args.epsilon) for s in epochs)
    a, b = ([x for x in side if x.country not in left_out] for side in (a, b))
    rep = shift_report(a, b, epoch_from=args.epoch_a, epoch_to=args.epoch_b)
    _warn_left_out(args.command, left_out)
    report.write_text(report.render_shift(rep, args.format), args.out)
    return EXIT_OK


def cmd_factors(args) -> int:
    data = factor.load_variable_matrix(args.panel)
    model = factor.fit_factor_model(
        data,
        k=args.factors_k,
        missing=args.missing,
        kaiser_normalize=not args.no_kaiser,
        auto_k=args.auto_k,
    )
    if not model.converged:
        _warn(args.command, "varimax rotation did not converge; the rotated loadings are from its last sweep")
    report.write_text(report.factor_model_to_json(model), args.out)
    if args.scores_out:
        report.write_text(report.factor_scores_to_csv(model), args.scores_out)
    return EXIT_OK


def cmd_verify(args) -> int:
    rep = verify_reference(args.epoch, threshold=args.threshold, epsilon=args.epsilon)
    payload = {**rep._asdict(), "countries": rep.country_count, "mismatches": [m._asdict() for m in rep.mismatches]}

    def table():
        lines = [f"epoch {rep.epoch}: {rep.matches}/{rep.country_count} match the published clusters"]
        for m in rep.mismatches:
            kind = "borderline" if m.borderline else "hard"
            lines.append(f"  {m.country}: computed {m.computed}, published {m.reference} ({kind})")
        return lines

    report.write_text(report.render(args.format, payload, table), args.out)
    if args.strict_verify and rep.mismatches:
        return EXIT_VERIFY
    return EXIT_OK


# the primary keys of each row of the result documents ``export`` reads,
# and the test each value must pass; the row's other keys are rebuilt
# from these
_ROW_TESTS = {
    "scores": {"country": lambda v: type(v) is str}
    | {f"{p.lower()}_index": lambda v: v is None or type(v) in (int, float) and 1 <= v <= 7 for p in PILLARS},
    "assignments": {
        "country": lambda v: type(v) is str,
        "cluster": lambda v: type(v) is int and 1 <= v <= 8,
        "borderline": lambda v: type(v) is list and all(p in PILLARS for p in v),
    },
}


def cmd_export(args) -> int:
    """Re-render a result of ``indices`` or ``classify``, rebuilt from each
    row's primary keys (``_ROW_TESTS``) as that verb builds it. A row that
    lacks a key, holds a primary value that fails its test, repeats an
    earlier row's country, or holds a derived value other than the
    rebuilt row's (a rank of ``1.0``, ``true`` or null is not the rank 1)
    is a ``SchemaError`` that names the row and the key."""
    path, payload = args.infile, _read_json(args.infile)
    section = next((s for s in _ROW_TESTS if isinstance(payload, dict) and s in payload), None)
    if section is None:
        raise FoiError(f"{path}: unrecognized result document (no 'scores' or 'assignments' key)")
    rows, tests = payload[section], _ROW_TESTS[section]
    if not isinstance(rows, list):
        raise SchemaError(f"{path}: {section!r} must be a list of rows, got {rows!r}")
    first_row = {}
    for n, row in enumerate(rows, start=1):
        for key, test in tests.items():
            if not isinstance(row, dict) or key not in row:
                raise SchemaError(f"{path}: {section} row {n} has no {key!r}")
            if not test(row[key]):
                raise SchemaError(f"{path}: {section} row {n}: {key!r} cannot be {row[key]!r}")
        if (first := first_row.setdefault(row["country"], n)) != n:
            raise SchemaError(f"{path}: {section} row {n}: country {row['country']!r} repeats row {first}")
    if section == "scores":
        if type(payload.get("epoch", 0)) is not int:
            raise SchemaError(f"{path}: 'epoch' cannot be {payload['epoch']!r}")
        # a null index is nan, which ranks last
        index = {p: np.array([r[f"{p.lower()}_index"] for r in rows], dtype=float) for p in PILLARS}
        result = pillar.FoiScores(payload.get("epoch", 0), [r["country"] for r in rows], index)
        rebuilt, render = report.scores_to_rows(result), report.render_scores
    else:
        result = [ClusterAssignment(r["country"], r["cluster"], frozenset(r["borderline"])) for r in rows]
        rebuilt, render = report.assignments_to_rows(result), report.render_assignments
    # the rebuilt rows are in country order, the document's in any order
    rebuilt = {r["country"]: r for r in rebuilt}
    for n, row in enumerate(rows, start=1):
        for key, value in rebuilt[row["country"]].items():
            if key not in row:
                raise SchemaError(f"{path}: {section} row {n} has no {key!r}")
            if key not in tests and (type(row[key]), row[key]) != (type(value), value):
                raise SchemaError(
                    f"{path}: {section} row {n} ({row['country']!r}): {key!r} {row[key]!r} contradicts {value!r}"
                )
    report.write_text(render(result, args.format), args.out)
    return EXIT_OK


COMMANDS = {
    "ingest": cmd_ingest,
    "rescale": cmd_rescale,
    "indices": cmd_indices,
    "classify": cmd_classify,
    "shift": cmd_shift,
    "factors": cmd_factors,
    "verify": cmd_verify,
    "export": cmd_export,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = COMMANDS[args.command](args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader of the output left (`foi rescale | head`): end
        # quietly, with stdout on /dev/null so that the flush at exit
        # cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except (SingularMatrixError, UndefinedStatisticError) as exc:
        print(f"foi {args.command}: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (FoiError, OSError, json.JSONDecodeError) as exc:
        print(f"foi {args.command}: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
