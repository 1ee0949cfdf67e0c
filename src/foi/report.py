"""Rendering and export of pipeline results.

Table output mimics the published presentation: one decimal, rank in
parentheses after the index. CSV and JSON exports carry full precision;
missing values are empty CSV cells / JSON nulls.
"""

import csv
import io
import json
from functools import lru_cache
from operator import attrgetter

import numpy as np

from . import pillar
from .classify import ClusterAssignment, ShiftReport
from .factor import FactorModel
from .manifest import PILLARS
from .panel import _open_output, _write_grid

FORMATS = ("table", "csv", "json")


def round_half_up(value: float) -> float:
    """Display rounding to one decimal: half-up, unlike the banker's
    rounding builtin."""
    # imported here: only the table render rounds, so the other verbs skip it
    from decimal import ROUND_HALF_UP, Decimal

    return float(Decimal(repr(value)).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


def _fmt_cell(value: float | None, rank: int) -> str:
    if value is None:
        return ""
    shown = round_half_up(value)
    text = f"{shown:.1f}".rstrip("0").rstrip(".") if shown == int(shown) else f"{shown:.1f}"
    return f"{text} ({rank})"


def render(fmt: str, payload: dict, table, fields=(), rows=()) -> str:
    """Render one result: ``payload`` as JSON, ``rows`` as CSV under the
    header ``fields``, or the lines returned by ``table()``.

    A result without ``fields`` has no CSV form.
    """
    if fmt == "csv" and not fields:
        raise ValueError("this result has no CSV form; format must be 'table' or 'json'")
    if fmt == "json":
        return json.dumps(payload, indent=1, sort_keys=True) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        return buf.getvalue()
    if fmt == "table":
        return "\n".join(table()) + "\n"
    raise ValueError(f"format must be one of {FORMATS}, got {fmt!r}")


def scores_to_rows(scores: pillar.FoiScores) -> list[dict]:
    """One row per country, in code order: each pillar's index (null when
    missing) and rank."""
    order = scores.code_order
    ranks = pillar.rank_countries(scores)
    columns = {"country": [scores.countries[i] for i in order]}
    for p in PILLARS:
        index = np.asarray(scores.index[p], dtype=float)[order]
        columns[f"{p.lower()}_index"] = np.where(np.isnan(index), None, index).tolist()
        columns[f"{p.lower()}_rank"] = ranks[p][order].tolist()
    return [dict(zip(columns, row)) for row in zip(*columns.values())]


def render_scores(scores: pillar.FoiScores, fmt: str = "table") -> str:
    """Render pillar indices in one of the supported formats."""
    rows = scores_to_rows(scores)

    def table():
        lines = [f"{'country':<10}" + "".join(f"{p + '-index':>12}" for p in PILLARS)]
        for row in rows:
            cells = [_fmt_cell(row[f"{p.lower()}_index"], row[f"{p.lower()}_rank"]) for p in PILLARS]
            lines.append(f"{row['country']:<10}" + "".join(f"{c:>12}" for c in cells))
        return lines

    fields = ["country"] + [f"{p.lower()}_{k}" for p in PILLARS for k in ("index", "rank")]
    return render(fmt, {"epoch": scores.epoch, "scores": rows}, table, fields, rows)


def assignments_to_rows(assignments: list[ClusterAssignment]) -> list[dict]:
    return [
        {
            "country": a.country,
            "levels": "".join(a.levels),
            "cluster": a.cluster_id,
            "label": a.label,
            "borderline": sorted(a.borderline),
        }
        for a in sorted(assignments, key=attrgetter("country"))
    ]


@lru_cache(maxsize=64)
def _row_json(cluster_id: int, borderline: frozenset) -> str:
    """One row of the assignments document as ``render`` lays it out
    (``indent=1``, sorted keys, two levels deep), with ``%s`` for the
    quoted country code. One per cluster id and borderline set."""
    row = assignments_to_rows([ClusterAssignment("\0", cluster_id, borderline)])[0]
    text = json.dumps(row, indent=1, sort_keys=True).replace('"\\u0000"', "%s")
    return "  " + text.replace("\n", "\n  ")


def render_assignments(assignments: list[ClusterAssignment], fmt: str = "table") -> str:
    if fmt == "json":
        # the bytes of render("json", ...), written row by row from templates
        quote = json.encoder.encode_basestring_ascii
        rows = [_row_json(a.cluster_id, a.borderline) % quote(a.country)
                for a in sorted(assignments, key=attrgetter("country"))]
        return '{\n "assignments": [' + ("\n" + ",\n".join(rows) + "\n ]" if rows else "]") + "\n}\n"
    rows = assignments_to_rows(assignments)

    def table():
        lines = [f"{'country':<10}{'levels':<8}{'cluster':<9}{'label':<32}borderline"]
        for row in rows:
            lines.append(
                f"{row['country']:<10}{row['levels']:<8}{row['cluster']:<9}"
                f"{row['label']:<32}{','.join(row['borderline'])}"
            )
        return lines

    fields = ["country", "levels", "cluster", "label", "borderline"]
    csv_rows = ({**row, "borderline": ";".join(row["borderline"])} for row in rows)
    return render(fmt, {"assignments": rows}, table, fields, csv_rows)


def render_shift(report: ShiftReport, fmt: str = "table") -> str:
    """Render a shift report; its JSON document holds the report's fields,
    with the mover lists reduced to country codes."""
    rows = [s._asdict() for s in report.shifts]  # country, from_cluster, to_cluster, delta_h
    payload = report._asdict() | {"shifts": rows, "transitions": report.transitions.tolist()}
    payload |= {k: [s.country for s in payload[k]] for k in ("upward", "downward", "stayers")}

    def table():
        lines = [f"{'country':<10}{'from':>6}{'to':>6}{'delta_H':>9}"]
        for row in rows:
            lines.append(
                f"{row['country']:<10}{row['from_cluster']:>6}{row['to_cluster']:>6}{row['delta_h']:>+9d}"
            )
        lines.append("")
        lines.append("upward:   " + ", ".join(payload["upward"]))
        lines.append("downward: " + ", ".join(payload["downward"]))
        return lines

    return render(fmt, payload, table, ["country", "from_cluster", "to_cluster", "delta_h"], rows)


def factor_model_to_json(model: FactorModel) -> str:
    """JSON document of the model's fields, arrays as nested lists, but
    for the scores, which ``factor_scores_to_csv`` writes."""
    fields = model._asdict()
    del fields["scores"], fields["score_rows"]
    payload = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in fields.items()}
    return render("json", payload | {"bartlett": model.bartlett._asdict()}, None)


def factor_scores_to_csv(model: FactorModel) -> str:
    """Scores CSV with one row per country; missing scores are empty cells."""
    k = model.scores.shape[1]
    buf = io.StringIO()
    _write_grid(buf, [f"factor{j + 1}" for j in range(k)], model.score_rows, model.scores)
    return buf.getvalue()


def write_text(text: str, destination) -> None:
    """Write rendered output as ``write_panel`` writes a panel: ``-`` means
    standard output, and a file gets ``\\n`` line endings."""
    with _open_output(destination) as fh:
        fh.write(text)
