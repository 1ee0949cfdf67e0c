import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foi.classify import PILLAR_SETS, ClusterAssignment, CountryShift, ShiftReport
from foi.factor import BartlettResult, FactorModel
from foi.panel import ValidationReport
from foi.reference import Mismatch, ReferenceFixture, VerifyReport
from foi.report import assignments_to_rows, render, render_assignments


def dumps_oracle(assignments):
    """The document ``render_assignments`` wrote before its row templates:
    one dict per row through the indenting encoder."""
    return json.dumps({"assignments": assignments_to_rows(assignments)}, indent=1, sort_keys=True) + "\n"


def test_every_cluster_and_borderline_set_renders_as_json_dumps():
    assignments = [ClusterAssignment(f"C{c}{m}", c, PILLAR_SETS[m]) for c in range(1, 9) for m in range(8)]
    assert render_assignments(assignments, "json") == dumps_oracle(assignments)
    assert render_assignments([], "json") == dumps_oracle([]) == '{\n "assignments": []\n}\n'


codes = st.text(
    st.one_of(
        st.sampled_from('"\\/%,\n\r\t\0\x7f\x1f é\U0001f600'),
        st.characters(codec="utf-8"),
    ),
    max_size=6,
)


@settings(max_examples=300)
@given(st.lists(st.tuples(codes, st.integers(1, 8), st.integers(0, 7)), max_size=20))
def test_json_rows_equal_json_dumps_for_any_code(rows):
    # quotes, backslashes, control characters, non-ASCII and astral
    # characters, repeated codes, any order, and the empty list
    assignments = [ClusterAssignment(code, c, PILLAR_SETS[m]) for code, c, m in rows]
    assert render_assignments(assignments, "json") == dumps_oracle(assignments)


def test_a_borderline_set_equal_to_a_shared_one_renders_the_same():
    # export builds its own frozensets; they must find the same template
    a = [ClusterAssignment("AAA", 3, frozenset(["O", "F"])), ClusterAssignment("BBB", 3, PILLAR_SETS[6])]
    assert render_assignments(a, "json") == dumps_oracle(a)


def test_a_result_without_csv_form_says_so():
    with pytest.raises(ValueError, match="^this result has no CSV form; format must be 'table' or 'json'$"):
        render("csv", {}, list)


# each result record, its fields in order, and values for them
RECORDS = [
    (ValidationReport, ("missing_by_indicator", "missing_by_country", "coverage", "warnings"),
     ({"x0": 1}, {"AAA": 1}, 0.5, ("w",))),
    (BartlettResult, ("chi_square", "df", "p_value"), (3.5, 3, 0.25)),
    (FactorModel, ("variables", "loadings", "rotated_loadings", "rotation", "eigenvalues", "kmo", "bartlett",
                   "variance_explained", "scores", "score_rows", "converged"),
     (("x", "y"), np.eye(2), np.eye(2), np.eye(2), np.ones(2), 0.5, BartlettResult(1.0, 1, 0.5), 1.0,
      np.zeros((3, 2)), ("A", "B", "C"), True)),
    (ClusterAssignment, ("country", "cluster_id", "borderline"), ("AAA", 6, frozenset("F"))),
    (CountryShift, ("country", "from_cluster", "to_cluster", "delta_h"), ("AAA", 1, 8, 3)),
    (ShiftReport, ("epoch_from", "epoch_to", "shifts", "transitions", "upward", "downward", "stayers"),
     (2010, 2020, (CountryShift("AAA", 1, 8, 3),), np.eye(8, dtype=int), (CountryShift("AAA", 1, 8, 3),), (), ())),
    (ReferenceFixture, ("countries", "indices", "clusters", "factor_columns", "factor_values"),
     ({"AAA": "A"}, {"2020": {}}, {"2020": {"AAA": 1}}, ("f1",), {"AAA": {"f1": None}})),
    (Mismatch, ("country", "computed", "reference", "borderline"), ("AAA", 1, 8, True)),
    (VerifyReport, ("epoch", "matches", "mismatches"), (2020, 3, (Mismatch("AAA", 1, 8, True),))),
]


@pytest.mark.parametrize("cls, fields, values", RECORDS, ids=[cls.__name__ for cls, _, _ in RECORDS])
def test_result_records_are_immutable_values(cls, fields, values):
    # equal values make equal records; an array field is shared, as an
    # array has no truth value to compare by
    a = cls(*values)
    b = cls(*(v if isinstance(v, np.ndarray) else copy.deepcopy(v) for v in values))
    assert cls._fields == fields and a == b
    if not any(isinstance(v, (dict, np.ndarray)) for v in values):
        assert hash(a) == hash(b) == hash(values)
    with pytest.raises(AttributeError):
        setattr(a, fields[0], values[0])
