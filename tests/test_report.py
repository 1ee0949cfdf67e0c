import json

from hypothesis import given, settings
from hypothesis import strategies as st

from foi.classify import PILLAR_SETS, ClusterAssignment
from foi.report import assignments_to_rows, render_assignments


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
