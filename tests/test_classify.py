import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foi.classify import (
    CLUSTER_LABELS,
    CLUSTER_LEVELS,
    ClusterAssignment,
    CountryShift,
    classify,
    classify_epoch,
    shift_report,
)
from foi.errors import CountrySetMismatchError, DomainError, DuplicateCountryError
from foi.pillar import FoiScores
from foi.reference import verify_reference


def scores_from(mapping, epoch=2020):
    countries = tuple(sorted(mapping))
    return FoiScores(
        epoch=epoch,
        countries=countries,
        index={
            "F": np.array([mapping[c][0] for c in countries]),
            "O": np.array([mapping[c][1] for c in countries]),
            "I": np.array([mapping[c][2] for c in countries]),
        },
    )


def test_all_high_example():
    # published 2020 values for the top all-high country
    a = classify(5.2, 5.4, 5.6)
    assert a.levels == ("H", "H", "H")
    assert a.cluster_id == 8
    assert a.label == "Human capital-based"


def test_threshold_is_inclusive_and_borderline():
    a = classify(4.0, 4.0, 4.0, epsilon=0.0)
    assert a.cluster_id == 8
    assert a.borderline == {"F", "O", "I"}


def test_mixed_levels_example():
    # published 2020 values for the lone cluster-6 country
    a = classify(4.7, 3.7, 4.1)
    assert a.levels == ("H", "L", "H")
    assert a.cluster_id == 6
    assert a.label == "-"


def test_out_of_range_rejected():
    with pytest.raises(DomainError):
        classify(0.5, 4.0, 4.0)
    with pytest.raises(DomainError):
        classify(4.0, 4.0, 7.5)


_BAD_PARAMETERS = [
    ({"threshold": math.nan}, "threshold must be a finite number in [1, 7], got nan"),
    ({"threshold": math.inf}, "threshold must be a finite number in [1, 7], got inf"),
    ({"threshold": 9.0}, "threshold must be a finite number in [1, 7], got 9.0"),
    ({"threshold": 0.999}, "threshold must be a finite number in [1, 7], got 0.999"),
    ({"epsilon": math.nan}, "epsilon must be a finite number >= 0, got nan"),
    ({"epsilon": -1.0}, "epsilon must be a finite number >= 0, got -1.0"),
    ({"epsilon": math.inf}, "epsilon must be a finite number >= 0, got inf"),
]


@pytest.mark.parametrize("kwargs, message", _BAD_PARAMETERS)
def test_threshold_and_epsilon_outside_their_domain_are_rejected(kwargs, message):
    # the parent put every country in cluster 1 (threshold nan, inf, 9) or
    # flagged nothing as borderline (epsilon nan, -1)
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        classify(4.2, 3.0, 5.0, **kwargs)
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        classify_epoch(scores_from({"AAA": (4.2, 3.0, 5.0)}), **kwargs)
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        classify_epoch(scores_from({}), **kwargs)  # no country to classify
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        verify_reference(2020, **kwargs)


@pytest.mark.parametrize("threshold, epsilon", [(1.0, 0.0), (7.0, 6.0), (4.0, 1e300)])
def test_threshold_and_epsilon_at_the_ends_of_their_domain_are_taken(threshold, epsilon):
    a = classify(1.0, 4.0, 7.0, threshold=threshold, epsilon=epsilon)
    _, cluster_id, _, borderline = classify_loop(1.0, 4.0, 7.0, threshold, epsilon)
    assert (a.cluster_id, a.borderline) == (cluster_id, borderline)


def test_cluster_table_is_total_and_unique():
    seen = set()
    for f, o, i in itertools.product((3.0, 5.0), repeat=3):
        a = classify(f, o, i)
        assert CLUSTER_LEVELS[a.cluster_id] == a.levels
        seen.add(a.cluster_id)
    assert seen == set(range(1, 9))


def test_invariant_under_threshold_fixing_transform():
    # monotone map fixing the threshold point keeps every level
    vals = [1.1, 2.5, 3.9, 4.0, 4.1, 6.9]
    transform = lambda v: 4.0 + (v - 4.0) / 3.0
    for f, o, i in itertools.product(vals, repeat=3):
        assert classify(f, o, i).cluster_id == classify(*map(transform, (f, o, i))).cluster_id


def test_classify_epoch_sorted_and_empty():
    scores = scores_from({"BBB": (5, 5, 5), "AAA": (3, 3, 3)})
    out = classify_epoch(scores)
    assert [a.country for a in out] == ["AAA", "BBB"]
    assert classify_epoch(scores_from({})) == []


def test_labels():
    assert CLUSTER_LABELS[1] == "Traditional"
    assert CLUSTER_LABELS[3] == "Dualistic"
    assert CLUSTER_LABELS[4] == "Open market-based"
    assert "Government-led" in CLUSTER_LABELS[7] and "Bureaucratic" in CLUSTER_LABELS[7]
    assert CLUSTER_LABELS[8] == "Human capital-based"
    assert set(CLUSTER_LABELS) == {1, 3, 4, 7, 8}


def test_shift_identity_is_diagonal():
    a = classify_epoch(scores_from({"AAA": (3, 5, 3), "BBB": (5, 5, 5)}))
    rep = shift_report(a, a)
    assert rep.transitions.sum() == 2
    assert np.all(rep.transitions == np.diag(np.diag(rep.transitions)))
    assert len(rep.stayers) == 2
    assert rep.upward == rep.downward == ()


def test_shift_counts_and_movers():
    before = classify_epoch(scores_from({"ISR": (3.5, 4.5, 3.5), "EST": (3.2, 4.9, 3.1)}, 2010))
    after = classify_epoch(scores_from({"ISR": (4.5, 4.6, 4.1), "EST": (4.2, 4.7, 3.6)}, 2020))
    rep = shift_report(before, after, epoch_from=2010, epoch_to=2020)
    by = {s.country: s for s in rep.shifts}
    assert by["ISR"].from_cluster == 3 and by["ISR"].to_cluster == 8 and by["ISR"].delta_h == 2
    assert by["EST"].from_cluster == 3 and by["EST"].to_cluster == 7 and by["EST"].delta_h == 1
    assert [s.country for s in rep.upward] == ["ISR", "EST"]


def test_shift_matrix_marginals_match_cluster_sizes():
    rng = np.random.default_rng(17)
    codes = [f"C{i:02d}" for i in range(20)]
    a = classify_epoch(scores_from({c: tuple(rng.uniform(1, 7, 3)) for c in codes}))
    b = classify_epoch(scores_from({c: tuple(rng.uniform(1, 7, 3)) for c in codes}))
    rep = shift_report(a, b)
    sizes_a = np.bincount([x.cluster_id - 1 for x in a], minlength=8)
    sizes_b = np.bincount([x.cluster_id - 1 for x in b], minlength=8)
    assert np.array_equal(rep.transitions.sum(axis=1), sizes_a)
    assert np.array_equal(rep.transitions.sum(axis=0), sizes_b)


def test_shift_country_set_mismatch():
    a = classify_epoch(scores_from({"AAA": (3, 3, 3), "BBB": (5, 5, 5)}))
    b = classify_epoch(scores_from({"AAA": (3, 3, 3), "CCC": (5, 5, 5)}))
    with pytest.raises(CountrySetMismatchError) as exc:
        shift_report(a, b)
    assert exc.value.only_in_a == ("BBB",)
    assert exc.value.only_in_b == ("CCC",)


@pytest.mark.parametrize("a, b, side, code", [
    ([("A", 1), ("A", 8), ("B", 2)], [("A", 1), ("B", 2)], "first", "A"),
    ([("A", 1), ("B", 2)], [("B", 2), ("A", 1), ("B", 3)], "second", "B"),
    # the repeat is named before the country sets are compared
    ([("A", 1), ("B", 2), ("B", 2)], [("A", 1), ("C", 2)], "first", "B"),
])
def test_shift_rejects_a_country_repeated_in_one_epoch(a, b, side, code):
    # the last of the repeated rows used to win: A shifted 8 -> 1 in a
    # report of two shifts
    with pytest.raises(DuplicateCountryError, match=f"^country '{code}' appears twice in the {side} epoch$"):
        shift_report([ClusterAssignment(*x) for x in a], [ClusterAssignment(*x) for x in b])


def test_assignment_stores_only_the_id_and_borderline_set():
    assert ClusterAssignment._fields == ("country", "cluster_id", "borderline")
    a = ClusterAssignment("AAA", 6, frozenset("F"))
    assert (a.levels, a.label, a.high_count) == (("H", "L", "H"), "-", 2)
    out = classify_epoch(scores_from({"AAA": (4.0, 4.01, 3.0), "BBB": (3.99, 4.02, 2.0)}))
    assert out[0].borderline == {"F", "O"} and out[0].borderline is out[1].borderline


# ------------------------------------------------- the per-country loop oracle


def classify_loop(f, o, i, threshold, epsilon):
    """The per-country rule ``classify_epoch`` replaced: the oracle for
    its levels, ids, labels, borderline sets and first error."""
    indices = {"F": f, "O": o, "I": i}
    for pillar, v in indices.items():
        if not (1.0 <= v <= 7.0):
            raise DomainError(f"{pillar}-index {v} outside [1, 7]")
    levels = tuple("H" if v >= threshold else "L" for v in (f, o, i))
    cluster_id = 1 + 4 * (levels[0] == "H") + 2 * (levels[1] == "H") + (levels[2] == "H")
    borderline = frozenset(p for p, v in indices.items() if abs(v - threshold) <= epsilon)
    return levels, cluster_id, CLUSTER_LABELS.get(cluster_id, "-"), borderline


def classify_epoch_loop(scores, threshold, epsilon):
    """One ``classify_loop`` call per country in code order, leaving out
    the countries with a ``nan`` pillar index."""
    f, o, i = (scores.index[p] for p in "FOI")
    skip = {c for k, c in enumerate(scores.countries) if any(math.isnan(scores.index[p][k]) for p in "FOI")}
    return [
        (code, *classify_loop(float(f[k]), float(o[k]), float(i[k]), threshold, epsilon))
        for code, k in sorted((code, k) for k, code in enumerate(scores.countries))
        if code not in skip
    ]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DomainError as exc:
        return str(exc)


@st.composite
def epochs(draw):
    """An epoch of indices with a threshold and epsilon. Cells are drawn
    from [1, 7], from the points at and next to t and t +- epsilon, from
    ``nan`` and, in some epochs, from outside [1, 7]."""
    t = draw(st.one_of(st.just(4.0), st.floats(1.0, 7.0)))
    eps = draw(st.one_of(st.just(0.05), st.just(0.0), st.floats(0.0, 1.0)))
    edges = [t, t + eps, t - eps, 1.0, 7.0]
    near = edges + [float(np.nextafter(v, d)) for v in edges for d in (-np.inf, np.inf)] + [math.nan]
    cells = [st.floats(1.0, 7.0), st.sampled_from(near)]
    if draw(st.booleans()):
        cells.append(st.sampled_from([0.0, 0.5, 7.5, -math.inf, math.inf, float(np.nextafter(7.0, 8.0))]))
    n = draw(st.integers(0, 10))
    codes = draw(st.lists(st.text("ABC", min_size=1, max_size=3), min_size=n, max_size=n, unique=True))
    index = {p: np.array(draw(st.lists(st.one_of(cells), min_size=n, max_size=n)), dtype=float) for p in "FOI"}
    return FoiScores(epoch=0, countries=tuple(codes), index=index), t, eps


@settings(max_examples=400)
@given(epochs())
def test_classify_epoch_matches_the_per_country_loop(epoch):
    scores, t, eps = epoch
    want = _outcome(classify_epoch_loop, scores, t, eps)
    got = _outcome(classify_epoch, scores, t, eps)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    assert [(a.country, a.levels, a.cluster_id, a.label, a.borderline) for a in got] == want


def shift_loop(a, b):
    """The dict loop ``shift_report`` replaced: shifts in code order, the
    transition counts, and the movers by |delta_h| then code."""
    by_a = {x.country: x for x in a}
    by_b = {x.country: x for x in b}
    high = lambda x: bin(x.cluster_id - 1).count("1")
    shifts = []
    trans = np.zeros((8, 8), dtype=int)
    for code in sorted(by_a):
        fr, to = by_a[code], by_b[code]
        shifts.append(CountryShift(code, fr.cluster_id, to.cluster_id, high(to) - high(fr)))
        trans[fr.cluster_id - 1, to.cluster_id - 1] += 1
    key = lambda s: (-abs(s.delta_h), s.country)
    upward = tuple(sorted((s for s in shifts if s.delta_h > 0), key=key))
    downward = tuple(sorted((s for s in shifts if s.delta_h < 0), key=key))
    return tuple(shifts), trans, upward, downward, tuple(s for s in shifts if s.from_cluster == s.to_cluster)


@settings(max_examples=200)
@given(st.data())
def test_shift_report_matches_the_dict_loop(data):
    codes = data.draw(st.lists(st.text("ABC", min_size=1, max_size=3), max_size=12, unique=True))
    ids = st.lists(st.integers(1, 8), min_size=len(codes), max_size=len(codes))
    a = [ClusterAssignment(c, k) for c, k in zip(codes, data.draw(ids))]
    b = [ClusterAssignment(c, k) for c, k in zip(data.draw(st.permutations(codes)), data.draw(ids))]
    rep = shift_report(a, b)
    shifts, trans, upward, downward, stayers = shift_loop(a, b)
    assert rep.shifts == shifts
    assert np.array_equal(rep.transitions, trans) and rep.transitions.shape == (8, 8)
    assert (rep.upward, rep.downward, rep.stayers) == (upward, downward, stayers)
