import pytest

from foi.classify import CLUSTER_LABELS, CLUSTER_LEVELS, DEFAULT_THRESHOLD, classify
from foi.errors import DomainError
from foi.reference import ReferenceFixture, load_fixture, verify_reference


def test_fixture_shape_and_checksum():
    fx = load_fixture()  # raises FixtureIntegrityError on checksum drift
    assert len(fx.countries) == 34
    for epoch in ("2010", "2020"):
        assert set(fx.indices[epoch]) == set(fx.countries)
        assert set(fx.clusters[epoch]) == set(fx.countries)
    assert fx.factor_columns == ("F1", "F2", "O1", "O2", "I1", "I2")
    assert len(fx.factor_values) == 34


def test_published_factor_value_gaps():
    fx = load_fixture()
    assert fx.factor_values["CHE"]["F1"] is None
    assert fx.factor_values["CHE"]["I1"] == pytest.approx(0.99119)
    assert fx.factor_values["TUR"]["O1"] is None
    assert fx.factor_values["SVN"]["O2"] is None


def independent_mismatches(epoch):
    """Brute-force oracle: re-apply the threshold rule country by country."""
    fx = load_fixture()
    hard, borderline, matches = [], [], 0
    for code in sorted(fx.countries):
        vals = {p: fx.index_value(epoch, code, p) for p in "FOI"}
        levels = tuple("H" if vals[p] >= 4.0 else "L" for p in "FOI")
        computed = 1 + 4 * (levels[0] == "H") + 2 * (levels[1] == "H") + (levels[2] == "H")
        published = fx.cluster(epoch, code)
        if computed == published:
            matches += 1
            continue
        diff = [
            p
            for p, have, need in zip("FOI", levels, CLUSTER_LEVELS[published])
            if have != need
        ]
        (borderline if all(vals[p] == 4.0 for p in diff) else hard).append(code)
    return matches, tuple(hard), tuple(borderline)


def test_verify_2020_against_oracle():
    matches, hard, borderline = independent_mismatches(2020)
    rep = verify_reference(2020)
    assert (rep.matches, rep.hard_mismatches, rep.borderline_mismatches) == (
        matches,
        hard,
        borderline,
    )
    assert rep.matches == 30
    assert rep.hard_mismatches == ("CZE",)
    assert rep.borderline_mismatches == ("ESP", "POL", "SVN")


def test_verify_2010_against_oracle():
    matches, hard, borderline = independent_mismatches(2010)
    rep = verify_reference(2010)
    assert (rep.matches, rep.hard_mismatches, rep.borderline_mismatches) == (
        matches,
        hard,
        borderline,
    )
    assert rep.hard_mismatches == ("CHL", "DEU", "GBR", "ISR", "JPN", "PRT")
    assert rep.borderline_mismatches == ("MEX", "NZL")


def test_epsilon_changes_flags_only():
    strict = verify_reference(2020, epsilon=0.0)
    loose = verify_reference(2020, epsilon=0.05)
    assert strict.matches == loose.matches
    assert [m.country for m in strict.mismatches] == [m.country for m in loose.mismatches]


def test_verify_is_repeatable():
    a = verify_reference(2020)
    b = verify_reference(2020)
    assert a == b


def test_unknown_epoch():
    with pytest.raises(DomainError):
        verify_reference(1999)


def test_published_values_classify_as_expected():
    fx = load_fixture()
    # the all-high leader and the lone mixed cluster-6 member, 2020
    che = classify(*(fx.index_value(2020, "CHE", p) for p in "FOI"))
    assert che.cluster_id == 8
    jpn = classify(*(fx.index_value(2020, "JPN", p) for p in "FOI"))
    assert jpn.cluster_id == 6
    hun = classify(*(fx.index_value(2020, "HUN", p) for p in "FOI"))
    assert hun.cluster_id == 3


def test_mismatch_is_borderline_only_when_every_disagreeing_pillar_is(monkeypatch):
    # computed HHL (7) against published LLL (1): F and O disagree; F lies
    # within epsilon of the threshold, O only in the second country
    indices = {"AAA": {"F": [4.02, 1], "O": [4.5, 1], "I": [3.0, 1]},
               "BBB": {"F": [4.02, 2], "O": [4.03, 2], "I": [3.0, 2]}}
    fx = ReferenceFixture(countries={"AAA": "A", "BBB": "B"}, indices={"2020": indices},
                          clusters={"2020": {"AAA": 1, "BBB": 1}}, factor_columns=(), factor_values={})
    monkeypatch.setattr("foi.reference.load_fixture", lambda: fx)
    rep = verify_reference(2020)
    assert (rep.hard_mismatches, rep.borderline_mismatches) == (("AAA",), ("BBB",))


# ---------------------------------------------------- the abstract's claims
# PAPER.md's abstract, checked against the published indices and clusters
# alone, under the fixed threshold rule (index >= t is high); README's
# "The abstract's claims against the fixture" states the same figures


def test_the_five_named_varieties_are_clusters_1_3_4_7_and_8():
    assert sorted(CLUSTER_LABELS) == [1, 3, 4, 7, 8]
    assert [CLUSTER_LEVELS[c] for c in sorted(CLUSTER_LABELS)] == [
        ("L", "L", "L"), ("L", "H", "L"), ("L", "H", "H"), ("H", "H", "L"), ("H", "H", "H"),
    ]


def _crossings(t):
    """Per pillar, the countries whose published index is on the other
    side of ``t`` in 2020 than in 2010."""
    fx = load_fixture()
    return {
        p: sum((fx.index_value(2010, c, p) >= t) != (fx.index_value(2020, c, p) >= t) for c in fx.countries)
        for p in "FOI"
    }


@pytest.mark.parametrize("t, want", [
    (3.9, {"F": 8, "O": 2, "I": 4}),
    (4.0, {"F": 8, "O": 3, "I": 6}),
    (4.05, {"F": 8, "O": 6, "I": 8}),
    (4.1, {"F": 8, "O": 6, "I": 8}),
])
def test_green_growth_cut_off_is_the_pillar_most_countries_cross(t, want):
    # "the most significant cut-off point ... was along the green growth
    # dimension", read as: F is the pillar whose side of t changes for
    # the most countries from 2010 to 2020. F leads at t <= 4.0 and ties
    # with I above it
    got = _crossings(t)
    assert got == want
    assert got["F"] == max(got.values())
    assert (got["F"] > got["I"]) == (t <= 4.0)


def test_estonia_leaves_the_middle_income_trap_by_any_reading():
    # 3 (Dualistic) -> 7 (Government-led), computed and published alike,
    # with every pillar at least 0.2 from the threshold
    fx = load_fixture()
    indices = {e: [fx.index_value(e, "EST", p) for p in "FOI"] for e in (2010, 2020)}
    assert [fx.cluster(e, "EST") for e in (2010, 2020)] == [3, 7]
    assert [classify(*indices[e]).cluster_id for e in (2010, 2020)] == [3, 7]
    assert min(abs(v - DEFAULT_THRESHOLD) for e in indices for v in indices[e]) >= 0.2


def test_israels_published_2010_cluster_is_not_the_one_its_indices_give():
    # published 3 -> 8, but its 2010 I of 4.1 makes it cluster 4: one of
    # verify's hard mismatches, so the 2010 half of the example rests on
    # a published cluster its published indices do not give
    fx = load_fixture()
    assert [fx.cluster(e, "ISR") for e in (2010, 2020)] == [3, 8]
    computed = [classify(*(fx.index_value(e, "ISR", p) for p in "FOI")).cluster_id for e in (2010, 2020)]
    assert computed == [4, 8]
    assert "ISR" in verify_reference(2010).hard_mismatches
    assert "ISR" not in {m.country for m in verify_reference(2020).mismatches}
