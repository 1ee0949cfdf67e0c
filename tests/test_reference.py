import pytest

from foi.classify import CLUSTER_LEVELS, classify
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
