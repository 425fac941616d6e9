import json
from dataclasses import replace

import pytest

from stirlingperms import gamma, jacobi, verify
from stirlingperms.poly import MultiPoly

def all_subsets(n):
    for size in range(n + 1):
        yield from jacobi.level_subsets(n, size)

def test_m_of_s_examples():
    assert jacobi.m_of_s(7, {1, 2, 5, 7}) == (2, 2, 1, 2, 1, 2, 2, 1, 2, 2)
    assert jacobi.m_of_s(1, {1}) == (2,)
    assert jacobi.m_of_s(1, set()) == (1, 2)
    with pytest.raises(ValueError):
        jacobi.m_of_s(3, {4})
    with pytest.raises(ValueError):
        jacobi.m_of_s(3, {0})

def test_m_of_s_shape():
    for n in range(1, 5):
        for s in all_subsets(n):
            m = jacobi.m_of_s(n, s)
            assert len(m) == 2 * n - len(s)
            assert m.count(2) == n
            assert set(m) <= {1, 2}

def test_compress_examples():
    # n=1, S={}: surviving ranks 1 (barred), 2 (unbarred); identity collapse
    assert jacobi.compress(1, (), (1, 2, 2)) == (1, 2, 2)
    assert jacobi.compress(1, (1,), (2, 2)) == (1, 1)
    # n=2, S={1}: ranks 2, 3, 4 collapse to 1, 2, 3
    assert jacobi.compress(2, (1,), (2, 4, 4, 3, 2)) == (1, 3, 3, 2, 1)
    with pytest.raises(ValueError):
        jacobi.compress(1, (1,), (1, 2, 2))  # rank 1 was removed

def test_compress_round_trip_and_stirling_preservation():
    for n in (1, 2):
        for s in all_subsets(n):
            for jw in jacobi.enumerate_jsp(n, s):
                word = jacobi.compress(n, s, jw)
                assert jacobi.decompress(n, s, word) == jw
                assert jacobi.is_jsp(n, s, jw)

def test_enumerate_examples():
    assert jacobi.enumerate_jsp(1, (1,)) == [(2, 2)]
    assert jacobi.enumerate_jsp(1, ()) == [(1, 2, 2), (2, 2, 1)]
    assert [jacobi.format_jword(j) for j in jacobi.enumerate_jsp(1, ())] == ["1b,1,1", "1,1,1b"]

@pytest.mark.parametrize("n", [1, 2])
def test_enumerate_matches_brute_force(n):
    for s in all_subsets(n):
        assert jacobi.enumerate_jsp(n, s) == jacobi.brute_jsp(n, s)

def test_enumerate_count_matches_formula():
    from stirlingperms.words import count_words

    for n in (1, 2, 3):
        for s in all_subsets(n):
            assert len(jacobi.enumerate_jsp(n, s)) == count_words(jacobi.m_of_s(n, s))

@pytest.mark.parametrize("n", [1, 2, 3])
def test_poly_matches_collapsed_poly(n):
    for s in all_subsets(n):
        assert jacobi.jsp_stat_poly(n, s) == gamma.s_poly(jacobi.m_of_s(n, s))

def test_statistics_survive_collapse_wordwise():
    from stirlingperms import stats

    for n in (1, 2):
        for s in all_subsets(n):
            for jw in jacobi.enumerate_jsp(n, s):
                direct = stats.profile(jw)
                collapsed = stats.profile(jacobi.compress(n, s, jw))
                assert direct.triple() == collapsed.triple()

def test_level_examples():
    assert jacobi.jsp_level_poly(1, 0) == gamma.s_poly((1, 2))
    # removing every barred letter leaves the doubled alphabet
    assert jacobi.jsp_level_poly(2, 2) == gamma.s_poly((2, 2))
    assert jacobi.jsp_level_poly(3, 3) == gamma.s_poly((2, 2, 2))
    with pytest.raises(ValueError):
        jacobi.jsp_level_poly(2, 3)

@pytest.mark.parametrize("n", [1, 2, 3])
def test_verify_conjecture(n):
    report = jacobi.verify_conjecture(n)
    assert report.passed and report.aggregation_ok
    assert len(report.tables) == n + 1
    assert all(t.positive for t in report.tables)

def test_check_jacobi_reports_the_first_subset_mismatch(monkeypatch):
    """A polynomial skewed on every one-letter subset fails at the first
    of them, with the direct and collapsed polynomials as the payload."""
    real = jacobi.jsp_stat_poly
    bump = MultiPoly(("x", "y", "z"), {(0, 0, 9): 1})

    def skewed(n, s):
        p = real(n, s)
        return p + bump if len(tuple(s)) == 1 else p

    monkeypatch.setattr(jacobi, "jsp_stat_poly", skewed)
    report = jacobi.verify_conjecture(2)
    assert not report.passed and not report.aggregation_ok
    assert report.mismatch[0] == (1,)
    expected = {
        "n": 2,
        "subset": [1],
        "direct": (real(2, (1,)) + bump).to_json_dict(),
        "collapsed": gamma.s_poly((2, 1, 2)).to_json_dict(),
    }
    assert verify.check_jacobi(2).counterexample == json.dumps(expected, sort_keys=True)


def test_check_jacobi_reports_a_negative_level(monkeypatch):
    real = jacobi.partial_gamma
    monkeypatch.setattr(jacobi, "partial_gamma", lambda p: replace(real(p), positive=False))
    report = verify.check_jacobi(2)
    assert not report.passed
    expected = {"n": 2, "detail": "level 0: negative gamma coefficient"}
    assert report.counterexample == json.dumps(expected, sort_keys=True)


def test_jword_text_round_trip():
    assert jacobi.parse_jword("1b,1,1") == (1, 2, 2)
    assert jacobi.format_jword((1, 2, 2)) == "1b,1,1"
    assert jacobi.parse_jword("") == ()
    for n in (1, 2):
        for s in all_subsets(n):
            for jw in jacobi.enumerate_jsp(n, s):
                assert jacobi.parse_jword(jacobi.format_jword(jw)) == jw
    with pytest.raises(ValueError):
        jacobi.parse_jword("1c,1")

def test_level_subsets_colex():
    assert jacobi.level_subsets(3, 2) == [(1, 2), (1, 3), (2, 3)]
    assert jacobi.level_subsets(3, 0) == [()]
