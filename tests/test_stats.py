from dataclasses import asdict

import pytest

from stirlingperms import stats, words
from conftest import compositions_up_to

PAPER_WORD = (1, 5, 5, 6, 5, 3, 3, 3, 1, 2, 4, 4, 1, 1)


def test_worked_example_profile():
    p = stats.profile(PAPER_WORD)
    assert (p.asc, p.plat, p.des) == (5, 5, 5)
    assert (p.sdes, p.mdes) == (1, 4)
    assert (p.fplat, p.uplat) == (3, 2)
    assert (p.dasc, p.sddes, p.fdesp) == (2, 0, 1)
    # identity-consistent values (asc = dasc + ascpp, mdup+asc+fplat+sdes = m+1)
    assert p.ascpp == 3
    assert p.mdup == 6


def test_alphabet_word_index_sets():
    # 1,1,2,1,1: ascents at 0 and 2, plateaux at 1 and 4, descents at 3 and 5
    lab = stats.labeling((1, 1, 2, 1, 1))
    assert lab.labels == ("z", "yt", "z", "x", "y", "xt")
    p = stats.profile((1, 1, 2, 1, 1))
    assert (p.asc, p.plat, p.des) == (2, 2, 2)


def test_small_word_profile():
    p = stats.profile((1, 1, 2, 2))
    assert asdict(p) == {
        "asc": 2, "plat": 2, "des": 1,
        "sdes": 0, "mdes": 1, "fplat": 2, "uplat": 0,
        "dasc": 0, "sddes": 0, "fdesp": 0, "ascpp": 2, "mdup": 1,
    }


def test_worked_example_labeling():
    lab = stats.labeling(PAPER_WORD)
    assert lab.labels == (
        "z", "z", "yt", "z", "x", "xt", "yt", "y", "xt",
        "z", "z", "yt", "xt", "y", "xt",
    )
    assert lab.counts() == (1, 4, 3, 2, 5)  # (x, xt, yt, y, z)
    assert lab.to_string() == "zzYzxXYyXzzYXyX"


def test_labeling_small_and_empty():
    assert stats.labeling((1, 1, 2, 2)).labels == ("z", "yt", "z", "yt", "xt")
    assert stats.labeling(()).labels == ("z",)


@pytest.mark.parametrize("word", [[0], [-1, 2], [300, 1], [1, 0, 1]])
def test_labeling_refuses_what_profile_refuses(word):
    with pytest.raises(ValueError) as refused:
        stats.profile(word)
    with pytest.raises(ValueError) as labeled:
        stats.labeling(word)
    assert str(labeled.value) == str(refused.value)


def test_empty_word_profile():
    p = stats.profile(())
    assert (p.asc, p.plat, p.des) == (1, 0, 0)
    assert sum(asdict(p).values()) == 1


@pytest.mark.parametrize("parts", [p for p in compositions_up_to(6) if p])
def test_profile_identities(parts):
    # the empty word is exempt: its grammar-base convention asc=1 keeps
    # asc+plat+des = m+1 but not the pattern identities
    total = sum(parts)
    for w in words.enumerate_words(parts):
        p = stats.profile(w)
        assert p.asc + p.plat + p.des == total + 1
        assert p.des == p.sdes + p.mdes
        assert p.plat == p.fplat + p.uplat
        assert p.asc == p.dasc + p.ascpp
        assert p.mdup == p.mdes + p.uplat
        assert p.mdup + p.asc + p.fplat + p.sdes == total + 1


@pytest.mark.parametrize("parts", [p for p in compositions_up_to(6) if p])
def test_reversal_swaps_ascents_and_descents(parts):
    for w in words.enumerate_words(parts):
        p = stats.profile(w)
        r = stats.profile(w[::-1])
        assert (r.asc, r.des, r.plat) == (p.des, p.asc, p.plat)


@pytest.mark.parametrize("parts", compositions_up_to(6))
def test_labeling_matches_profile_multiset(parts):
    for w in words.enumerate_words(parts):
        p = stats.profile(w)
        assert stats.labeling(w).counts() == (p.sdes, p.mdes, p.fplat, p.uplat, p.asc)


@pytest.mark.parametrize("parts", compositions_up_to(6))
def test_lemma_equidistribution(parts):
    triple_lhs: dict = {}
    triple_rhs: dict = {}
    quint_lhs: dict = {}
    quint_rhs: dict = {}
    for w in words.enumerate_words(parts):
        p = stats.profile(w)
        k1 = (p.des, p.plat, p.asc)
        k2 = (p.fplat + p.sdes, p.mdup, p.asc)
        triple_lhs[k1] = triple_lhs.get(k1, 0) + 1
        triple_rhs[k2] = triple_rhs.get(k2, 0) + 1
        q1 = (p.sdes, p.mdes, p.fplat, p.uplat, p.asc)
        q2 = (p.sdes, p.fplat, p.mdes, p.uplat, p.asc)
        quint_lhs[q1] = quint_lhs.get(q1, 0) + 1
        quint_rhs[q2] = quint_rhs.get(q2, 0) + 1
    assert triple_lhs == triple_rhs
    assert quint_lhs == quint_rhs
