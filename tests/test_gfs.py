from itertools import combinations

import pytest

from stirlingperms import gfs, stats, words
from stirlingperms.gfs import ValueClass
from stirlingperms.poly import MultiPoly
from conftest import compositions_up_to, orbit_labels, per_word_hop_tables, power

PAPER_WORD = (1, 5, 5, 6, 5, 3, 3, 3, 1, 2, 4, 4, 1, 1)

X, Y = MultiPoly.var("x"), MultiPoly.var("y")


def test_classify_examples():
    assert gfs.classify_value(PAPER_WORD, 1) == ValueClass.DOUBLE_ASCENT
    assert gfs.classify_value(PAPER_WORD, 3) == ValueClass.FREE_DESCENT_PLATEAU
    assert gfs.classify_value(PAPER_WORD, 5) == ValueClass.FIXED
    # letter 6 occurs once but sits at a peak, so it is fixed too
    assert gfs.classify_value(PAPER_WORD, 6) == ValueClass.FIXED
    assert gfs.classify_value((3, 2, 1), 2) == ValueClass.SINGLE_DOUBLE_DESCENT
    with pytest.raises(ValueError):
        gfs.classify_value((1, 1), 3)


def test_phi_printed_examples():
    assert gfs.phi(PAPER_WORD, 1) == (5, 5, 6, 5, 3, 3, 3, 1, 1, 2, 4, 4, 1, 1)
    assert gfs.phi(PAPER_WORD, 3) == (1, 3, 5, 5, 6, 5, 3, 3, 1, 2, 4, 4, 1, 1)
    assert gfs.phi(PAPER_WORD, 2) == (1, 5, 5, 6, 5, 3, 3, 3, 1, 4, 4, 2, 1, 1)


def test_phi_set_example_and_order_independence():
    target = (3, 5, 5, 6, 5, 3, 3, 1, 1, 2, 4, 4, 1, 1)
    assert gfs.phi_set(PAPER_WORD, {1, 3}) == target
    assert gfs.phi(gfs.phi(PAPER_WORD, 3), 1) == target
    assert gfs.phi(gfs.phi(PAPER_WORD, 1), 3) == target
    assert gfs.phi_set(PAPER_WORD, ()) == PAPER_WORD


def test_orbit_examples():
    assert gfs.orbit((1, 2, 2, 1)) == [(1, 2, 2, 1), (2, 2, 1, 1)]
    assert gfs.orbit((1, 1, 2, 2)) == [(1, 1, 2, 2)]


def test_canonical_rep_examples():
    assert gfs.canonical_rep((2, 2, 1, 1)) == (1, 2, 2, 1)
    assert gfs.canonical_rep((1, 1, 2, 2)) == (1, 1, 2, 2)


@pytest.mark.parametrize(
    "call",
    [
        lambda: gfs.canonical_rep((1, 2, 1, 2)),
        lambda: gfs.orbit((1, 2, 1, 2)),
        lambda: gfs.phi((1, 3, 3, 1), 1),
        lambda: gfs.phi_set((1, 2, 1, 2), (1,)),
        lambda: gfs.classify_value((2, 1, 2), 2),
    ],
)
def test_non_stirling_words_are_rejected(call):
    with pytest.raises(ValueError):
        call()


NONEMPTY = [p for p in compositions_up_to(6) if p]


@pytest.mark.parametrize("parts", NONEMPTY)
def test_phi_closure_involution_commutation(parts):
    n = len(parts)
    word_set = set(words.enumerate_words(parts))
    for w in word_set:
        for x in range(1, n + 1):
            img = gfs.phi(w, x)
            assert img in word_set
            assert gfs.phi(img, x) == w
        for x, y in combinations(range(1, n + 1), 2):
            assert gfs.phi(gfs.phi(w, x), y) == gfs.phi(gfs.phi(w, y), x)


@pytest.mark.parametrize("parts", NONEMPTY)
def test_toggle_and_mdup_invariance(parts):
    n = len(parts)
    movable = (ValueClass.FREE_DESCENT_PLATEAU, ValueClass.SINGLE_DOUBLE_DESCENT)
    for w in words.enumerate_words(parts):
        for x in range(1, n + 1):
            img = gfs.phi(w, x)
            was_movable = gfs.classify_value(w, x) in movable
            assert was_movable == (gfs.classify_value(img, x) == ValueClass.DOUBLE_ASCENT)
            assert stats.profile(img).mdup == stats.profile(w).mdup
            # one hop round settles canonical_rep because of this
            for y in range(1, n + 1):
                if y != x:
                    assert gfs.classify_value(img, y) == gfs.classify_value(w, y)


def is_representative(word):
    """True when the word has sddes = fdesp = 0."""
    p = stats.profile(word)
    return p.sddes == 0 and p.fdesp == 0


def orbit_partition_by_search(parts):
    """The partition from one breadth-first ``orbit`` search per orbit,
    seeded at its least word, keyed by its first member that passes
    ``is_representative``."""
    seen, out = set(), {}
    for w in words.enumerate_words(parts):
        if w not in seen:
            orb = gfs.orbit(w)
            seen.update(orb)
            out[next(u for u in orb if is_representative(u))] = orb
    return sorted(out.items())


@pytest.mark.parametrize("parts", NONEMPTY)
def test_orbit_structure_and_identities(parts):
    total = sum(parts)
    covered = 0
    for rep, orb in orbit_partition_by_search(parts):
        assert orb == sorted(orb)
        covered += len(orb)
        assert len(orb) & (len(orb) - 1) == 0  # power of two
        reps = [w for w in orb if is_representative(w)]
        assert reps == [rep]
        p = stats.profile(rep)
        assert p.asc - p.dasc == p.fplat + p.sdes == p.ascpp
        assert p.dasc == total + 1 - p.mdup - 2 * p.ascpp
        for w in orb:
            assert gfs.canonical_rep(w) == rep
        lhs = MultiPoly.zero(("x", "y"))
        for w in orb:
            q = stats.profile(w)
            lhs = lhs + MultiPoly(("x", "y"), {(q.asc, q.fplat + q.sdes): 1})
        rhs = power(X * Y, p.ascpp) * power(X + Y, total + 1 - p.mdup - 2 * p.ascpp)
        assert lhs == rhs
    assert covered == words.count_words(parts)


@pytest.mark.parametrize("parts", NONEMPTY)
def test_rep_is_orbit_invariant(parts):
    n = len(parts)
    for w in words.enumerate_words(parts):
        rep = gfs.canonical_rep(w)
        for x in range(1, n + 1):
            assert gfs.canonical_rep(gfs.phi(w, x)) == rep


def test_phi_fixed_points():
    # every value of 1122 is an ascent-plateau or inside one: all fixed
    for x in (1, 2):
        assert gfs.phi((1, 1, 2, 2), x) == (1, 1, 2, 2)


@pytest.mark.parametrize("parts", compositions_up_to(6))
def test_orbit_partition_matches_orbit_search(parts):
    hop_words, phis, _ = per_word_hop_tables(parts)
    labels = orbit_labels(len(hop_words), phis)
    index = {tuple(w): i for i, w in enumerate(hop_words)}
    want = [0] * len(hop_words)
    for _, orb in orbit_partition_by_search(parts):
        for w in orb:
            want[index[w]] = index[orb[0]]
    assert labels == want
