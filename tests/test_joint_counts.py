"""The cached joint statistic histogram and every projection read from
it, checked against direct loops over the brute-force word oracle."""

from collections import Counter
from dataclasses import astuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stirlingperms import _pure, gamma, gfs, roots, stats, verify
from stirlingperms._backend import kernel
from stirlingperms.poly import MultiPoly
from stirlingperms.roots import UniPoly
from stirlingperms.words import pack_word
from conftest import compositions_up_to, oracle_words

SMALL = compositions_up_to(6)


def oracle_profiles(parts):
    return [astuple(stats.profile(w)) for w in oracle_words(parts)]


@given(st.sampled_from(SMALL))
@settings(max_examples=80, deadline=None)
def test_projections_match_oracle_loops(parts):
    profiles = oracle_profiles(parts)
    assert Counter(dict(stats.joint_counts(parts))) == Counter(profiles)
    assert gamma.triple_counts(parts) == Counter((p[0], p[2], p[1]) for p in profiles)
    combinatorial = Counter(
        (p[11], p[10]) for p in profiles if parts and p[8] == p[9] == 0
    )
    assert gamma.gamma_combinatorial(parts).entries == combinatorial
    total = sum(parts)
    for level in range(max(total, 1)):
        coeffs = [0] * (total + 2)
        for p in profiles:
            if p[1] == level:
                coeffs[p[2]] += 1
        assert roots.s_mi(parts, level) == UniPoly.of(coeffs)
    for _, left, right in verify._LEMMA_PAIRS:
        assert stats.project_counts(parts, left) == Counter(map(left, profiles))
        assert stats.project_counts(parts, right) == Counter(map(right, profiles))
    assert stats.project_counts(parts, verify._label_exponents) == Counter(
        map(verify._label_exponents, profiles)
    )
    assert verify.check_lemma(parts).passed
    assert verify.check_grammar(parts).passed


def test_returned_values_cannot_change_the_cache():
    parts = (2, 1, 2)
    first = stats.joint_counts(parts)
    with pytest.raises(TypeError):
        first[0] = ((0,) * 12, 1)
    with pytest.raises(TypeError):
        first[0][0][0] = 99
    triples = gamma.triple_counts(parts)
    triples.clear()
    stats.project_counts(parts, lambda p: p).clear()
    gamma.gamma_combinatorial(parts).entries.clear()
    assert stats.joint_counts(parts) == first
    assert Counter(dict(stats.joint_counts(parts))) == Counter(oracle_profiles(parts))
    assert gamma.triple_counts(parts) == Counter(
        (p[0], p[2], p[1]) for p in oracle_profiles(parts)
    )


def test_joint_counts_validates_the_composition():
    assert stats.joint_counts([2, 2]) is stats.joint_counts((2, 2))
    with pytest.raises(ValueError):
        stats.joint_counts((0, 2))


def test_orbit_sum_mismatch_reports_polynomials(monkeypatch):
    """Raising asc on every non-representative word keeps the checks
    before the orbit sum intact and breaks the sum itself, in the pure
    scan, which reads the skewed pure ``profile12``.  The payload names
    the representative, and the sum replays from its orbit."""
    real = _pure.profile12

    def skewed(w):
        p = real(w)
        if p[8] or p[9]:
            return (p[0] + 1,) + p[1:]
        return p

    for mod in {kernel, _pure}:
        monkeypatch.setattr(mod, "profile12", skewed)
    monkeypatch.setattr(kernel, "gfs_scan", _pure.gfs_scan)
    report = verify.check_gfs((2, 2))
    assert not report.passed
    assert report.counterexample == '{"kind": "orbit-sum", "m": [2, 2], "word": "1,2,2,1"}'
    # the per-word sum over the orbit of the named word misses the closed form
    rep = (1, 2, 2, 1)
    lhs = MultiPoly.zero(("x", "y"))
    for w in gfs.orbit(rep):
        p = skewed(pack_word(w))
        lhs = lhs + MultiPoly(("x", "y"), {(p[0], p[5] + p[3]): 1})
    p = skewed(pack_word(rep))
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    assert lhs != (x * y) ** p[10] * (x + y) ** p[7] == x * y * (x + y)
