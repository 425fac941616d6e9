"""The cached joint statistic histogram and every projection read from
it, checked against direct loops over the brute-force word oracle."""

import re
from collections import Counter
from dataclasses import astuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stirlingperms import _pure, gamma, gfs, roots, stats, verify
from stirlingperms._backend import kernel
from stirlingperms.poly import MultiPoly
from stirlingperms.roots import UniPoly
from stirlingperms.words import check_composition, pack_word
from conftest import compositions_up_to, oracle_words, power

SMALL = compositions_up_to(6)


def oracle_profiles(parts):
    return [stats.profile(w) for w in oracle_words(parts)]


@given(st.sampled_from(SMALL))
@settings(max_examples=80, deadline=None)
def test_projections_match_oracle_loops(parts):
    profiles = oracle_profiles(parts)
    assert Counter(dict(stats._joint_counts(check_composition(parts)))) == Counter(map(astuple, profiles))
    assert gamma.s_poly(parts).terms == Counter((p.asc, p.des, p.plat) for p in profiles)
    combinatorial = Counter(
        (p.mdup, p.ascpp) for p in profiles if parts and p.sddes == p.fdesp == 0
    )
    assert gamma.gamma_combinatorial(parts).entries == combinatorial
    total = sum(parts)
    for level in range(max(total, 1)):
        coeffs = [0] * (total + 2)
        for p in profiles:
            if p.plat == level:
                coeffs[p.des] += 1
        assert roots.s_mi(parts, level) == UniPoly.of(coeffs)
    for names, key in [
        (("des",), lambda p: p.des),
        (("des", "plat", "asc"), lambda p: (p.des, p.plat, p.asc)),
        (("fplat", "sdes", "mdup", "asc"), lambda p: (p.fplat, p.sdes, p.mdup, p.asc)),
        (("sdes", "mdes", "fplat", "uplat", "asc"), lambda p: (p.sdes, p.mdes, p.fplat, p.uplat, p.asc)),
        (("sdes", "fplat", "mdes", "uplat", "asc"), lambda p: (p.sdes, p.fplat, p.mdes, p.uplat, p.asc)),
        (("sdes", "mdes", "uplat", "fplat", "asc"), lambda p: (p.sdes, p.mdes, p.uplat, p.fplat, p.asc)),
    ]:
        assert stats.project_counts(parts, names) == Counter(map(key, profiles))
    assert verify.check_lemma(parts).passed
    assert verify.check_grammar(parts).passed


def test_label_statistics_count_the_labels():
    for parts in SMALL:
        for w in oracle_words(parts):
            p, counts = stats.profile(w), stats.labeling(w).counts()
            assert counts == tuple(getattr(p, stats.LABEL_STATS[s]) for s in stats.LABEL_SYMBOLS)


def test_project_counts_names_an_unknown_statistic():
    with pytest.raises(ValueError, match="^unknown statistic 'plateaux'$"):
        stats.project_counts((2, 2), ("des", "plateaux"))


def test_returned_values_cannot_change_the_cache():
    parts = (2, 1, 2)
    first = stats._joint_counts(check_composition(parts))
    with pytest.raises(TypeError):
        first[0] = ((0,) * 12, 1)
    with pytest.raises(TypeError):
        first[0][0][0] = 99
    stats.project_counts(parts, ("asc", "des", "plat")).clear()
    gamma.s_poly(parts).terms.clear()
    gamma.gamma_combinatorial(parts).entries.clear()
    assert stats._joint_counts(check_composition(parts)) == first
    assert Counter(dict(stats._joint_counts(check_composition(parts)))) == Counter(map(astuple, oracle_profiles(parts)))
    assert stats.project_counts(parts, ("asc", "des", "plat")) == Counter(
        (p.asc, p.des, p.plat) for p in oracle_profiles(parts)
    )


@pytest.mark.parametrize(
    "call",
    [
        gamma.s_poly,
        gamma.gamma_combinatorial,
        gamma.verify_theorem,
        lambda m: roots.s_mi(m, 0),
    ],
)
def test_bad_compositions_are_refused_before_the_table(call):
    for bad in [(0, 2), (2, -1), (2, 1.5), (1,) * 256]:
        with pytest.raises((TypeError, ValueError)) as expected:
            check_composition(bad)
        with pytest.raises(expected.type, match=f"^{re.escape(str(expected.value))}$"):
            call(bad)


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
    assert lhs != power(x * y, p[10]) * power(x + y, p[7]) == x * y * (x + y)
