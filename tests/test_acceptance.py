"""Acceptance suite: every exit criterion at its stated scale.

Each test prints one ``criterion-NN ...: PASS`` line (visible with
``pytest -rA`` or ``-s``); a failing assertion marks the criterion FAIL.
The stated time budgets are asserted where the criterion carries one.
"""

import time
from itertools import combinations, product

from stirlingperms import gamma, gfs, grammar, jacobi, roots, stats, verify, words
from stirlingperms._backend import kernel
from stirlingperms.cli import main
from stirlingperms.poly import MultiPoly

PAPER_WORD = (1, 5, 5, 6, 5, 3, 3, 3, 1, 2, 4, 4, 1, 1)


def _announce(num: int, name: str) -> None:
    print(f"criterion-{num:02d} {name}: PASS")


def _compositions_for_counting():
    seen = set(words.compositions_up_to(9))
    extra = []
    for n in range(1, 5):
        for parts in product((1, 2, 3), repeat=n):
            if parts not in seen:
                extra.append(parts)
    return sorted(seen, key=lambda c: (sum(c), tuple(reversed(c)))) + extra


def test_criterion_01_counting():
    t0 = time.perf_counter()
    for parts in _compositions_for_counting():
        total, distinct = kernel.enum_counts(parts)
        formula = words.count_words(parts)
        brute = kernel.brute_count(parts)
        assert total == distinct == formula == brute, parts
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"counting sweep took {elapsed:.1f}s"
    _announce(1, f"counting (total<=9 plus n<=4,parts<=3; {elapsed:.1f}s)")


def test_criterion_02_theorem():
    t0 = time.perf_counter()
    for parts in words.compositions_up_to(8, min_total=1):
        report = gamma.verify_theorem(parts)
        assert report.passed, (parts, report.detail)
        assert all(j >= 1 for (_, j) in report.expansion.entries)
        assert all(g >= 0 for g in report.expansion.entries.values())
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"theorem sweep took {elapsed:.1f}s"
    _announce(2, f"gamma expansion = representative counts (total<=8; {elapsed:.1f}s)")


def test_criterion_03_lemma_equidistribution():
    for parts in words.compositions_up_to(8):
        report = verify.check_lemma(parts)
        assert report.passed, report.counterexample
    _announce(3, "triple and quintuple equidistribution (total<=8)")


def test_criterion_04_grammar_claim():
    for parts in words.compositions_up_to(8):
        report = verify.check_grammar(parts)
        assert report.passed, report.counterexample
    # classical grammar against plain permutations, n <= 6
    X, Y = MultiPoly.var("x"), MultiPoly.var("y")
    assert grammar.dumont_poly(3) == X * X * X * Y + 4 * X * X * Y * Y + X * Y * Y * Y
    for n in range(1, 7):
        side = MultiPoly.zero(("x", "y"))
        for w in words.enumerate_words((1,) * n):
            p = stats.profile(w)
            side = side + MultiPoly(("x", "y"), {(p.asc, p.des): 1})
        assert grammar.dumont_poly(n) == side, n
    _announce(4, "grammar derivative = label polynomial (total<=8), classical n<=6")


def test_criterion_05_gfs_suite():
    assert gfs.phi(PAPER_WORD, 1) == (5, 5, 6, 5, 3, 3, 3, 1, 1, 2, 4, 4, 1, 1)
    assert gfs.phi(PAPER_WORD, 3) == (1, 3, 5, 5, 6, 5, 3, 3, 1, 2, 4, 4, 1, 1)
    assert gfs.phi(PAPER_WORD, 2) == (1, 5, 5, 6, 5, 3, 3, 3, 1, 4, 4, 2, 1, 1)
    t0 = time.perf_counter()
    for parts in words.compositions_up_to(8, min_total=1):
        report = verify.check_gfs(parts)
        assert report.passed, report.counterexample
    elapsed = time.perf_counter() - t0
    _announce(5, f"hopping-action properties (total<=8; {elapsed:.1f}s)")


def test_criterion_06_jacobi():
    assert jacobi.m_of_s(7, {1, 2, 5, 7}) == (2, 2, 1, 2, 1, 2, 2, 1, 2, 2)
    for n in (1, 2, 3):
        for size in range(n + 1):
            for s in combinations(range(1, n + 1), size):
                assert jacobi.jsp_stat_poly(n, s) == gamma.s_poly(jacobi.m_of_s(n, s))
        assert jacobi.verify_conjecture(n).passed, n
    _announce(6, "barred-alphabet polynomials and level positivity (n<=3)")


def test_criterion_07_realroot():
    t0 = time.perf_counter()
    for parts in words.compositions_up_to(8, min_total=1):
        for level in range(sum(parts)):
            p = roots.s_mi(parts, level)
            if p.is_zero():
                continue
            assert roots.is_real_rooted(p), (parts, level)
            assert roots.is_palindromic(p), (parts, level)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"realroot sweep took {elapsed:.1f}s"
    _announce(7, f"refined descent polynomials real-rooted (total<=8; {elapsed:.1f}s)")


def test_criterion_08_series():
    for kind in ("eulerian", "second_order"):
        for n in range(1, 5):
            assert gamma.classical_series_check(kind, n, 8).passed, (kind, n)
    _announce(8, "classical series identities (n<=4, K=8)")


def test_criterion_09_statistic_fidelity(capsys):
    p = stats.profile(PAPER_WORD)
    assert (p.dasc, p.sddes, p.fdesp) == (2, 0, 1)
    assert stats.labeling(PAPER_WORD).counts() == (1, 4, 3, 2, 5)
    assert (p.sdes, p.mdes, p.fplat, p.uplat, p.asc) == (1, 4, 3, 2, 5)
    assert (p.ascpp, p.mdup) == (3, 6)
    # the documented discrepancy is surfaced as an informational note
    code = main(["verify", "--suite", "series", "--max-total", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "ascpp=3" in out and "mdup=6" in out and "ascpp=4" in out
    _announce(9, "worked-example statistics and informational note")


def test_criterion_10_determinism(capsys):
    code1 = main(["verify", "--max-total", "6", "--jobs", "1"])
    out1 = capsys.readouterr().out
    code8 = main(["verify", "--max-total", "6", "--jobs", "8"])
    out8 = capsys.readouterr().out
    assert code1 == code8 == 0
    assert out1.encode() == out8.encode()
    _announce(10, "verify output byte-identical for jobs=1 and jobs=8")
