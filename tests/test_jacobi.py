import json
from collections import Counter
from dataclasses import replace
from itertools import permutations

import pytest

from stirlingperms import _pure, gamma, jacobi, stats, verify
from stirlingperms.poly import MultiPoly
from stirlingperms.words import enumerate_words
from conftest import assert_canonical


def decompress(n, subset, word):
    """Ranks of a word over 1..(2n-|S|): the inverse of the
    order-preserving collapse of the surviving alphabet, read letter by
    letter (the oracle of the rank tables in ``jacobi``)."""
    ranks = [r for r, _ in jacobi.present_ranks(n, subset)]
    if not all(1 <= c <= len(ranks) for c in word):
        raise ValueError(f"word {tuple(word)} leaves the surviving alphabet 1..{len(ranks)}")
    return tuple(ranks[c - 1] for c in word)


def compress(n, subset, jword):
    """Collapse ranks onto 1..(2n-|S|), preserving order: the inverse of
    :func:`decompress`."""
    ranks = [r for r, _ in jacobi.present_ranks(n, subset)]
    mapping = {r: i + 1 for i, r in enumerate(ranks)}
    try:
        return tuple(mapping[r] for r in jword)
    except KeyError as exc:
        raise ValueError(f"rank {exc.args[0]} is not in the surviving alphabet") from None


def is_jsp(n, subset, jword):
    """Content check plus the nesting condition on unbarred letters,
    written directly on the rank encoding."""
    s = jacobi._check_subset(n, subset)
    expected = dict(jacobi.present_ranks(n, s))
    counts = {}
    for r in jword:
        counts[r] = counts.get(r, 0) + 1
    if counts != expected:
        return False
    jw = tuple(jword)
    for k in range(1, n + 1):
        r = 2 * k
        positions = [i for i, rank in enumerate(jw) if rank == r]
        lo, hi = positions[0], positions[-1]
        if any(jw[pos] < r for pos in range(lo + 1, hi)):
            return False
    return True


def brute_jsp(n, subset):
    """Independent oracle: filter raw multiset permutations of the rank
    multiset through :func:`is_jsp` (no collapse involved)."""
    s = jacobi._check_subset(n, subset)
    letters = []
    for r, mult in jacobi.present_ranks(n, s):
        letters.extend([r] * mult)
    seen = sorted(set(permutations(letters)))
    return [jw for jw in seen if is_jsp(n, s, jw)]


def parse_jword(text):
    """Inverse of ``jacobi.format_jword``."""
    text = text.strip()
    if not text:
        return ()
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        barred = tok.endswith("b")
        body = tok[:-1] if barred else tok
        if not body.isdigit() or int(body) < 1:
            raise ValueError(f"bad barred-word token {tok!r}")
        k = int(body)
        out.append(2 * k - 1 if barred else 2 * k)
    return tuple(out)


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
    assert compress(1, (), (1, 2, 2)) == (1, 2, 2)
    assert compress(1, (1,), (2, 2)) == (1, 1)
    # n=2, S={1}: ranks 2, 3, 4 collapse to 1, 2, 3
    assert compress(2, (1,), (2, 4, 4, 3, 2)) == (1, 3, 3, 2, 1)
    with pytest.raises(ValueError):
        compress(1, (1,), (1, 2, 2))  # rank 1 was removed

def test_compress_round_trip_and_stirling_preservation():
    for n in (1, 2):
        for s in all_subsets(n):
            for jw in jacobi.enumerate_jsp(n, s):
                word = compress(n, s, jw)
                assert decompress(n, s, word) == jw
                assert is_jsp(n, s, jw)

def test_decompress_rejects_letters_outside_the_alphabet():
    assert decompress(2, [], [1, 4]) == (1, 4)
    with pytest.raises(ValueError):
        decompress(2, [], [1, 0])  # letter 0 must not wrap to the last rank
    with pytest.raises(ValueError):
        decompress(1, (1,), (2,))  # one letter survives


@pytest.fixture(params=["imported", "pure"])
def jacobi_kernel(request, monkeypatch):
    """Run ``jacobi`` on the imported kernel, and again on the pure one,
    with the cached joint statistic table rebuilt on that kernel."""
    if request.param == "pure":
        monkeypatch.setattr(jacobi, "kernel", _pure)
        monkeypatch.setattr(stats, "kernel", _pure)
    stats._joint_counts.cache_clear()
    yield jacobi.kernel
    stats._joint_counts.cache_clear()


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_rank_tables_match_the_decompress_oracle(jacobi_kernel, n):
    """The translated words are the plain words decompressed one letter
    at a time, and the polynomial profiles exactly those rank words."""
    for s in all_subsets(n):
        expected = [decompress(n, s, w) for w in enumerate_words(jacobi.m_of_s(n, s))]
        assert jacobi.enumerate_jsp(n, s) == expected
        profiles = [_pure.profile12(bytes(jw)) for jw in expected]
        terms = Counter((p[0], p[2], p[1]) for p in profiles)
        poly = jacobi.jsp_stat_poly(n, s)
        assert_canonical(poly)
        assert poly == MultiPoly(("x", "y", "z"), terms)


@pytest.mark.parametrize("fn", [jacobi.m_of_s, jacobi.present_ranks, jacobi.enumerate_jsp, jacobi.jsp_stat_poly])
def test_subset_members_must_be_integers(fn):
    for bad in ([1.5], [1, "2"], [None]):
        with pytest.raises(ValueError):
            fn(3, bad)


@pytest.mark.parametrize("n", [-1, jacobi.MAX_N + 1])
def test_alphabet_size_must_fit_one_byte_per_rank(n):
    with pytest.raises(ValueError):
        jacobi.m_of_s(n, ())
    with pytest.raises(ValueError):
        jacobi.enumerate_jsp(n, ())


@pytest.mark.parametrize("bad", [1.5, "2", None])
@pytest.mark.parametrize(
    "call",
    [
        lambda n: jacobi.m_of_s(n, ()),
        lambda n: jacobi.present_ranks(n, ()),
        lambda n: jacobi.enumerate_jsp(n, ()),
        lambda n: jacobi.jsp_stat_poly(n, ()),
        jacobi.verify_conjecture,
        lambda n: jacobi.jsp_level_poly(n, 1),
        lambda n: jacobi.level_subsets(n, 1),
    ],
)
def test_alphabet_size_must_be_an_integer(call, bad):
    with pytest.raises(ValueError, match="^n must be an integer"):
        call(bad)


@pytest.mark.parametrize("bad", [1.5, "1", None])
def test_level_must_be_an_integer(bad):
    with pytest.raises(ValueError, match="^level must be an integer"):
        jacobi.jsp_level_poly(2, bad)
    with pytest.raises(ValueError, match="^size must be an integer"):
        jacobi.level_subsets(2, bad)


def test_integer_like_arguments_are_accepted():
    # operator.index accepts bools and other exact integer types
    assert jacobi.m_of_s(True, ()) == jacobi.m_of_s(1, ())
    assert jacobi.level_subsets(3, True) == [(1,), (2,), (3,)]


def test_largest_alphabet_is_accepted():
    n = jacobi.MAX_N
    assert jacobi.present_ranks(n, range(1, n + 1))[-1] == (2 * n, 2)
    assert jacobi.m_of_s(n, ()) == (1, 2) * n


def test_enumerate_examples():
    assert jacobi.enumerate_jsp(1, (1,)) == [(2, 2)]
    assert jacobi.enumerate_jsp(1, ()) == [(1, 2, 2), (2, 2, 1)]
    assert [jacobi.format_jword(j) for j in jacobi.enumerate_jsp(1, ())] == ["1b,1,1", "1,1,1b"]

@pytest.mark.parametrize("n", [1, 2, 3])
def test_enumerate_matches_brute_force(n):
    for s in all_subsets(n):
        words = brute_jsp(n, s)
        assert jacobi.enumerate_jsp(n, s) == words
        terms = Counter((p[0], p[2], p[1]) for p in (_pure.profile12(bytes(jw)) for jw in words))
        assert jacobi.jsp_stat_poly(n, s) == MultiPoly(("x", "y", "z"), terms)

def test_enumerate_count_matches_formula():
    from stirlingperms.words import count_words

    for n in (1, 2, 3):
        for s in all_subsets(n):
            assert len(jacobi.enumerate_jsp(n, s)) == count_words(jacobi.m_of_s(n, s))

def test_statistics_survive_collapse_wordwise():
    from stirlingperms import stats

    for n in (1, 2):
        for s in all_subsets(n):
            for jw in jacobi.enumerate_jsp(n, s):
                direct = stats.profile(jw)
                collapsed = stats.profile(compress(n, s, jw))
                assert (direct.asc, direct.des, direct.plat) == (collapsed.asc, collapsed.des, collapsed.plat)

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
    assert report.passed
    assert len(report.tables) == n + 1
    assert all(t.positive for t in report.tables)

def test_verify_conjecture_needs_a_nonempty_alphabet():
    with pytest.raises(ValueError, match="^n must be at least 1$"):
        jacobi.verify_conjecture(0)


def test_conjecture_report_is_truthy_exactly_when_it_passes():
    report = jacobi.verify_conjecture(1)
    assert report.passed and bool(report) is True
    assert bool(replace(report, passed=False)) is False


def test_check_jacobi_reports_a_negative_level(monkeypatch):
    real = jacobi.partial_gamma
    monkeypatch.setattr(jacobi, "partial_gamma", lambda p: replace(real(p), positive=False))
    report = verify.check_jacobi(2)
    assert not report.passed
    expected = {"n": 2, "detail": "level 0: negative gamma coefficient"}
    assert report.counterexample == json.dumps(expected, sort_keys=True)


def test_suite_reads_the_shared_table(jacobi_kernel, monkeypatch):
    """The suite profiles no word itself: it makes one ``joint_hist``
    call per distinct collapsed composition, through the cached table."""
    calls = Counter()

    class Counting:
        def __getattr__(self, name):
            def counted(*args):
                calls[name, args] += 1
                return getattr(jacobi_kernel, name)(*args)

            return counted

    for module in (jacobi, stats, verify):
        monkeypatch.setattr(module, "kernel", Counting())
    reports, _ = verify.verify_all(1, suites=("jacobi",))
    assert [r.passed for r in reports] == [True] * verify.JACOBI_MAX_N
    assert not any(name == "profile12" for name, _ in calls)
    sizes = range(1, verify.JACOBI_MAX_N + 1)
    collapsed = {jacobi.m_of_s(n, s) for n in sizes for s in all_subsets(n)}
    hists = {args[0]: k for (name, args), k in calls.items() if name == "joint_hist"}
    assert hists == dict.fromkeys(collapsed, 1)


def test_jword_text_round_trip():
    assert parse_jword("1b,1,1") == (1, 2, 2)
    assert jacobi.format_jword((1, 2, 2)) == "1b,1,1"
    assert parse_jword("") == ()
    for n in (1, 2):
        for s in all_subsets(n):
            for jw in jacobi.enumerate_jsp(n, s):
                assert parse_jword(jacobi.format_jword(jw)) == jw
    with pytest.raises(ValueError):
        parse_jword("1c,1")

def test_level_subsets_colex():
    assert jacobi.level_subsets(3, 2) == [(1, 2), (1, 3), (2, 3)]
    assert jacobi.level_subsets(3, 0) == [()]


@pytest.mark.parametrize(
    "n, size, text",
    [
        (-2, 1, f"n must lie in 0..{jacobi.MAX_N}"),
        (jacobi.MAX_N + 73, 1, f"n must lie in 0..{jacobi.MAX_N}"),
        (3, -1, "size must lie in 0..3"),
        (3, 4, "size must lie in 0..3"),
    ],
)
def test_level_subsets_checks_ranges(n, size, text):
    with pytest.raises(ValueError) as einfo:
        jacobi.level_subsets(n, size)
    assert str(einfo.value) == text
