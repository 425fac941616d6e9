"""Words over the barred/unbarred alphabet and their reduction.

The alphabet for size n interleaves barred and unbarred letters,

    1b < 1 < 2b < 2 < ... < nb < n,

encoded by ranks ``r(kb) = 2k - 1`` and ``r(k) = 2k``.  The full
multiset carries each unbarred letter twice and each barred letter
once; a subset S of 1..n names barred letters to remove.  A valid word
keeps all letters between the two copies of an unbarred letter larger
than it (barred letters occur once, so the same nesting condition is
vacuous for them).

``present_ranks`` lists the surviving alphabet; ``m_of_s`` reads off
its multiplicity vector after collapsing it onto 1..(2n-|S|);
``compress`` performs that order-preserving collapse on a word, so
enumeration, statistics and the trivariate generating polynomials all
transport to the plain word machinery and back.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Iterable, Sequence

from ._backend import kernel
from .gamma import GammaTable, partial_gamma, s_poly
from .poly import MultiPoly
from .words import Composition, Word, pack_word, unpack_word

JWord = tuple[int, ...]  # rank-encoded letters


def _check_subset(n: int, subset: Iterable[int]) -> tuple[int, ...]:
    if n < 0:
        raise ValueError("n must be nonnegative")
    s = tuple(sorted(set(int(a) for a in subset)))
    if any(a < 1 or a > n for a in s):
        raise ValueError(f"subset {s} is not contained in 1..{n}")
    return s


def present_ranks(n: int, subset: Iterable[int]) -> list[tuple[int, int]]:
    """Surviving (rank, multiplicity) pairs in increasing rank order."""
    s = _check_subset(n, subset)
    out = []
    for k in range(1, n + 1):
        if k not in s:
            out.append((2 * k - 1, 1))
        out.append((2 * k, 2))
    return out


def m_of_s(n: int, subset: Iterable[int]) -> Composition:
    """Multiplicity vector of the surviving alphabet, read off
    :func:`present_ranks`: each doubled letter p carries 2, each
    once-occurring barred letter carries 1.

    >>> m_of_s(7, {1, 2, 5, 7})
    (2, 2, 1, 2, 1, 2, 2, 1, 2, 2)
    """
    return tuple(mult for _, mult in present_ranks(n, subset))


def compress(n: int, subset: Iterable[int], jword: Sequence[int]) -> Word:
    """Collapse ranks onto 1..(2n-|S|), preserving order."""
    ranks = [r for r, _ in present_ranks(n, subset)]
    mapping = {r: i + 1 for i, r in enumerate(ranks)}
    try:
        return tuple(mapping[r] for r in jword)
    except KeyError as exc:
        raise ValueError(f"rank {exc.args[0]} is not in the surviving alphabet") from None


def decompress(n: int, subset: Iterable[int], word: Sequence[int]) -> JWord:
    """Inverse of :func:`compress`."""
    ranks = [r for r, _ in present_ranks(n, subset)]
    try:
        return tuple(ranks[c - 1] for c in word)
    except IndexError:
        raise ValueError(f"word {tuple(word)} exceeds the surviving alphabet") from None


def is_jsp(n: int, subset: Iterable[int], jword: Sequence[int]) -> bool:
    """Content check plus the nesting condition on unbarred letters,
    written directly on the rank encoding."""
    s = _check_subset(n, subset)
    expected: dict[int, int] = {}
    for r, mult in present_ranks(n, s):
        expected[r] = mult
    counts: dict[int, int] = {}
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


def enumerate_jsp(n: int, subset: Iterable[int]) -> list[JWord]:
    """All valid words of the surviving multiset, by pulling the plain
    enumeration back through the rank collapse (lex order of the rank
    sequences)."""
    s = _check_subset(n, subset)
    parts = m_of_s(n, s)
    return [decompress(n, s, unpack_word(w)) for w in kernel.words_of(parts)]


def brute_jsp(n: int, subset: Iterable[int]) -> list[JWord]:
    """Independent oracle: filter raw multiset permutations of the rank
    multiset through :func:`is_jsp` (no collapse involved)."""
    s = _check_subset(n, subset)
    letters: list[int] = []
    for r, mult in present_ranks(n, s):
        letters.extend([r] * mult)
    seen = sorted(set(permutations(letters)))
    return [jw for jw in seen if is_jsp(n, s, jw)]


def jsp_stat_poly(n: int, subset: Iterable[int]) -> MultiPoly:
    """Sum of ``x^asc y^des z^plat`` over the valid words, with the
    statistics computed directly on the rank-encoded sequences."""
    s = _check_subset(n, subset)
    terms: dict[tuple[int, int, int], int] = {}
    for jw in enumerate_jsp(n, s):
        p = kernel.profile12(pack_word(jw))
        key = (p[0], p[2], p[1])
        terms[key] = terms.get(key, 0) + 1
    return MultiPoly(("x", "y", "z"), terms)


def level_subsets(n: int, size: int) -> list[tuple[int, ...]]:
    """Subsets of 1..n of the given size, in colex order."""
    return sorted(combinations(range(1, n + 1), size), key=lambda t: tuple(reversed(t)))


def jsp_level_poly(n: int, level: int) -> MultiPoly:
    """Aggregate of :func:`jsp_stat_poly` over all subsets of one size."""
    if not 0 <= level <= n:
        raise ValueError(f"level must lie in 0..{n}")
    out = MultiPoly.zero(("x", "y", "z"))
    for s in level_subsets(n, level):
        out = out + jsp_stat_poly(n, s)
    return out


@dataclass(frozen=True)
class ConjectureReport:
    """Per-level gamma tables for one alphabet size, plus the identity
    tying each level aggregate to the collapsed word polynomials.
    ``mismatch`` is the first subset (levels in order, colex within one)
    whose direct and collapsed polynomials differ, with both, or None."""

    n: int
    tables: tuple[GammaTable, ...]
    aggregation_ok: bool
    passed: bool
    detail: str
    mismatch: tuple[tuple[int, ...], MultiPoly, MultiPoly] | None

    def __bool__(self) -> bool:
        return self.passed


def verify_conjecture(n: int) -> ConjectureReport:
    """Every subset's word polynomial equals its collapsed ``s_poly``;
    for every level i, the aggregate of the subsets' polynomials equals
    the sum of the collapsed ones, and its gamma table is nonnegative.
    One pass: each subset's words are enumerated and profiled once."""
    if n < 1:
        raise ValueError("n must be at least 1")
    tables = []
    detail = ""
    aggregation_ok = True
    mismatch = None
    for level in range(n + 1):
        agg = via_collapse = MultiPoly.zero(("x", "y", "z"))
        for s in level_subsets(n, level):
            direct = jsp_stat_poly(n, s)
            collapsed = s_poly(m_of_s(n, s))
            if mismatch is None and direct != collapsed:
                mismatch = (s, direct, collapsed)
            agg = agg + direct
            via_collapse = via_collapse + collapsed
        if agg != via_collapse:
            aggregation_ok = False
            detail = f"level {level}: aggregate differs from collapsed sum"
        table = partial_gamma(agg)
        tables.append(table)
        if not table.positive and not detail:
            detail = f"level {level}: negative gamma coefficient"
    if mismatch is not None and not detail:
        detail = f"subset {list(mismatch[0])}: direct polynomial differs from collapsed"
    passed = mismatch is None and aggregation_ok and all(t.positive for t in tables)
    return ConjectureReport(n, tuple(tables), aggregation_ok, passed, detail, mismatch)


def format_jword(jword: Sequence[int]) -> str:
    """Text form with a ``b`` suffix for barred letters: ``"1b,1,1"``."""
    out = []
    for r in jword:
        k, parity = divmod(r, 2)
        out.append(f"{k}" if parity == 0 else f"{k + 1}b")
    return ",".join(out)


def parse_jword(text: str) -> JWord:
    """Inverse of :func:`format_jword`."""
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
