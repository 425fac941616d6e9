"""Words over the barred/unbarred alphabet and their reduction.

The alphabet for size n interleaves barred and unbarred letters,

    1b < 1 < 2b < 2 < ... < nb < n,

encoded by ranks ``r(kb) = 2k - 1`` and ``r(k) = 2k``.  The full
multiset carries each unbarred letter twice and each barred letter
once; a subset S of 1..n names barred letters to remove.  A valid word
keeps all letters between the two copies of an unbarred letter larger
than it (barred letters occur once, so the same nesting condition is
vacuous for them).

``present_ranks`` lists the surviving alphabet, and ``m_of_s`` reads
off its multiplicity vector after collapsing it onto 1..(2n-|S|).  The
collapse is strictly increasing, so the valid words are the plain words
of ``m_of_s`` read back as ranks, and every statistic (which compares
letters only) is the same on both sides: the trivariate polynomials are
the plain ones, read from the shared joint statistic table.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import index
from typing import Iterable, Sequence

from ._backend import kernel
from .gamma import GammaTable, partial_gamma, s_poly
from .poly import MultiPoly
from .words import Composition

JWord = tuple[int, ...]  # rank-encoded letters

#: Largest alphabet size: a word's ranks, up to 2n, are packed one per byte.
MAX_N = 127


def _integer(name: str, value: int) -> int:
    """``value`` through ``operator.index``; ValueError if it is not an
    integer."""
    try:
        return index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _check_n(n: int) -> int:
    n = _integer("n", n)
    if not 0 <= n <= MAX_N:
        raise ValueError(f"n must lie in 0..{MAX_N}")
    return n


def _check_subset(n: int, subset: Iterable[int]) -> tuple[int, ...]:
    n = _check_n(n)
    members = tuple(subset)
    try:
        s = tuple(sorted(set(map(index, members))))
    except TypeError:
        raise ValueError(f"subset {members} has a non-integer member") from None
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


def enumerate_jsp(n: int, subset: Iterable[int]) -> list[JWord]:
    """All valid words of the surviving multiset, in lex order: the plain
    words of :func:`m_of_s` read back through one translate table that
    sends the collapsed letter c to the c-th surviving rank."""
    pairs = present_ranks(n, subset)
    table = bytes([0, *(r for r, _ in pairs)]).ljust(256, b"\0")
    return [tuple(w.translate(table)) for w in kernel.words_of(tuple(m for _, m in pairs))]


def jsp_stat_poly(n: int, subset: Iterable[int]) -> MultiPoly:
    """Sum of ``x^asc y^des z^plat`` over the valid words.  The collapse
    onto :func:`m_of_s` is strictly increasing and the statistics compare
    letters only, so this is ``s_poly(m_of_s(n, subset))``."""
    return s_poly(m_of_s(n, subset))


def level_subsets(n: int, size: int) -> list[tuple[int, ...]]:
    """Subsets of 1..n of the given size, in colex order, for n in
    0..MAX_N and size in 0..n."""
    n, size = _check_n(n), _integer("size", size)
    if not 0 <= size <= n:
        raise ValueError(f"size must lie in 0..{n}")
    return sorted(combinations(range(1, n + 1), size), key=lambda t: tuple(reversed(t)))


def jsp_level_poly(n: int, level: int) -> MultiPoly:
    """Aggregate of :func:`jsp_stat_poly` over all subsets of one size."""
    n, level = _integer("n", n), _integer("level", level)
    if not 0 <= level <= n:
        raise ValueError(f"level must lie in 0..{n}")
    out = MultiPoly.zero(("x", "y", "z"))
    for s in level_subsets(n, level):
        out = out + jsp_stat_poly(n, s)
    return out


@dataclass(frozen=True)
class ConjectureReport:
    """Per-level gamma tables for one alphabet size."""

    n: int
    tables: tuple[GammaTable, ...]
    passed: bool
    detail: str

    def __bool__(self) -> bool:
        return self.passed


def verify_conjecture(n: int) -> ConjectureReport:
    """For every level i the aggregate of the subsets' polynomials has a
    nonnegative gamma table; ``detail`` names the first level that does
    not."""
    n = _integer("n", n)
    if n < 1:
        raise ValueError("n must be at least 1")
    tables = tuple(partial_gamma(jsp_level_poly(n, level)) for level in range(n + 1))
    bad = next((level for level, t in enumerate(tables) if not t.positive), None)
    detail = "" if bad is None else f"level {bad}: negative gamma coefficient"
    return ConjectureReport(n, tables, bad is None, detail)


def format_jword(jword: Sequence[int]) -> str:
    """Text form with a ``b`` suffix for barred letters: ``"1b,1,1"``."""
    out = []
    for r in jword:
        k, parity = divmod(r, 2)
        out.append(f"{k}" if parity == 0 else f"{k + 1}b")
    return ",".join(out)
