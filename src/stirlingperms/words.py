"""Multiplicity vectors and generalized Stirling words.

A *composition* is a tuple of positive multiplicities ``(m_1, ..., m_n)``
describing the multiset ``{1^m_1, ..., n^m_n}``.  A *word* is a tuple of
letters; it is a generalized Stirling word when every letter appearing
between two occurrences of ``k`` is larger than ``k``.  The empty
composition is allowed and owns the single empty word.

>>> enumerate_words((2, 2))
[(1, 1, 2, 2), (1, 2, 2, 1), (2, 2, 1, 1)]
>>> count_words((2, 2, 2))
15
"""

from __future__ import annotations

import operator
from typing import Iterable, Sequence

from ._backend import kernel

Composition = tuple[int, ...]
Word = tuple[int, ...]


def check_composition(parts: Iterable[int]) -> Composition:
    """Validate and normalize a multiplicity vector."""
    tup = tuple(map(operator.index, parts))
    if tup and min(tup) < 1:
        raise ValueError(f"multiplicities must be positive, got {tup}")
    if len(tup) > 255:
        raise ValueError("at most 255 distinct letters are supported")
    return tup


def pack_word(word: Iterable[int]) -> bytes:
    """Tuple-of-letters to the packed bytes form used by the kernels."""
    w = bytes(word)
    if 0 in w:
        raise ValueError("letters must be positive")
    return w


def unpack_word(packed: bytes) -> Word:
    return tuple(packed)


def is_stirling(word: Sequence[int], parts: Iterable[int]) -> bool:
    """True iff ``word`` has content ``parts`` and the Stirling nesting
    property; a content mismatch simply yields False."""
    parts = check_composition(parts)
    try:
        packed = pack_word(word)
    except ValueError:
        return False
    # a length mismatch is refused here, before parts too large for the
    # compiled kernel's sizes can reach it
    return len(packed) == sum(parts) and kernel.is_stirling(packed, parts)


def enumerate_words(parts: Iterable[int]) -> list[Word]:
    """Every generalized Stirling word with content ``parts``, in
    lexicographic order of letter sequences."""
    parts = check_composition(parts)
    return [tuple(w) for w in kernel.words_of(parts)]


def count_words(parts: Iterable[int]) -> int:
    """Closed-form size of the word set: the i-th block can land in
    ``1 + m_1 + ... + m_{i-1}`` gaps."""
    parts = check_composition(parts)
    count, placed = 1, 0
    for p in parts:
        count *= 1 + placed
        placed += p
    return count


def reverse_word(word: Sequence[int]) -> Word:
    """Sequence reversal; maps the word set onto itself."""
    return tuple(reversed(tuple(word)))


def composition_of(word: Sequence[int]) -> Composition:
    """Content vector of a word whose letters are exactly 1..n."""
    w = tuple(word)
    if not w:
        return ()
    if min(w) < 1:
        raise ValueError("letters must be positive")
    n = max(w)
    # n letters need a word of length >= n; checked before allocating n counts
    if n > len(w):
        raise ValueError("letters must cover 1..n without gaps")
    counts = [0] * n
    for c in w:
        counts[c - 1] += 1
    if 0 in counts:
        raise ValueError("letters must cover 1..n without gaps")
    return tuple(counts)


def format_word(word: Sequence[int]) -> str:
    """Canonical text form: comma-separated letters (empty word -> '')."""
    return ",".join(str(c) for c in word)


def parse_word(text: str) -> Word:
    """Parse comma-separated letters; a digits-only string is accepted
    as shorthand when every letter is a single digit."""
    text = text.strip()
    if not text:
        return ()
    if "," in text:
        try:
            letters = tuple(int(tok) for tok in text.split(","))
        except ValueError:
            raise ValueError(f"bad word {text!r}: letters must be integers") from None
    elif text.isdigit():
        letters = tuple(int(ch) for ch in text)
    else:
        raise ValueError(f"bad word {text!r}: use comma-separated letters or digits")
    if any(c < 1 for c in letters):
        raise ValueError(f"bad word {text!r}: letters must be positive")
    return letters


def parse_composition(text: str) -> Composition:
    """Parse ``"2,2,1"`` into a multiplicity vector."""
    text = text.strip()
    if not text:
        return ()
    try:
        parts = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"bad m-vector {text!r}: parts must be integers") from None
    return check_composition(parts)


def format_composition(parts: Sequence[int]) -> str:
    return ",".join(str(p) for p in parts)


def compositions_of(total: int) -> list[Composition]:
    """All compositions of ``total`` in colex order (compare the
    reversed part sequences lexicographically): by the last part, then
    the rest in colex order."""
    if total < 0:
        raise ValueError("total must be nonnegative")
    colex: list[list[Composition]] = [[()]]
    for t in range(1, total + 1):
        colex.append([rest + (last,) for last in range(1, t + 1) for rest in colex[t - last]])
    return colex[total]


def compositions_up_to(max_total: int, min_total: int = 0) -> list[Composition]:
    """Compositions with ``min_total <= total <= max_total``, grouped by
    total, colex within each total."""
    out: list[Composition] = []
    for t in range(min_total, max_total + 1):
        out.extend(compositions_of(t))
    return out
