"""The letter-hopping involutions and their orbit structure.

For each letter x, the map phi_x moves the leftmost occurrence of x
between a double-ascent position and a free-descent-plateau or single
double-descent position (larger letters are hopped over; landing uses
strict ``<`` leftward and ``<=`` rightward).  The phi_x are commuting
involutions, so the subsets of letters act as a group of order 2^n on
each word set; every orbit contains exactly one word with no single
double-descents and no free descent-plateaux, and summing
``x^asc y^(fplat+sdes)`` over an orbit gives
``(xy)^ascpp (x+y)^(m+1-mdup-2*ascpp)`` evaluated at that word.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Iterable, Sequence

from ._backend import kernel
from .words import Word, check_composition, composition_of, pack_word, unpack_word


class ValueClass(IntEnum):
    """How a letter's leftmost occurrence sits in its window."""

    FIXED = 0
    FREE_DESCENT_PLATEAU = 1
    SINGLE_DOUBLE_DESCENT = 2
    DOUBLE_ASCENT = 3


#: Classes whose letters hop left; their images hop right.
MOVABLE_LEFT = (ValueClass.FREE_DESCENT_PLATEAU, ValueClass.SINGLE_DOUBLE_DESCENT)


def _pack_stirling(word: Sequence[int]) -> bytes:
    """Packed form of a generalized Stirling word; ValueError for any
    other word, on which the hops are not defined."""
    parts = check_composition(composition_of(word))
    packed = pack_word(word)
    if not kernel.is_stirling(packed, parts):
        raise ValueError(f"{tuple(word)} is not a generalized Stirling word")
    return packed


def classify_value(word: Sequence[int], x: int) -> ValueClass:
    """Value class of letter ``x`` in ``word``.

    >>> classify_value((1, 2, 2, 1), 1)
    <ValueClass.DOUBLE_ASCENT: 3>
    """
    return ValueClass(kernel.classify_letter(_pack_stirling(word), x))


def phi(word: Sequence[int], x: int) -> Word:
    """Apply the hop of letter ``x`` (identity on fixed letters)."""
    return unpack_word(kernel.phi_letter(_pack_stirling(word), x))


def phi_set(word: Sequence[int], letters: Iterable[int]) -> Word:
    """Compose the hops of a set of letters (order-independent)."""
    packed = _pack_stirling(word)
    for x in sorted(set(letters)):
        packed = kernel.phi_letter(packed, x)
    return unpack_word(packed)


def orbit(word: Sequence[int]) -> list[Word]:
    """Closure of a word under all letter hops, sorted."""
    start = _pack_stirling(word)
    letters = sorted(set(start))
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for w in frontier:
            for x in letters:
                img = kernel.phi_letter(w, x)
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return [unpack_word(w) for w in sorted(seen)]


def canonical_rep(word: Sequence[int]) -> Word:
    """The orbit element with no single double-descents and no free
    descent-plateaux.

    Hopping each movable-left letter once reaches it: a hop leaves the
    value class of every other letter unchanged.
    """
    cur = _pack_stirling(word)
    for x in sorted(set(cur)):
        if kernel.classify_letter(cur, x) in MOVABLE_LEFT:
            cur = kernel.phi_letter(cur, x)
    return unpack_word(cur)
