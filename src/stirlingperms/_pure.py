"""Pure-Python kernels.

This module is the reference implementation of the hot primitives; the
C module ``stirlingperms._core`` mirrors it function for function.
Both operate on *packed words*: a word is a ``bytes`` object whose byte
values are the letters (so letters are limited to 1..255), and a
multiplicity vector is a tuple of positive ints.  The boundary sentinel
is the value 0, which is smaller than every letter.

Statistic order returned by :func:`profile12`::

    (asc, plat, des, sdes, mdes, fplat, uplat, dasc, sddes, fdesp, ascpp, mdup)
"""

from __future__ import annotations

import sys
from math import comb

BACKEND_NAME = "pure"

# value classes for the hopping action
FIXED = 0
FREE_DESCENT_PLATEAU = 1
SINGLE_DOUBLE_DESCENT = 2
DOUBLE_ASCENT = 3
_MOVABLE_LEFT = (FREE_DESCENT_PLATEAU, SINGLE_DOUBLE_DESCENT)


def _check_parts(parts):
    if len(parts) > 255:
        raise ValueError("at most 255 distinct letters are supported")
    for p in parts:
        if p < 1:
            raise ValueError("multiplicities must be positive")


def _check_size(parts):
    """Raise ``OverflowError`` when the compiled kernel's two sort
    buffers for the word set of ``parts`` (word count times word length
    bytes each) would not fit in ``sys.maxsize``."""
    count, length = 1, 0
    for mk in parts:
        count *= length + 1
        length += mk
    if 2 * count * length > sys.maxsize:
        raise OverflowError("the word set is too large to enumerate")


def words_of(parts):
    """All generalized Stirling words of the multiset ``{i^parts[i-1]}``.

    Built by inserting the block ``k^parts[k-1]`` into every gap of every
    word over the previous alphabet; returned as a lexicographically
    sorted list of packed words.
    """
    _check_parts(parts)
    _check_size(parts)
    cur = [b""]
    for k, mk in enumerate(parts, start=1):
        block = bytes([k]) * mk
        nxt = []
        for w in cur:
            nxt.extend(w[:g] + block + w[g:] for g in range(len(w) + 1))
        cur = nxt
    cur.sort()
    return cur


def enum_counts(parts):
    """``(total, distinct)`` sizes of the insertion-construction output."""
    ws = words_of(parts)
    distinct = 0
    prev = None
    for w in ws:
        if w != prev:
            distinct += 1
            prev = w
    return len(ws), distinct


def _stirling_property(word, mult):
    # Stack of letters with more occurrences still to come; the stack is
    # strictly increasing, so any letter smaller than the top sits between
    # two occurrences of the top letter.
    stack = []
    seen = [0] * len(mult)
    for c in word:
        if stack and stack[-1] == c:
            seen[c] += 1
            if seen[c] == mult[c]:
                stack.pop()
        else:
            if stack and stack[-1] > c:
                return False
            seen[c] = 1
            if mult[c] > 1:
                stack.append(c)
    return True


def is_stirling(word, parts):
    """Content check against ``parts`` plus the nesting property."""
    _check_parts(parts)
    n = len(parts)
    if len(word) != sum(parts):
        return False
    mult = [0] * (n + 1)
    for c in word:
        if c < 1 or c > n:
            return False
        mult[c] += 1
    for k in range(1, n + 1):
        if mult[k] != parts[k - 1]:
            return False
    return _stirling_property(word, mult)


def _sorted_letters(parts):
    out = bytearray()
    for k, mk in enumerate(parts, start=1):
        out.extend([k] * mk)
    return out


def _next_permutation(a):
    m = len(a)
    i = m - 2
    while i >= 0 and a[i] >= a[i + 1]:
        i -= 1
    if i < 0:
        return False
    j = m - 1
    while a[j] <= a[i]:
        j -= 1
    a[i], a[j] = a[j], a[i]
    a[i + 1 :] = a[:i:-1]
    return True


def brute_count(parts):
    """Count Stirling words by filtering every multiset permutation."""
    _check_parts(parts)
    arr = _sorted_letters(parts)
    if not arr:
        return 1
    mult = [0] * (len(parts) + 1)
    for k, mk in enumerate(parts, start=1):
        mult[k] = mk
    count = 0
    while True:
        if _stirling_property(arr, mult):
            count += 1
        if not _next_permutation(arr):
            return count


def profile12(word):
    """The twelve comparison statistics of a packed word.

    Indices 0..m (sentinel value 0 at both ends) are classified as
    ascent/plateau/descent; the pattern statistics look at the window
    ``(w[i-1], w[i], w[i+1])`` for i in 1..m, which also classifies
    index i, so one pass does both.  A letter counts as multiple when it
    occurs more than once in the word itself.  The empty word is the
    grammar base case and counts one ascent.
    """
    m = len(word)
    if m == 0:
        return (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
    # index 0 compares the sentinel with word[0]
    asc, plat = (0, 1) if word[0] == 0 else (1, 0)
    des = sdes = mdes = fplat = uplat = 0
    dasc = sddes = fdesp = ascpp = mdup = 0
    seen = set()
    p = 0
    for i, c in enumerate(word, start=1):
        nx = word[i] if i < m else 0
        multiple = word.count(c) > 1
        leftmost = c not in seen
        seen.add(c)
        if c > nx:
            des += 1
            if multiple:
                mdes += 1
                mdup += 1
            else:
                sdes += 1
        elif c == nx:
            plat += 1
            if leftmost:
                fplat += 1
            if not (p > c and leftmost) and not p < c:
                uplat += 1
                mdup += 1
        else:
            asc += 1
        if p < c < nx:
            dasc += 1
        if p > c > nx and not multiple:
            sddes += 1
        if p > c == nx and leftmost:
            fdesp += 1
        if p < c and c >= nx:
            ascpp += 1
        p = c
    return (asc, plat, des, sdes, mdes, fplat, uplat, dasc, sddes, fdesp, ascpp, mdup)


def joint_hist(parts):
    """``(profile12 tuple, word count)`` pairs over ``words_of(parts)``,
    in order of first occurrence."""
    hist = {}
    for w in words_of(parts):
        p = profile12(w)
        hist[p] = hist.get(p, 0) + 1
    return tuple(hist.items())


def classify_letter(word, x):
    """Value class of letter ``x``: looks at the window around its
    leftmost occurrence (0 fixed, 1 free descent-plateau value, 2 single
    double-descent value, 3 double-ascent value)."""
    pos = word.find(x) if 0 <= x <= 255 else -1
    if pos < 0:
        raise ValueError(f"letter {x} does not occur in the word")
    p = word[pos - 1] if pos >= 1 else 0
    nx = word[pos + 1] if pos + 1 < len(word) else 0
    if p > x == nx:
        return FREE_DESCENT_PLATEAU
    if p > x > nx and word.count(x) == 1:
        return SINGLE_DOUBLE_DESCENT
    if p < x < nx:
        return DOUBLE_ASCENT
    return FIXED


def phi_letter(word, x):
    """One hop of the letter action: the leftmost occurrence of ``x``
    jumps left past larger letters (free descent-plateau / single
    double-descent value) or right past larger letters (double-ascent
    value); other letters are fixed points.

    Landing positions use strict ``<`` on the left and ``<=`` on the
    right, with the sentinels as final backstops.
    """
    return _hop(word, x, classify_letter(word, x))


def _hop(word, x, cls):
    """``phi_letter(word, x)`` given the value class ``cls`` of ``x``."""
    if cls == FIXED:
        return word
    m = len(word)
    l1 = word.find(x) + 1  # 1-based leftmost occurrence
    piece = bytes([x])
    if cls in (FREE_DESCENT_PLATEAU, SINGLE_DOUBLE_DESCENT):
        k = 0
        for a in range(l1 - 2, 0, -1):
            if word[a - 1] < x:
                k = a
                break
        return word[:k] + piece + word[k : l1 - 1] + word[l1:]
    k = m + 1
    for a in range(l1 + 2, m + 1):
        if word[a - 1] <= x:
            k = a
            break
    return word[: l1 - 1] + word[l1 : k - 1] + piece + word[k - 1 :]


def gfs_scan(parts):
    """Check the hopping action orbit by orbit; ``None`` on a pass, or
    ``(check, word, letter)`` at the first failure: the name of the
    failed check, the packed word where it failed (``None`` only for the
    final ``cover``) and the letter whose hop failed (0 for a check of no
    single letter).

    Every word ``r`` of ``words_of(parts)`` with ``sddes = fdesp = 0`` is
    a representative.  Its ``k`` moving letters ``x_0 < ... < x_(k-1)``
    are those not FIXED at ``r``, and its orbit is the array ``member``
    over the subsets ``S`` of them: ``member[0] = r``, and ``member[S]``
    hops the highest letter of ``S`` in ``member[S - top]``, so each
    letter hops at most once, in letter order.  In checking order, with
    the word and letter each failure names:

    - ``identity-ascpp``, ``identity-dasc``: the two identities at ``r``
      (``r``);
    - ``orbit-size``: ``k == dasc(r)`` (``r``);
    - ``cover``: the orbit sizes so far stay within the word count
      (``r``);
    - ``closure``: every member is a Stirling word of content ``parts``,
      that is, one of the sorted words (the member hopped, and the
      letter);
    - ``mdup-invariance``: every member has the ``mdup`` of ``r`` (the
      member);
    - ``orbit-sum``: ``x^asc y^(fplat+sdes)`` summed over the members is
      ``(xy)^ascpp (x+y)^dasc`` at ``r``, read as counts ``C(dasc, i)``
      at ``asc = ascpp + i`` (``r``);
    - ``unique-representative``: ``r`` is the only representative among
      the members, counted by index (``r``);
    - ``hop``: for every member ``member[S]`` and letter ``x``,
      ``phi_x(member[S])`` is ``member[S xor x]`` for a moving ``x``
      and ``member[S]`` for a fixed one, or ``closure`` when that image
      is not a Stirling word (the member, and ``x``);
    - ``toggle``: ``x`` is movable-left at the member exactly when it
      is a double-ascent value at that image (the member, and ``x``);
    - ``cover``, once at the end: the orbit sizes sum to the word count
      (no word).

    A pass proves what whole-table checks of the action prove, on the
    set ``W`` of Stirling words of content ``parts``:

    - The members are distinct: if ``member[S] = member[T]`` with
      ``S != T``, hopping the letters of ``S`` in both gives
      ``r = member[S xor T]``, a second representative.
    - Each orbit is closed: every hop of a member is a member, a Stirling
      word.  On it each ``phi_x`` acts as ``S -> S xor x`` (or the
      identity), so the hops are involutions and commute there, and every
      member reaches ``r``; the toggle and ``mdup`` invariance hold at
      every member.
    - Two orbits are disjoint: a common word would reach both
      representatives, which would then lie in one closed orbit with one
      representative.
    - The orbits cover ``W``: they are disjoint subsets of ``W`` whose
      sizes sum to ``count_words(parts)``, the size of ``W``.
    - So each orbit of the group generated by the hops is one array, of
      size ``2^dasc(r)``, with exactly one representative, the two
      identities and the orbit sum.
    """
    words = words_of(parts)
    stirling = set(words)
    n, m = len(parts), len(words[0])
    left = len(words)  # words not yet covered by an orbit
    covered = set()  # a representative among them would have failed its orbit
    for r in words:
        if r in covered:
            continue
        prof = profile12(r)
        if prof[8] or prof[9]:
            continue
        asc, _, _, sdes, _, fplat, _, dasc, _, _, ascpp, mdup = prof
        if not asc - dasc == fplat + sdes == ascpp:
            return "identity-ascpp", r, 0
        if dasc != m + 1 - mdup - 2 * ascpp:
            return "identity-dasc", r, 0
        # the value classes of every letter at each member, row 0 at r
        classes = [[classify_letter(r, x) for x in range(1, n + 1)]]
        moving = [x for x, cls in enumerate(classes[0], start=1) if cls != FIXED]
        bit = [0] * (n + 1)  # letter -> its bit in S, 0 for a fixed letter
        for j, x in enumerate(moving):
            bit[x] = 1 << j
        if len(moving) != dasc:
            return "orbit-size", r, 0
        if 1 << dasc > left:
            return "cover", r, 0
        left -= 1 << dasc
        member, terms, reps = [r], [0] * (dasc + 1), 0
        for s in range(1 << dasc):
            if s:
                top = s.bit_length() - 1
                src, x = s ^ 1 << top, moving[top]
                v = _hop(member[src], x, classes[src][x - 1])
                if v not in stirling:
                    return "closure", member[src], x
                p = profile12(v)
                member.append(v)
                classes.append([classify_letter(v, x) for x in range(1, n + 1)])
            else:
                v, p = r, prof
            if p[11] != mdup:
                return "mdup-invariance", v, 0
            i = p[0] - ascpp
            if p[0] + p[5] + p[3] != 2 * ascpp + dasc or not 0 <= i <= dasc:
                return "orbit-sum", r, 0
            terms[i] += 1
            reps += not (p[8] or p[9])
        if terms != [comb(dasc, i) for i in range(dasc + 1)]:
            return "orbit-sum", r, 0
        if reps != 1:
            return "unique-representative", r, 0
        covered.update(member)
        for s, v in enumerate(member):
            for x, cls in enumerate(classes[s], start=1):
                image, t = _hop(v, x, cls), s ^ bit[x]
                if image != member[t]:
                    return "hop" if image in stirling else "closure", v, x
                # the class at an image that is a member is that member's
                if (cls in _MOVABLE_LEFT) != (classes[t][x - 1] == DOUBLE_ASCENT):
                    return "toggle", v, x
    return ("cover", None, 0) if left else None
