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

import operator
import sys
from math import comb

from .poly import packed_width, unpack_terms

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
        if operator.index(p) < 1:
            raise ValueError("multiplicities must be positive")


def _word_count(parts):
    """The number of Stirling words of content ``parts``; raise
    ``OverflowError`` when the compiled kernel's two level buffers for
    that word set (word count times word length bytes each) would not fit
    in ``sys.maxsize``."""
    count, length = 1, 0
    for mk in parts:
        count *= length + 1
        length += mk
    if 2 * count * length > sys.maxsize:
        raise OverflowError("the word set is too large to enumerate")
    return count


def words_of(parts):
    """All generalized Stirling words of the multiset ``{i^parts[i-1]}``.

    Built by inserting the block ``k^parts[k-1]`` into every gap of every
    word over the previous alphabet; returned as a lexicographically
    sorted list of packed words.
    """
    _check_parts(parts)
    _word_count(parts)
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
    # A word counts as distinct only when it is strictly greater than the
    # word before, as in the compiled kernel, which emits its order rather
    # than sorting: a duplicated or mis-ordered word makes distinct < total.
    return len(ws), 1 + sum(a < b for a, b in zip(ws, ws[1:]))


def _stirling_property(word, mult):
    """The first index at which ``word`` fails the nesting property, or
    -1 when it passes; the decision at index ``i`` reads only
    ``word[:i + 1]``."""
    # Stack of letters with more occurrences still to come; the stack is
    # strictly increasing, so any letter smaller than the top sits between
    # two occurrences of the top letter.
    stack = []
    seen = [0] * len(mult)
    for i, c in enumerate(word):
        if stack and stack[-1] == c:
            seen[c] += 1
            if seen[c] == mult[c]:
                stack.pop()
        else:
            if stack and stack[-1] > c:
                return i
            seen[c] = 1
            if mult[c] > 1:
                stack.append(c)
    return -1


def is_stirling(word, parts):
    """Content check against ``parts`` plus the nesting property."""
    _check_parts(parts)
    parts = tuple(parts)
    return _is_word_of(word, parts, (0, *parts), sum(parts))


def _is_word_of(word, parts, mult, total):
    """``is_stirling(word, parts)`` for a checked tuple ``parts``, with
    ``mult = (0, *parts)`` and ``total = sum(parts)``."""
    # with the length right, the counts of 1..n leave room for no other letter
    return (
        len(word) == total
        and tuple(map(word.count, range(1, len(mult)))) == parts
        and _stirling_property(word, mult) < 0
    )


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
    """Count Stirling words by deciding every multiset permutation.

    The permutations run in lexicographic order from the sorted one.  The
    scan that fails at index ``i`` reads only ``arr[:i + 1]``, so every
    permutation with that prefix fails too; they form one block, which
    ends when the suffix ``arr[i + 1:]`` is in descending order.  A
    failure sorts that suffix descending, so the next permutation leaves
    the block: the count stays exact.  Every permutation visited is a
    word or a (valid prefix, next letter) pair, so the visits number at
    most ``words * (1 + (total + 1) * letters)``, and the word set is
    refused where :func:`words_of` refuses it.  Every visit is scanned
    from index 0: this stays the from-scratch scan that the compiled
    kernel, which resumes at the first changed index, is checked against.
    """
    _check_parts(parts)
    _word_count(parts)
    arr = _sorted_letters(parts)
    if not arr:
        return 1
    mult = [0] * (len(parts) + 1)
    for k, mk in enumerate(parts, start=1):
        mult[k] = mk
    count = 0
    while True:
        i = _stirling_property(arr, mult)
        if i < 0:
            count += 1
        else:
            arr[i + 1 :] = sorted(arr[i + 1 :], reverse=True)
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
    # the letters that occur more than once, from one pass
    once, repeated = set(), set()
    for c in word:
        (repeated if c in once else once).add(c)
    seen = set()
    p = 0
    for i, c in enumerate(word, start=1):
        nx = word[i] if i < m else 0
        multiple = c in repeated
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


def _exponents(vector, length):
    """``vector`` as a tuple of exponents, checked as the compiled kernel
    checks it; ``length`` is the length it must have, or None."""
    vector = tuple(vector)
    if length is not None and len(vector) != length:
        raise ValueError("every rule must have one exponent per variable of start")
    vector = tuple(map(operator.index, vector))
    if vector and min(vector) < 0:
        raise ValueError("exponents must be nonnegative")
    return vector


def derive_chain(start, rules):
    """The terms of ``D_{r_n} ... D_{r_1}(x^start)`` as a ``{exponent
    tuple: coefficient}`` dict, where ``D_r = x^r * (sum of all partials)``
    is the grammar derivative in which every variable rewrites to the
    monomial ``x^r``.  Every rule has one exponent per variable of
    ``start``.

    An occurrence of variable ``v`` moves a term's exponent vector by
    ``r - e_v``.  The terms are kept on packed keys, one int with a field
    of ``bound.bit_length()`` bits per variable, where ``bound``, the sum
    of the exponents of ``start`` and of every rule, caps every exponent
    of every step: so ``e_v`` is read as ``key >> s & mask`` and the move
    is one addition.  Positive terms in give positive terms out, so
    nothing cancels; the terms come in order of first occurrence, each
    step reading the terms in order and the variables in order.  A bound
    past ``sys.maxsize`` raises ``OverflowError`` before any step.
    """
    start = _exponents(start, None)
    rules = [_exponents(r, len(start)) for r in rules]
    bound = sum(start) + sum(map(sum, rules))
    if bound > sys.maxsize:
        raise OverflowError("the degree bound is too large")
    width = packed_width(bound)
    mask, fields = (1 << width) - 1, [width * v for v in range(len(start))]
    terms = {sum(e << s for s, e in zip(fields, start)): 1}
    # per distinct rule r, (offset, packed r - e_v) for each variable v
    packed = {r: sum(e << s for s, e in zip(fields, r)) for r in dict.fromkeys(rules)}
    steps = {r: [(s, pr - (1 << s)) for s in fields] for r, pr in packed.items()}
    for r in rules:
        acc, step = {}, steps[r]
        for key, c in terms.items():
            for s, delta in step:
                e = key >> s & mask
                if e:
                    out = key + delta
                    acc[out] = acc.get(out, 0) + c * e
        terms = acc
    return unpack_terms(terms, len(start), width)


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


def _representatives(parts):
    """The Stirling words of content ``parts`` with ``sddes = fdesp = 0``,
    in lexicographic order, from a depth-first walk.

    Call a letter open when it is placed and has copies left.  A letter
    may come next exactly when it is at least every open letter, so the
    open letters form an increasing stack, and trying the letters in
    increasing order visits the words in order.  Both statistics are
    local: the window ``(p, c, nx)`` at an index is final once ``nx`` is
    placed, so a prefix is cut as soon as the letter placed after it
    shows a single double-descent or a free descent-plateau.  The walk
    is a loop, not a recursion over the word length.

    Once every letter has a copy placed, the rest of the word is forced:
    the open letters' copies, top first.  It shows no cut past the window
    at the last letter placed, since every letter in it is a later copy
    of a letter that occurs more than once, so it is written at once.
    """
    n, m = len(parts), sum(parts)
    mult = (0, *parts)
    left = list(mult)  # copies of each letter not yet placed
    word, first = bytearray(m), bytearray(m)  # first[i]: word[i] is a leftmost copy
    stack = [0]  # the open letters, over a floor of 0
    unseen = n  # letters with no copy placed
    d = a = 0  # letters placed; the letter last tried at depth d

    while True:
        # after word[:d], a letter below ``lo`` shows a single
        # double-descent at word[d - 1], and ``skip`` a free descent-plateau
        lo, skip = 0, -1
        if d >= 2 and word[d - 2] > word[d - 1]:
            c = word[d - 1]
            if mult[c] == 1:
                lo = c
            elif first[d - 1]:
                skip = c
        if not unseen:
            rest = b"".join(bytes([c]) * left[c] for c in reversed(stack))
            nx = rest[0] if rest else 0  # or the end sentinel
            if lo <= nx != skip:
                yield bytes(word[:d]) + rest
            a = -1  # back to the last letter placed
        else:
            # the next letter after ``a``: the top open letter, or a letter
            # above it with no copy placed
            t = stack[-1]
            a = max(a + 1, t, lo)
            while a <= n and (a == skip or a != t and left[a] != mult[a]):
                a += 1
        if 0 < a <= n:
            word[d], first[d] = a, left[a] == mult[a]
            left[a] -= 1
            if not left[a]:
                if not first[d]:
                    stack.pop()
            elif first[d]:
                stack.append(a)
            unseen -= first[d]
            d, a = d + 1, 0
            continue
        if not d:
            return
        # take back the last letter placed, and try the next one there
        d -= 1
        a = word[d]
        if not left[a]:
            if not first[d]:
                stack.append(a)
        elif first[d]:
            stack.pop()
        left[a] += 1
        unseen += first[d]


def gfs_scan(parts):
    """Check the hopping action orbit by orbit; ``None`` on a pass, or
    ``(check, word, letter)`` at the first failure: the name of the
    failed check, the packed word where it failed (``None`` only for the
    final ``cover``) and the letter whose hop failed (0 for a check of no
    single letter).

    The representatives come from :func:`_representatives`, and each
    leaf ``r`` of that walk is checked again before it is used, so a pass
    does not rest on the walk's cut:

    - ``closure``: ``r`` is a Stirling word of content ``parts`` (``r``);
    - its profile has ``sddes = fdesp = 0``, else ``r`` is skipped;
    - ``cover``: ``r`` comes strictly after the representative before it
      (``r``).

    A representative ``r``'s ``k`` moving letters ``x_0 < ... < x_(k-1)``
    are those not FIXED at ``r``, and its orbit is the array ``member``
    over the subsets ``S`` of them: ``member[0] = r``, and ``member[S]``
    hops the highest letter of ``S`` in ``member[S - top]``.  The scan
    visits the members in index order and hops every letter in each, so
    each member is built by the first hop that reaches it, and every
    later hop that reaches it must land on it.  In checking order, with
    the word and letter each failure names:

    - ``identity-ascpp``, ``identity-dasc``: the two identities at ``r``
      (``r``);
    - ``orbit-size``: ``k == dasc(r)`` (``r``);
    - ``cover``: the orbit sizes so far stay within the word count
      (``r``);
    - then, for each member ``member[S]``:

      - ``mdup-invariance``: it has the ``mdup`` of ``r`` (the member);
      - ``orbit-sum``: its ``asc - ascpp(r)`` lies in ``0..dasc`` and its
        ``asc + fplat + sdes`` is ``2 ascpp + dasc`` at ``r`` (``r``);
      - for each letter ``x`` in turn, the hop ``phi_x(member[S])``: when
        ``x`` is above every letter of ``S`` it builds ``member[S xor
        x]`` and must be a Stirling word of content ``parts``
        (``closure``); otherwise it must be ``member[S xor x]`` for a
        moving ``x`` and ``member[S]`` for a fixed one (``hop``, or
        ``closure`` when it is not a Stirling word).  Then ``toggle``:
        ``x`` is movable-left at the member exactly when it is a
        double-ascent value at the image.  Each names the member and
        ``x``;

    - ``orbit-sum``: ``x^asc y^(fplat+sdes)`` summed over the members is
      ``(xy)^ascpp (x+y)^dasc`` at ``r``, read as counts ``C(dasc, i)``
      at ``asc = ascpp + i`` (``r``);
    - ``unique-representative``: ``r`` is the only representative among
      the members, counted by index (``r``);
    - ``cover``, once at the end: the orbit sizes sum to the word count
      ``count_words(parts)`` (no word).

    The order matters only where several checks fail: a fault in an
    early member's hop is reported before an ``mdup`` fault at a later
    member, or a wrong orbit sum.

    A pass proves what whole-table checks of the action prove, on the
    set ``W`` of Stirling words of content ``parts``:

    - The representatives are distinct words of ``W`` with ``sddes =
      fdesp = 0``: each leaf was rechecked, and they come in strictly
      increasing order.
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
      sizes sum to ``count_words(parts)``, the size of ``W``.  So every
      word of ``W`` lies in the orbit of a representative the walk
      reached, whatever words the walk cut.
    - So each orbit of the group generated by the hops is one array, of
      size ``2^dasc(r)``, with exactly one representative, the two
      identities and the orbit sum.
    """
    _check_parts(parts)
    left = _word_count(parts)  # words not yet covered by an orbit
    parts = tuple(parts)
    n, mult, total, prev = len(parts), (0, *parts), sum(parts), None
    for r in _representatives(parts):
        if not _is_word_of(r, parts, mult, total):
            return "closure", r, 0
        prof = profile12(r)
        if prof[8] or prof[9]:
            continue
        if prev is not None and r <= prev:
            return "cover", r, 0
        prev = r
        asc, _, _, sdes, _, fplat, _, dasc, _, _, ascpp, mdup = prof
        if not asc - dasc == fplat + sdes == ascpp:
            return "identity-ascpp", r, 0
        if dasc != len(r) + 1 - mdup - 2 * ascpp:
            return "identity-dasc", r, 0
        # the value classes of every letter at each member, row 0 at r
        classes = [[classify_letter(r, x) for x in range(1, n + 1)]]
        bit, k = [0] * (n + 1), 0  # letter -> its bit in S, 0 for a fixed letter
        for x, cls in enumerate(classes[0], start=1):
            if cls != FIXED:
                bit[x], k = 1 << k, k + 1
        if k != dasc:
            return "orbit-size", r, 0
        size = 1 << dasc
        if size > left:
            return "cover", r, 0
        left -= size
        member, classes = [r] + [None] * (size - 1), classes + [None] * (size - 1)
        terms, reps = [0] * (dasc + 1), 0
        for s, v in enumerate(member):
            p = profile12(v) if s else prof
            if p[11] != mdup:
                return "mdup-invariance", v, 0
            i = p[0] - ascpp
            if p[0] + p[5] + p[3] != 2 * ascpp + dasc or not 0 <= i <= dasc:
                return "orbit-sum", r, 0
            terms[i] += 1
            reps += not (p[8] or p[9])
            for x, cls in enumerate(classes[s], start=1):
                t, image = s ^ bit[x], _hop(v, x, cls)
                if bit[x] > s:  # the first hop to reach member t builds it
                    if not _is_word_of(image, parts, mult, total):
                        return "closure", v, x
                    member[t] = image
                    classes[t] = [classify_letter(image, y) for y in range(1, n + 1)]
                elif image != member[t]:
                    return "hop" if _is_word_of(image, parts, mult, total) else "closure", v, x
                if (cls in _MOVABLE_LEFT) != (classes[t][x - 1] == DOUBLE_ASCENT):
                    return "toggle", v, x
        if terms != [comb(dasc, i) for i in range(dasc + 1)]:
            return "orbit-sum", r, 0
        if reps != 1:
            return "unique-representative", r, 0
    return ("cover", None, 0) if left else None
