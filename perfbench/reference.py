"""Stirling-word code of the benchmark's own, independent of the package.

It serves twice: the query oracle checks the package's answers with it,
and its fixed reference loop calibrates timings.  On CPUs shared with
other tenants, the same pass can take up to twice as long in one minute
as in the next, whatever the program does.  So every timed block is
bracketed by reference loops, and a measured time ``t`` is reported as
``t * REF_SECONDS / r``, with ``r`` the mean reference time over the run:
seconds on a host where the reference loop takes ``REF_SECONDS``.  A
change to the package cannot move ``r``.  Raw seconds are printed beside
the calibrated ones.

Imports nothing from ``stirlingperms``.
"""

from __future__ import annotations

from statistics import fmean
from time import perf_counter

#: The reference loop tabulates (asc, des, plat) over the 1,680 words of
#: this composition, about 4.5 ms on the host the baseline was taken on.
REF_PARTS = (1, 2, 1, 1, 1, 1)
REF_SECONDS = 0.0045
REF_REPEATS = 5


def words_of(m) -> list[tuple[int, ...]]:
    """Every word with content ``m``, by inserting each letter's block
    into every gap of every shorter word."""
    ws: list[tuple[int, ...]] = [()]
    for k, mk in enumerate(m, start=1):
        ws = [w[:g] + (k,) * mk + w[g:] for w in ws for g in range(len(w) + 1)]
    return ws


def is_stirling(w, m) -> bool:
    """Content ``m``, and every letter's occurrences enclose only larger letters."""
    if sorted(w) != [k for k, mk in enumerate(m, start=1) for _ in range(mk)]:
        return False
    for k in set(w):
        first, last = w.index(k), len(w) - 1 - w[::-1].index(k)
        if any(c < k for c in w[first:last]):
            return False
    return True


def triple(w) -> tuple[int, int, int]:
    """(asc, des, plat) with the sentinel 0 at both ends."""
    if not w:
        return 1, 0, 0
    padded = (0,) + tuple(w) + (0,)
    pairs = list(zip(padded, padded[1:]))
    asc = sum(a < b for a, b in pairs)
    des = sum(a > b for a, b in pairs)
    return asc, des, len(pairs) - asc - des


def rep_stats(w) -> tuple[int, int]:
    """(sddes, fdesp): single double descents and free descent-plateaux,
    zero exactly on an orbit's representative."""
    padded = (0,) + tuple(w) + (0,)
    sddes = fdesp = 0
    for i in range(1, len(w) + 1):
        p, c, nx = padded[i - 1], padded[i], padded[i + 1]
        if p > c > nx and w.count(c) == 1:
            sddes += 1
        if p > c == nx and w.index(c) == i - 1:
            fdesp += 1
    return sddes, fdesp


def histogram(m) -> dict[tuple[int, int, int], int]:
    """(asc, des, plat) -> number of words with content ``m``."""
    h: dict[tuple[int, int, int], int] = {}
    for w in words_of(m):
        key = triple(w)
        h[key] = h.get(key, 0) + 1
    return h


def reference_times(repeats: int = REF_REPEATS) -> list[float]:
    """Seconds taken by each of ``repeats`` runs of the reference loop."""
    out = []
    for _ in range(repeats):
        t0 = perf_counter()
        histogram(REF_PARTS)
        out.append(perf_counter() - t0)
    return out


def speed_factor(times: list[float]) -> float:
    """Multiplier from measured to calibrated seconds.  The mean, not the
    median: contention switches on and off many times a second, so a
    reference run is either fast or slow, and a block's time grows with
    the share of time contended, which the mean tracks."""
    return REF_SECONDS / fmean(times)
