"""Exact real-rootedness certificates.

Univariate polynomials carry big-integer coefficients; root counting
walks a Sturm chain of sign-corrected pseudo-remainders with content
stripped at every step, keeping only lengths and leading signs, so no
rationals or floats enter the certification path.  ``is_real_rooted``
strips the factor ``x^lo`` first; the ``realroot`` command walks ``p``
itself and prints its chain lengths.

A homogeneous bivariate polynomial with nonnegative coefficients is
stable exactly when its dehomogenization is real-rooted, so certifying
each ``s_mi`` real-rooted also certifies each z-slice of ``s_poly``
stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import index
from typing import Iterable, Sequence

from .stats import project_counts
from .words import Composition, check_composition


@dataclass(frozen=True)
class UniPoly:
    """Integer polynomial ``c_0 + c_1 x + ...`` with no trailing zeros;
    the zero polynomial has an empty coefficient tuple."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        cs = tuple(map(index, self.coeffs))
        if cs and cs[-1] == 0:
            raise ValueError(f"trailing zero coefficient in {cs}; UniPoly.of strips them")
        object.__setattr__(self, "coeffs", cs)

    @classmethod
    def of(cls, coeffs: Iterable[int]) -> "UniPoly":
        """The polynomial with these coefficients, trailing zeros stripped."""
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        return cls(tuple(cs))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                mono = "x" if i == 1 else f"x^{i}"
                if c == 1:
                    parts.append(mono)
                elif c == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{c}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")


def _pseudo_rem(f: list[int], g: list[int]) -> list[int]:
    """Remainder of ``lc(g)^(deg f - deg g + 1) * f`` modulo ``g``, on
    coefficient lists with no trailing zeros."""
    r = list(f)
    d = len(g) - 1
    lg = g[-1]
    for top in range(len(f) - 1, d - 1, -1):
        # r <- lg * r - r[top] * x^(top - d) * g, which cancels r[top]
        q = r.pop()
        off = top - d
        for i in range(off):
            r[i] *= lg
        if q:
            for i in range(d):
                r[off + i] = r[off + i] * lg - q * g[i]
        else:
            for i in range(off, top):
                r[i] *= lg
    while r and r[-1] == 0:
        r.pop()
    return r


def _sturm_walk(coeffs: Sequence[int]) -> tuple[int, list[int]]:
    """Count of distinct real roots of a nonzero polynomial ``p``, and the
    coefficient count of each member of its Sturm chain.

    The count is the sign variations at minus infinity less those at plus
    infinity, read off each member's length and leading sign as it is
    built; only the last two members are kept.  The chain is the
    remainder sequence of ``p`` and ``p'``, so it ends at ``gcd(p, p')``,
    and every member is a multiple of that gcd, which changes no sign at
    either infinity.  So ``p`` needs no squarefree reduction, and all its
    roots are real exactly when the count is ``lengths[0] - lengths[-1]``,
    that is ``deg p - deg gcd``, the number of distinct complex roots.
    """
    f = list(coeffs)
    lengths = [len(f)]
    if len(f) < 2:
        return 0, lengths
    g = [i * c for i, c in enumerate(f)][1:]
    # the sign of each member at plus infinity, and at minus infinity,
    # where a member of odd degree (even length) flips it
    at_pos = f[-1] > 0
    at_neg = at_pos == len(f) % 2
    changes = 0
    while True:
        lengths.append(len(g))
        pos = g[-1] > 0
        neg = pos == len(g) % 2
        changes += (at_neg != neg) - (at_pos != pos)
        at_pos, at_neg = pos, neg
        if len(g) < 2:
            break
        r = _pseudo_rem(f, g)
        if not r:
            break
        # _pseudo_rem scaled f by lc(g)^(steps); divide by the content,
        # negated when that scale factor is positive, so the chain agrees
        # with the rational Sturm sequence up to positive multiples.
        # p and p' keep their contents: a positive factor moves no sign.
        d = gcd(*r)
        if g[-1] > 0 or (len(f) - len(g)) % 2:
            d = -d
        f, g = g, [c // d for c in r]
    return changes, lengths


def is_real_rooted(p: UniPoly) -> bool:
    """True when every complex root is real, certified by the Sturm walk
    of ``p / x^lo`` for the lowest power ``x^lo`` in ``p``: zero is a
    real root, so ``p`` is real-rooted exactly when that quotient is."""
    cs = p.coeffs
    if not cs:
        raise ValueError("the zero polynomial is excluded")
    lo = 0
    while not cs[lo]:
        lo += 1
    if len(cs) - lo < 3:  # a constant or linear quotient
        return True
    distinct, lengths = _sturm_walk(cs[lo:])
    return distinct == lengths[0] - lengths[-1]


def is_palindromic(p: UniPoly) -> bool:
    """Coefficient symmetry across the window between the lowest and
    highest nonzero terms.

    >>> is_palindromic(UniPoly.of([0, 1, 1]))
    True
    """
    if p.is_zero():
        raise ValueError("the zero polynomial is excluded")
    lo = next(i for i, c in enumerate(p.coeffs) if c)
    window = p.coeffs[lo:]
    return window == tuple(reversed(window))


def _plateau_rows(parts: Composition) -> list[list[int]]:
    """Descent-coefficient rows of every plateau level ``0..max(total-1, 0)``,
    from one projection of the joint histogram: ``rows[level][des]``
    counts the words with that many plateaux and descents.  A row runs
    only to the highest descent count of its level, so a level that no
    word reaches is empty."""
    rows: list[list[int]] = [[] for _ in range(max(sum(parts), 1))]
    for (plat, des), c in project_counts(parts, ("plat", "des")).items():
        row = rows[plat]
        row += [0] * (des + 1 - len(row))
        row[des] += c
    return rows


def s_mi(parts: Iterable[int], level: int) -> UniPoly:
    """Descent polynomial of the words with exactly ``level`` plateaux:
    sum of ``x^des`` over that slice of the word set."""
    parts = check_composition(parts)
    level = index(level)
    total = sum(parts)
    if not 0 <= level <= max(total - 1, 0):
        raise ValueError(f"plateau level must lie in 0..{max(total - 1, 0)}")
    return UniPoly.of(_plateau_rows(parts)[level])
