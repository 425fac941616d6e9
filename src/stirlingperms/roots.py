"""Exact real-rootedness certificates.

Univariate polynomials carry big-integer coefficients; root counting
uses a Sturm chain built from sign-corrected pseudo-remainders with
content stripped at every step, so no rationals or floats enter the
certification path.  The chain of ``p`` ends at ``gcd(p, p')``, so
``is_real_rooted`` certifies from that one chain: its count of distinct
real roots must equal ``deg p - deg gcd(p, p')``, the number of
distinct complex roots.

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

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

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


def _primitive(cs: list[int]) -> list[int]:
    g = gcd(*cs)
    return cs if g == 1 else [c // g for c in cs]


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


def _sturm_chain(coeffs: Sequence[int]) -> list[list[int]]:
    """Sturm chain of a nonzero polynomial, as coefficient lists."""
    # The chain is the Euclidean remainder sequence of p and p', so it
    # ends at gcd(p, p') up to a constant factor.  Every member is a
    # multiple of that gcd, which changes no sign at minus or plus
    # infinity, so a p with repeated roots needs no squarefree reduction.
    chain = [_primitive(list(coeffs))]
    if len(coeffs) > 1:
        chain.append(_primitive([i * c for i, c in enumerate(coeffs)][1:]))
        while True:
            f, g = chain[-2], chain[-1]
            if len(g) < 2:
                break
            r = _pseudo_rem(f, g)
            if not r:
                break
            # _pseudo_rem scaled f by lc(g)^(steps); flip the result's sign
            # only when that scale factor is positive, so the chain agrees
            # with the rational Sturm sequence up to positive multiples.
            steps = len(f) - len(g) + 1
            scale_positive = g[-1] > 0 or steps % 2 == 0
            r = _primitive(r)
            chain.append([-c for c in r] if scale_positive else r)
    return chain


def _sturm_certificate(p: UniPoly) -> tuple[list[list[int]], int, bool]:
    """The Sturm chain of a nonzero ``p``, its count of distinct real
    roots, and whether every complex root is real.

    The count is the sign variations of the chain at minus infinity less
    those at plus infinity; its members are nonzero, so no sign is zero.
    The chain ends at ``gcd(p, p')``, so ``p`` has ``deg p - deg gcd``
    distinct complex roots, and all are real when the chain counts that
    many.
    """
    chain = _sturm_chain(p.coeffs)
    at_pos = [1 if f[-1] > 0 else -1 for f in chain]
    at_neg = [s if len(f) % 2 else -s for f, s in zip(chain, at_pos)]

    def variations(signs: list[int]) -> int:
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    distinct = variations(at_neg) - variations(at_pos)
    return chain, distinct, distinct == p.degree - (len(chain[-1]) - 1)


def sturm_real_roots(p: UniPoly) -> int:
    """Number of distinct real roots, by the sign-variation difference
    of the Sturm chain at minus and plus infinity.

    >>> sturm_real_roots(UniPoly.of([-1, 0, 1]))
    2
    """
    if p.is_zero():
        raise ValueError("the zero polynomial has no root count")
    return _sturm_certificate(p)[1]


def is_real_rooted(p: UniPoly) -> bool:
    """True when every complex root is real, certified by the Sturm
    chain of ``p``, which ends at ``gcd(p, p')``."""
    if p.is_zero():
        raise ValueError("the zero polynomial is excluded")
    return _sturm_certificate(p)[2]


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
    counts the words with that many plateaux and descents."""
    total = sum(parts)
    rows = [[0] * (total + 2) for _ in range(max(total, 1))]
    for (plat, des), c in project_counts(parts, ("plat", "des")).items():
        rows[plat][des] += c
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
