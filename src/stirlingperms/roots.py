"""Exact real-rootedness certificates.

Univariate polynomials carry big-integer coefficients; root counting is
one call of the kernel's ``sturm_walk``, which walks a Sturm chain of
sign-corrected pseudo-remainders with content stripped at every step,
keeping only lengths and leading signs, so no rationals or floats enter
the certification path.  ``is_real_rooted`` strips the factor ``x^lo``
first; the ``realroot`` command walks ``p`` itself and prints its chain
lengths.

A homogeneous bivariate polynomial with nonnegative coefficients is
stable exactly when its dehomogenization is real-rooted, so certifying
each ``s_mi`` real-rooted also certifies each z-slice of ``s_poly``
stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index
from typing import Iterable

from ._backend import kernel
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


def _need_unipoly(p, name: str) -> None:
    if not isinstance(p, UniPoly):
        raise TypeError(f"{name} needs a UniPoly, got {type(p).__name__}")


def is_real_rooted(p: UniPoly) -> bool:
    """True when every complex root is real, certified by the Sturm walk
    of ``p / x^lo`` for the lowest power ``x^lo`` in ``p``: zero is a
    real root, so ``p`` is real-rooted exactly when that quotient is."""
    _need_unipoly(p, "is_real_rooted")
    cs = p.coeffs
    if not cs:
        raise ValueError("the zero polynomial is excluded")
    lo = 0
    while not cs[lo]:
        lo += 1
    if len(cs) - lo < 3:  # a constant or linear quotient
        return True
    distinct, lengths = kernel.sturm_walk(cs[lo:])
    return distinct == lengths[0] - lengths[-1]


def is_palindromic(p: UniPoly) -> bool:
    """Coefficient symmetry across the window between the lowest and
    highest nonzero terms.

    >>> is_palindromic(UniPoly.of([0, 1, 1]))
    True
    """
    _need_unipoly(p, "is_palindromic")
    if p.is_zero():
        raise ValueError("the zero polynomial is excluded")
    lo = next(i for i, c in enumerate(p.coeffs) if c)
    window = p.coeffs[lo:]
    return window == tuple(reversed(window))


def _plateau_rows(parts: Composition, level: int | None = None) -> dict[int, list[int]]:
    """Descent-coefficient rows of the plateau levels that some word
    reaches (only ``level``, when given), in increasing level, from one
    projection of the joint histogram: ``rows[level][des]`` counts the
    words with that many plateaux and descents.  A row runs only to the
    highest descent count of its level."""
    rows: dict[int, list[int]] = {}
    for (plat, des), c in project_counts(parts, ("plat", "des")).items():
        if level is None or plat == level:
            row = rows.setdefault(plat, [])
            row += [0] * (des + 1 - len(row))
            row[des] += c
    return dict(sorted(rows.items()))


def s_mi(parts: Iterable[int], level: int) -> UniPoly:
    """Descent polynomial of the words with exactly ``level`` plateaux:
    sum of ``x^des`` over that slice of the word set."""
    parts = check_composition(parts)
    level = index(level)
    total = sum(parts)
    if not 0 <= level <= max(total - 1, 0):
        raise ValueError(f"plateau level must lie in 0..{max(total - 1, 0)}")
    return UniPoly.of(_plateau_rows(parts, level).get(level, ()))
