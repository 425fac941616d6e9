"""Exact real-rootedness certificates and a stability falsifier.

Univariate polynomials carry big-integer coefficients; root counting
uses a Sturm chain built from sign-corrected pseudo-remainders with
content stripped at every step, so no rationals or floats enter the
certification path.  ``is_real_rooted`` certifies by comparing the
Sturm count of the squarefree part against its degree.

``stability_probe`` is the opposite of a certificate: it randomly
samples points with strictly positive imaginary parts (optionally
refining over a structured grid) looking for a zero, and can only ever
*refute* the nonvanishing property, never confirm it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .poly import MultiPoly
from .stats import project_counts
from .words import check_composition


@dataclass(frozen=True)
class UniPoly:
    """Integer polynomial ``c_0 + c_1 x + ...`` with no trailing zeros;
    the zero polynomial has an empty coefficient tuple."""

    coeffs: tuple[int, ...]

    @classmethod
    def of(cls, coeffs: Iterable[int]) -> "UniPoly":
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return cls(tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def derivative(self) -> "UniPoly":
        return UniPoly.of([i * c for i, c in enumerate(self.coeffs)][1:])

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


def _content(coeffs: Sequence[int]) -> int:
    from math import gcd

    g = 0
    for c in coeffs:
        g = gcd(g, c)
    return g or 1


def _primitive(p: UniPoly) -> UniPoly:
    if p.is_zero():
        return p
    g = _content(p.coeffs)
    return UniPoly(tuple(c // g for c in p.coeffs))


def _pseudo_rem(f: UniPoly, g: UniPoly) -> UniPoly:
    """Remainder of ``lc(g)^(deg f - deg g + 1) * f`` modulo ``g``."""
    r = list(f.coeffs)
    d = g.degree
    lg = g.leading()
    steps = f.degree - d + 1
    for _ in range(steps):
        r = [c * lg for c in r]
        if len(r) - 1 >= d and r[-1]:
            q = r[-1] // lg  # exact: r was just scaled by lg
            for i in range(d + 1):
                r[len(r) - 1 - d + i] -= q * g.coeffs[i]
        del r[-1]
    return UniPoly.of(r)


def _sturm_chain(p: UniPoly) -> list[UniPoly]:
    chain = [_primitive(p)]
    dered = _primitive(p.derivative())
    if not dered.is_zero():
        chain.append(dered)
        while True:
            f, g = chain[-2], chain[-1]
            if g.degree < 1:
                break
            r = _pseudo_rem(f, g)
            if r.is_zero():
                break
            # _pseudo_rem scaled f by lc(g)^(steps); flip the result's sign
            # only when that scale factor is positive, so the chain agrees
            # with the rational Sturm sequence up to positive multiples.
            steps = f.degree - g.degree + 1
            scale_positive = g.leading() > 0 or steps % 2 == 0
            r = _primitive(r)
            chain.append(
                UniPoly(tuple(-c for c in r.coeffs)) if scale_positive else r
            )
    return chain


def _sign_variations(signs: Sequence[int]) -> int:
    cleaned = [s for s in signs if s]
    return sum(1 for a, b in zip(cleaned, cleaned[1:]) if a * b < 0)


def sturm_real_roots(p: UniPoly) -> int:
    """Number of distinct real roots, by the sign-variation difference
    of the Sturm chain at minus and plus infinity.

    >>> sturm_real_roots(UniPoly.of([-1, 0, 1]))
    2
    """
    if p.is_zero():
        raise ValueError("the zero polynomial has no root count")
    if p.degree == 0:
        return 0
    chain = _sturm_chain(p)
    at_pos = [1 if f.leading() > 0 else -1 for f in chain]
    at_neg = [
        s if f.degree % 2 == 0 else -s for f, s in zip(chain, at_pos)
    ]
    return _sign_variations(at_neg) - _sign_variations(at_pos)


def _poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    a, b = _primitive(a), _primitive(b)
    if a.degree < b.degree:
        a, b = b, a
    while not b.is_zero():
        if b.degree == 0:
            return UniPoly((1,))
        r = _pseudo_rem(a, b)
        a, b = b, _primitive(r)
    if a.is_zero():
        return UniPoly((1,))
    if a.leading() < 0:
        a = UniPoly(tuple(-c for c in a.coeffs))
    return a


def _exact_div(a: UniPoly, b: UniPoly) -> UniPoly:
    """Quotient a / b, asserting exact division over the integers."""
    if b.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    rem = list(a.coeffs)
    out = [0] * max(a.degree - b.degree + 1, 0)
    while len(rem) - 1 >= b.degree and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < b.degree:
            break
        q, r = divmod(rem[-1], b.leading())
        if r:
            raise ArithmeticError(f"inexact polynomial division of {a} by {b}")
        k = len(rem) - 1 - b.degree
        out[k] = q
        for i in range(b.degree + 1):
            rem[k + i] -= q * b.coeffs[i]
    if any(rem):
        raise ArithmeticError(f"inexact polynomial division of {a} by {b}")
    return UniPoly.of(out)


def squarefree_part(p: UniPoly) -> UniPoly:
    """``p / gcd(p, p')`` after content removal."""
    if p.is_zero():
        raise ValueError("the zero polynomial has no squarefree part")
    pp = _primitive(p)
    if pp.degree == 0:
        return UniPoly((1,))
    g = _poly_gcd(pp, pp.derivative())
    return _primitive(_exact_div(pp, g))


def is_real_rooted(p: UniPoly) -> bool:
    """True when every complex root is real: the squarefree part must
    have as many distinct real roots as its degree."""
    if p.is_zero():
        raise ValueError("the zero polynomial is excluded")
    q = squarefree_part(p)
    if q.degree <= 0:
        return True
    return sturm_real_roots(q) == q.degree


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


def s_mi(parts: Iterable[int], level: int) -> UniPoly:
    """Descent polynomial of the words with exactly ``level`` plateaux:
    sum of ``x^des`` over that slice of the word set."""
    parts = check_composition(parts)
    total = sum(parts)
    if not 0 <= level <= max(total - 1, 0):
        raise ValueError(f"plateau level must lie in 0..{max(total - 1, 0)}")
    coeffs = [0] * (total + 2)
    for (plat, des), c in project_counts(parts, lambda p: (p[1], p[2])).items():
        if plat == level:
            coeffs[des] += c
    return UniPoly.of(coeffs)


# -- stability falsification probe -------------------------------------

#: Default sampling box: real parts in [-5, 5], imaginary parts in (0, 5].
DEFAULT_BOX = ((-5, 5), (0, 5))

_DYADIC = 2**12  # random samples are dyadic, so float conversion is lossless

#: Structured per-variable values tried in refine mode (re, im).
_GRID_RE = (-2, -1, 0, 1, 2)
_GRID_IM = (Fraction(1, 2), Fraction(1), Fraction(2))


@dataclass(frozen=True)
class ProbeHit:
    """A sampled point in the open upper product-space where the
    polynomial vanishes.

    The float evaluation with its rounding guard only nominates
    candidates; every reported hit is confirmed by exact rational
    arithmetic (sample points are dyadic, so this is lossless), which
    keeps boundary-hugging points with tiny-but-nonzero values from
    masquerading as zeros.  ``exact`` is therefore always True.
    """

    point: dict[str, tuple[Fraction, Fraction]]
    exact: bool
    residual_bound: float

    def point_str(self) -> str:
        return ", ".join(
            f"{v}={re}+{im}i" for v, (re, im) in sorted(self.point.items())
        )


def _cadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _cpow(a, e: int):
    out = (Fraction(1), Fraction(0))
    base = a
    while e:
        if e & 1:
            out = _cmul(out, base)
        base = _cmul(base, base)
        e >>= 1
    return out


def _eval_exact(p: MultiPoly, point: dict[str, tuple[Fraction, Fraction]]):
    total = (Fraction(0), Fraction(0))
    for evec, c in p.terms.items():
        term = (Fraction(c), Fraction(0))
        for v, e in zip(p.vars, evec):
            if e:
                term = _cmul(term, _cpow(point[v], e))
        total = _cadd(total, term)
    return total


def _eval_float(p: MultiPoly, point: dict[str, complex]) -> tuple[float, float]:
    """(|value|, rounding guard) at a complex point."""
    total = 0j
    magsum = 0.0
    for evec, c in p.terms.items():
        term = complex(c)
        mag = abs(float(c))
        for v, e in zip(p.vars, evec):
            if e:
                term *= point[v] ** e
                mag *= max(abs(point[v]), 1.0) ** e
        total += term
        magsum += mag
    ops = len(p.terms) + max(p.degree(), 0) + 2
    return abs(total), magsum * ops * 2.0**-52


def _to_complex(point: dict[str, tuple[Fraction, Fraction]]) -> dict[str, complex]:
    return {v: complex(float(re), float(im)) for v, (re, im) in point.items()}


def stability_probe(
    p: MultiPoly,
    trials: int,
    seed: int,
    refine: bool = False,
    box: tuple[tuple[int, int], tuple[int, int]] = DEFAULT_BOX,
) -> ProbeHit | None:
    """Hunt for a zero with every imaginary part strictly positive.

    Draws ``trials`` dyadic-rational points from ``box`` (seeded, so
    reproducible), flagging a point when the float value sits inside its
    rounding guard and confirming with exact rational arithmetic.  With
    ``refine=True`` a small structured grid of simple points is also
    evaluated exactly, followed by a local descent from the best sample
    with snap-to-rational retesting.  Returns the first hit, else None.
    A None result never certifies anything.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if p.is_zero():
        raise ValueError("the zero polynomial vanishes everywhere")
    (re_lo, re_hi), (im_lo, im_hi) = box
    if im_lo < 0 or im_hi <= im_lo:
        raise ValueError("imaginary box must sit in the upper half plane")
    rng = random.Random(seed)
    names = p.vars or ("x",)

    def check(point: dict[str, tuple[Fraction, Fraction]]) -> ProbeHit | None:
        val, guard = _eval_float(p, _to_complex(point))
        if val <= guard and _eval_exact(p, point) == (0, 0):
            return ProbeHit(dict(point), True, guard)
        return None

    def ratio(point: dict[str, complex]) -> float:
        val, guard = _eval_float(p, point)
        return val / guard if guard > 0 else float("inf")

    best: tuple[float, dict[str, tuple[Fraction, Fraction]]] | None = None
    for _ in range(trials):
        point = {}
        for v in names:
            re = Fraction(rng.randint(re_lo * _DYADIC, re_hi * _DYADIC), _DYADIC)
            im = Fraction(rng.randint(im_lo * _DYADIC + 1, im_hi * _DYADIC), _DYADIC)
            point[v] = (re, im)
        hit = check(point)
        if hit is not None:
            return hit
        r = ratio(_to_complex(point))
        if best is None or r < best[0]:
            best = (r, point)

    if not refine:
        return None

    grid_vals = [
        (Fraction(re), Fraction(im)) for re in _GRID_RE for im in _GRID_IM
    ]
    grid_points = [{}]
    for v in names:
        grid_points = [dict(pt, **{v: gv}) for pt in grid_points for gv in grid_vals]
    for point in grid_points:
        if _eval_exact(p, point) == (0, 0):
            _, guard = _eval_float(p, _to_complex(point))
            return ProbeHit(dict(point), True, guard)
        r = ratio(_to_complex(point))
        if best is None or r < best[0]:
            best = (r, point)

    # coordinate descent on the guard-normalized residual (scale-free,
    # so shrinking every value toward the boundary buys nothing),
    # retesting snapped rationals exactly
    assert best is not None
    coords = {v: [float(re), float(im)] for v, (re, im) in best[1].items()}
    im_floor = max(float(im_lo), 2.0**-10)
    step = 0.5
    for _ in range(200):
        improved = False
        val = ratio({v: complex(c[0], c[1]) for v, c in coords.items()})
        for v in names:
            for axis in (0, 1):
                for delta in (step, -step):
                    trial = {u: list(c) for u, c in coords.items()}
                    trial[v][axis] += delta
                    trial[v][1] = min(max(trial[v][1], im_floor), float(im_hi))
                    trial[v][0] = min(max(trial[v][0], float(re_lo)), float(re_hi))
                    tval = ratio({u: complex(c[0], c[1]) for u, c in trial.items()})
                    if tval < val:
                        coords, val, improved = trial, tval, True
        if not improved:
            step /= 2.0
            if step < 2.0**-20:
                break
    for den in (1, 2, 4, 8, 16, 32, 64):
        snapped = {
            v: (Fraction(round(c[0] * den), den), Fraction(round(c[1] * den), den))
            for v, c in coords.items()
        }
        if all(im > 0 for _, im in snapped.values()):
            if _eval_exact(p, snapped) == (0, 0):
                _, guard = _eval_float(p, _to_complex(snapped))
                return ProbeHit(snapped, True, guard)
    final = {
        v: (
            Fraction(round(c[0] * 2**20), 2**20),
            Fraction(max(round(c[1] * 2**20), 1), 2**20),
        )
        for v, c in coords.items()
    }
    return check(final)
