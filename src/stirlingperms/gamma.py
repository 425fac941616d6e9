"""Gamma-basis expansion of the trivariate word polynomials.

``s_poly(m)`` is the exact sum of ``x^asc y^des z^plat`` over all
generalized Stirling words with content ``m``.  Its coefficient of
``z^i`` is a homogeneous polynomial symmetric in x and y, and therefore
expands uniquely over the basis ``(xy)^j (x+y)^(d-2j)``.  The expansion
coefficients are recovered by elimination on each slice's integer
coefficient row, every slice in one call of the kernel's
``gamma_table``, which also checks each slice homogeneous and symmetric
and the elimination free of residue; this module turns a failure into
its error.  The same table is produced purely combinatorially by
counting the words free of single double-descents and free
descent-plateaux, refined by (mdup, ascpp), and the two routes are
compared entry by entry.

Also houses the truncated-series checks tying the descent polynomials
of plain permutations and of doubled-letter words to the classical
power sums ``sum k^n t^k`` and ``sum S(n+k, k) t^k``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from ._backend import kernel
from .poly import MultiPoly, series_divide
from .stats import project_counts
from .words import check_composition


class NotHomogeneousError(ValueError):
    """Input polynomial has terms of different total degree."""


class NotSymmetricError(ValueError):
    """Input polynomial changes under swapping x and y."""


class InternalResidueError(ArithmeticError):
    """Elimination left a nonzero residue: an arithmetic bug, since a
    symmetric homogeneous input always expands exactly."""


@dataclass(frozen=True)
class GammaTable:
    """Map ``(i, j) -> gamma`` of nonzero expansion coefficients, with
    i the plateau level and j the gamma index."""

    degree: int
    entries: Mapping[tuple[int, int], int]
    positive: bool

    def entry(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)

    def sorted_items(self) -> list[tuple[tuple[int, int], int]]:
        return sorted(self.entries.items())

    def to_json_dict(self) -> dict:
        return {
            "degree": self.degree,
            "entries": [
                {"i": i, "j": j, "g": str(g)} for (i, j), g in self.sorted_items()
            ],
            "positive": self.positive,
        }

    def to_csv(self) -> str:
        lines = ["i,j,gamma"]
        lines.extend(f"{i},{j},{g}" for (i, j), g in self.sorted_items())
        return "\n".join(lines) + "\n"


def s_poly(parts: Iterable[int]) -> MultiPoly:
    """Sum of ``x^asc y^des z^plat`` over the word set.

    >>> print(s_poly((1, 1)))
    x^2*y + x*y^2
    """
    counts = project_counts(check_composition(parts), ("asc", "des", "plat"))
    return MultiPoly._canonical(("x", "y", "z"), counts)


def _need_multipoly(p, name: str) -> None:
    if not isinstance(p, MultiPoly):
        raise TypeError(f"{name} needs a MultiPoly, got {type(p).__name__}")


def _expand(p: MultiPoly, prefix: bool) -> tuple[int, dict[tuple[int, int], int]]:
    """``(degree, entries)`` of the kernel's ``gamma_table`` on ``p``.  A
    failing slice raises its error, formatted from that slice of
    :meth:`MultiPoly._z_buckets` (only on this path) and prefixed
    ``slice i=`` when ``prefix`` is set."""
    out = kernel.gamma_table(p.terms, *p._xyz())
    if not isinstance(out[0], str):
        return out
    check, i = out[0], out[1]
    head = f"slice i={i}: " if prefix else ""
    if check == "residue":
        raise InternalResidueError(f"{head}nonzero residue row {out[2]}")
    s = MultiPoly._canonical(("x", "y"), p._z_buckets()[i])
    if check == "homogeneous":
        raise NotHomogeneousError(f"{head}not homogeneous: {s}")
    raise NotSymmetricError(f"{head}not symmetric in x, y: {s}")


def gamma_expand(h: MultiPoly) -> list[int]:
    """Exact coefficients ``[g_0, ..., g_floor(d/2)]`` with
    ``h = sum_j g_j (xy)^j (x+y)^(d-2j)``.

    Requires ``h`` homogeneous and symmetric in x, y; any other variable
    may be listed but must not occur.  The one-slice case of
    :func:`partial_gamma`: ``h`` is its own ``z^0`` slice, read and
    expanded as each slice there is, without the ``slice i=`` prefix.
    """
    _need_multipoly(h, "gamma_expand")
    for evec in h.terms:
        for v, e in zip(h.vars, evec):
            if e and v not in ("x", "y"):
                raise ValueError(f"gamma_expand needs a polynomial in x, y; found {v}")
    degree, entries = _expand(h, False)
    return [entries.get((0, j), 0) for j in range(degree // 2 + 1)] if h.terms else []


def partial_gamma(p: MultiPoly) -> GammaTable:
    """Gamma table of a trivariate polynomial, one row per z-power.

    Each z-slice must be homogeneous in x, y (degrees may differ across
    slices) and symmetric; nonzero coefficients land in
    ``entries[(i, j)]`` and the table is flagged positive when all of
    them are nonnegative.  One kernel call, ``gamma_table``, reads and
    expands every slice in increasing i, as :func:`gamma_expand` expands
    its one slice, and an error names its slice (``slice i=``).
    """
    _need_multipoly(p, "partial_gamma")
    degree, entries = _expand(p, True)
    return GammaTable(degree, entries, all(g >= 0 for g in entries.values()))


def gamma_combinatorial(parts: Iterable[int]) -> GammaTable:
    """Gamma table counted directly: words with ``sddes = fdesp = 0``,
    tabulated by ``(mdup, ascpp)``."""
    parts = check_composition(parts)
    entries: dict[tuple[int, int], int] = {}
    # the empty word's ascpp = 0 sits outside the j >= 1 range of the
    # expansion, which starts from a nonempty multiset
    if parts:
        by_class = project_counts(parts, ("sddes", "fdesp", "mdup", "ascpp"))
        for (sddes, fdesp, mdup, ascpp), c in by_class.items():
            if sddes == fdesp == 0:
                entries[(mdup, ascpp)] = c
    return GammaTable(sum(parts) + 1, entries, True)


@dataclass(frozen=True)
class TheoremReport:
    """Comparison of the expansion-side and counting-side gamma tables."""

    parts: tuple[int, ...]
    expansion: GammaTable
    combinatorial: GammaTable
    passed: bool
    detail: str

    def __bool__(self) -> bool:
        return self.passed


def verify_theorem(parts: Iterable[int]) -> TheoremReport:
    """Check that the two gamma tables agree entrywise, with all entries
    nonnegative and every internal j = 0 coefficient equal to zero."""
    parts = check_composition(parts)
    if sum(parts) < 1:
        raise ValueError("the expansion statement needs a nonempty multiset")
    expansion = partial_gamma(s_poly(parts))
    combinatorial = gamma_combinatorial(parts)
    detail = ""
    if any(j == 0 for _, j in expansion.entries):
        bad = sorted((i, j) for (i, j) in expansion.entries if j == 0)
        detail = f"nonzero j=0 coefficient at {bad}"
    elif not expansion.positive:
        neg = sorted(k for k, g in expansion.entries.items() if g < 0)
        detail = f"negative coefficient at {neg}"
    elif dict(expansion.entries) != dict(combinatorial.entries):
        keys = sorted(set(expansion.entries) | set(combinatorial.entries))
        for key in keys:
            a, b = expansion.entry(*key), combinatorial.entry(*key)
            if a != b:
                detail = f"first mismatch at (i,j)={key}: expansion {a} vs count {b}"
                break
    return TheoremReport(parts, expansion, combinatorial, detail == "", detail)


def _stirling2_row(n: int, kmax: int) -> list[int]:
    """S(n, 0..kmax) by the triangle recurrence
    S(a, b) = S(a-1, b-1) + b * S(a-1, b)."""
    row = [1] + [0] * kmax
    for a in range(1, n + 1):
        new = [0] * (kmax + 1)
        for b in range(1, kmax + 1):
            new[b] = row[b - 1] + b * row[b]
        row = new
    return row


@dataclass(frozen=True)
class SeriesReport:
    """Outcome of one truncated generating-function identity check."""

    kind: str
    n: int
    order: int
    numerator: tuple[int, ...]
    expanded: tuple[int, ...]
    target: tuple[int, ...]
    passed: bool


def _descent_numerator(parts: tuple[int, ...]) -> list[int]:
    by_des = project_counts(parts, ("des",))
    return [by_des.get(k, 0) for k in range(max(by_des) + 1)]


def classical_series_check(kind: str, n: int, order: int) -> SeriesReport:
    """Verify a classical power-series identity at truncation ``order``.

    ``eulerian``: the descent polynomial A_n over plain permutations
    satisfies ``A_n(t) / (1-t)^(n+1) = sum_k k^n t^k``.

    ``second_order``: the descent polynomial C_n over doubled-letter
    words satisfies ``C_n(t) / (1-t)^(2n+1) = sum_k S(n+k, k) t^k`` with
    S the Stirling partition numbers.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if order < n + 2:
        raise ValueError("order must be at least n + 2")
    if kind == "eulerian":
        num = _descent_numerator((1,) * n)
        expanded = series_divide(num, n + 1, order)
        target = tuple(k**n for k in range(order + 1))
    elif kind == "second_order":
        num = _descent_numerator((2,) * n)
        expanded = series_divide(num, 2 * n + 1, order)
        target = tuple(
            _stirling2_row(n + k, k)[k] for k in range(order + 1)
        )
    else:
        raise ValueError(f"unknown series kind {kind!r}")
    return SeriesReport(
        kind, n, order, tuple(num), expanded, target, expanded == target
    )
