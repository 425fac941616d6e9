"""Substitution grammars and their formal derivative.

A grammar maps each variable to a polynomial; its derivative D acts on
polynomials by linearity and the Leibniz rule, replacing one variable
occurrence at a time:

    D(prod v^e_v) = sum_v e_v * v^(e_v - 1) * rule(v) * prod_{u != v} u^e_u

Two families are built here.  The block-insertion grammar of order k
rewrites every one of the five labeling variables to ``x*z`` (k = 1) or
``xt*yt*y^(k-2)*z`` (k >= 2); composing the derivatives for the parts of
a multiplicity vector, starting from ``z``, produces the joint
generating polynomial of (sdes, mdes, fplat, uplat, asc) over the word
set.  The classical two-variable grammar ``{x -> xy, y -> xy}``
generates the bivariate ascent/descent polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping

from .poly import MultiPoly, packed_width, unpack_terms
from .words import check_composition

QUINTUPLE_VARS = ("x", "xt", "y", "yt", "z")


class MissingRuleError(KeyError):
    """A polynomial uses a variable the grammar does not rewrite."""

    def __init__(self, var: str):
        super().__init__(var)
        self.var = var

    def __str__(self) -> str:
        return f"no substitution rule for variable {self.var!r}"


@dataclass(frozen=True)
class Grammar:
    """Substitution rules, closed under the variables they produce."""

    rules: Mapping[str, MultiPoly]

    def __post_init__(self):
        for v, rhs in self.rules.items():
            for evec in rhs.terms:
                for u, e in zip(rhs.vars, evec):
                    if e and u not in self.rules:
                        raise MissingRuleError(u)

    def rule(self, var: str) -> MultiPoly:
        try:
            return self.rules[var]
        except KeyError:
            raise MissingRuleError(var) from None


def derive(g: Grammar, p: MultiPoly) -> MultiPoly:
    """One formal derivative of ``p`` under the grammar: the sum over the
    variables ``v`` that occur of ``rule(v)`` times the partial derivative
    of ``p`` in ``v``.  Rules are looked up in the order the variables
    first occur in ``p.terms``, so the first missing one raises.

    >>> d = dumont_grammar()
    >>> print(derive(d, MultiPoly.var("x")))
    x*y
    """
    partials: dict[int, dict[tuple[int, ...], int]] = {}
    for evec, c in p.terms.items():
        for pos, e in enumerate(evec):
            if e:
                partials.setdefault(pos, {})[evec[:pos] + (e - 1,) + evec[pos + 1 :]] = c * e
    out = MultiPoly.zero(p.vars)
    for pos, partial in partials.items():
        out = out + MultiPoly._canonical(p.vars, partial) * g.rule(p.vars[pos])
    return out


def _label_monomial(k: int) -> tuple[int, ...]:
    """Exponents over QUINTUPLE_VARS of the monomial ``r_k`` that every
    labeling variable rewrites to: ``x*z`` for k = 1, else
    ``xt*yt*y^(k-2)*z``."""
    return (1, 0, 0, 0, 1) if k == 1 else (0, 1, k - 2, 1, 1)


def gk(k: int) -> Grammar:
    """The block-insertion grammar of order ``k >= 1``: all five
    labeling variables rewrite to the same monomial."""
    if k < 1:
        raise ValueError("grammar order must be a positive integer")
    rhs = MultiPoly(QUINTUPLE_VARS, {_label_monomial(k): 1})
    return Grammar({v: rhs for v in QUINTUPLE_VARS})


def dumont_grammar() -> Grammar:
    """The classical grammar {x -> xy, y -> xy}."""
    xy = MultiPoly(("x", "y"), {(1, 1): 1})
    return Grammar({"x": xy, "y": xy})


def dumont_poly(n: int) -> MultiPoly:
    """n-th derivative of ``x`` under the classical grammar: the
    bivariate ascent/descent polynomial of plain permutations.  Both
    variables rewrite to ``xy``, so each step is the uniform derivative
    ``xy*(d/dx + d/dy)``."""
    if n < 0:
        raise ValueError("derivative count must be nonnegative")
    if not n:
        return MultiPoly.var("x")
    width = packed_width(n + 1)  # each step raises the degree by one
    steps, mask = _steps((1, 1), width), (1 << width) - 1
    terms = {1: 1}  # x
    for _ in range(n):
        terms = _derive_uniform(terms, steps, mask)
    return MultiPoly._canonical(("x", "y"), unpack_terms(terms, 2, width))


@lru_cache(maxsize=1024)
def _steps(monomial: tuple[int, ...], width: int) -> tuple[tuple[int, int], ...]:
    """``(offset, delta)`` per variable ``v``: where ``v``'s field starts
    in a key of ``width``-bit fields, and the packed ``monomial - e_v``."""
    r = sum(e << width * v for v, e in enumerate(monomial))
    return tuple((width * v, r - (1 << width * v)) for v in range(len(monomial)))


def _derive_uniform(
    terms: Mapping[int, int], steps: tuple[tuple[int, int], ...], mask: int
) -> dict[int, int]:
    """Grammar derivative on packed terms, whose ``mask``-wide fields hold
    every exponent of the result, when every variable rewrites to the same
    monomial: ``D = monomial * (sum of all partials)``, so an occurrence of
    ``v`` moves a term's key by ``v``'s ``delta`` in ``steps``.  Positive
    terms in give positive terms out, so nothing cancels."""
    acc: dict[int, int] = {}
    for key, c in terms.items():
        for s, delta in steps:
            e = key >> s & mask
            if e:
                out = key + delta
                acc[out] = acc.get(out, 0) + c * e
    return acc


def quintuple_poly(parts: Iterable[int]) -> MultiPoly:
    """Joint (sdes, mdes, fplat, uplat, asc) generating polynomial as a
    grammar derivative: start from ``z`` and apply the derivative of the
    order-``m_i`` grammar for i = 1, ..., n in that order.

    >>> print(quintuple_poly((2,)))
    xt*yt*z
    """
    parts = check_composition(parts)
    if not parts:
        return MultiPoly.var("z")
    # the result has degree total + 1 and every step raises the degree
    width = packed_width(sum(parts) + 1)
    mask = (1 << width) - 1
    terms = {1 << 4 * width: 1}  # z
    for mk in parts:
        terms = _derive_uniform(terms, _steps(_label_monomial(mk), width), mask)
    return MultiPoly._canonical(QUINTUPLE_VARS, unpack_terms(terms, 5, width))

