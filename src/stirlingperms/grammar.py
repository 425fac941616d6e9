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

Both families are uniform: every variable rewrites to the same monomial
``r``, so the derivative is ``D_r = r * (sum of all partials)``.
``quintuple_poly`` and ``dumont_poly`` hand their chain of monomials to
the kernel's ``derive_chain``, which returns the exact terms of
``D_{r_n} ... D_{r_1}`` applied to the start monomial.  ``derive`` is the
generic Leibniz sum in ``MultiPoly`` arithmetic, for any grammar.
"""

from __future__ import annotations

import operator
import sys
from dataclasses import dataclass
from typing import Iterable, Mapping

from ._backend import kernel
from .poly import MultiPoly
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
    n = operator.index(n)
    if n < 0:
        raise ValueError("derivative count must be nonnegative")
    if not n:
        return MultiPoly.var("x")
    return MultiPoly._canonical(("x", "y"), kernel.derive_chain((1, 0), ((1, 1),) * n))


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
    if sum(parts) > sys.maxsize:
        raise OverflowError("total multiplicity is too large")
    rules = [_label_monomial(mk) for mk in parts]
    return MultiPoly._canonical(QUINTUPLE_VARS, kernel.derive_chain((0, 0, 0, 0, 1), rules))
