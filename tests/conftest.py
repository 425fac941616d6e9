"""Shared oracles for the test suite.

The brute-force oracle here is deliberately independent of the package
kernels: it generates raw multiset permutations with itertools and
checks the nesting property per letter by scanning the segment between
consecutive occurrences.
"""

from itertools import permutations

from stirlingperms.gamma import InternalResidueError, NotHomogeneousError, NotSymmetricError
from stirlingperms.poly import MultiPoly


def oracle_is_stirling(word: tuple[int, ...]) -> bool:
    """Every letter's consecutive occurrences enclose only larger letters."""
    for letter in set(word):
        positions = [i for i, c in enumerate(word) if c == letter]
        for lo, hi in zip(positions, positions[1:]):
            if any(word[k] < letter for k in range(lo + 1, hi)):
                return False
    return True


def oracle_words(parts: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Brute-force enumeration: filter all multiset permutations."""
    letters = []
    for k, mk in enumerate(parts, start=1):
        letters.extend([k] * mk)
    return sorted(w for w in set(permutations(letters)) if oracle_is_stirling(w))


def assert_canonical(p: MultiPoly) -> None:
    """``p`` is in the form every producer must build: sorted distinct
    variables, int exponent vectors of the right length, no zero
    coefficient; and rebuilding it through the public constructor
    changes nothing."""
    assert isinstance(p, MultiPoly)
    assert type(p.vars) is tuple and list(p.vars) == sorted(set(p.vars))
    for evec, c in p.terms.items():
        assert type(evec) is tuple and len(evec) == len(p.vars), evec
        assert all(type(e) is int and e >= 0 for e in evec), evec
        assert type(c) is int and c != 0, (evec, c)
    rebuilt = MultiPoly(p.vars, p.terms)
    assert rebuilt.vars == p.vars and rebuilt.terms == p.terms


def naive_derive(g, p: MultiPoly) -> MultiPoly:
    """Grammar derivative term by term through ``MultiPoly`` arithmetic:
    each occurrence of a variable is replaced by its rule and the
    products are summed one at a time."""
    out = MultiPoly.zero(p.vars)
    for evec, c in p.terms.items():
        for pos, (v, e) in enumerate(zip(p.vars, evec)):
            if not e:
                continue
            reduced = list(evec)
            reduced[pos] -= 1
            out = out + MultiPoly(p.vars, {tuple(reduced): c * e}) * g.rule(v)
    return out


def naive_gamma_expand(h: MultiPoly) -> list[int]:
    """Gamma coefficients by ``MultiPoly`` elimination: align ``h`` to
    (x, y), then peel the coefficient of ``x^j y^(d-j)`` and subtract
    ``g * (xy)^j (x+y)^(d-2j)`` built as a polynomial, for each j."""
    extra = set(h.vars) - {"x", "y"}
    for evec in h.terms:
        for v, e in zip(h.vars, evec):
            if v in extra and e:
                raise ValueError(f"gamma_expand needs a polynomial in x, y; found {v}")
    aligned = h.with_vars(sorted(set(h.vars) | {"x", "y"}))
    ix, iy = aligned.vars.index("x"), aligned.vars.index("y")
    h = MultiPoly(("x", "y"), {(e[ix], e[iy]): c for e, c in aligned.terms.items()})
    if h.is_zero():
        return []
    if not h.is_homogeneous():
        raise NotHomogeneousError(f"not homogeneous: {h}")
    if h != h.swap_vars("x", "y"):
        raise NotSymmetricError(f"not symmetric in x, y: {h}")
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    d = h.degree()
    residue = h
    gammas: list[int] = []
    for j in range(d // 2 + 1):
        g = residue.coeff_of(x=j, y=d - j)
        gammas.append(g)
        if g:
            residue = residue - g * (x * y) ** j * (x + y) ** (d - 2 * j)
    if not residue.is_zero():
        raise InternalResidueError(f"nonzero residue {residue}")
    return gammas


def unipoly_mul(a: list[int], b: list[int]) -> list[int]:
    """Dense convolution of integer coefficient lists."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


def compositions_up_to(max_total: int) -> list[tuple[int, ...]]:
    out = []
    for total in range(max_total + 1):
        stack = [((), total)]
        found = []
        while stack:
            prefix, rest = stack.pop()
            if rest == 0:
                found.append(prefix)
                continue
            for head in range(1, rest + 1):
                stack.append((prefix + (head,), rest - head))
        out.extend(sorted(found, key=lambda c: tuple(reversed(c))))
    return out
