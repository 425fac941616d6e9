"""Shared oracles for the test suite.

The brute-force oracle here is deliberately independent of the package
kernels: it generates raw multiset permutations with itertools and
checks the nesting property per letter by scanning the segment between
consecutive occurrences.  The hopping-action oracle checks the whole
gfs-properties contract over index tables built from the per-word pure
kernel, independently of the orbit-by-orbit ``gfs_scan``.
"""

from collections import Counter
from itertools import permutations
from math import comb

from stirlingperms import _pure
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


def coeff_of(p: MultiPoly, **exps: int) -> int:
    """Coefficient of ``p`` by named exponents; unnamed variables must be 0.

    >>> coeff_of(MultiPoly.var("x") * MultiPoly.var("y") * 3, x=1, y=1)
    3
    """
    unknown = set(exps) - set(p.vars)
    if any(exps[v] for v in unknown):
        return 0
    return p.terms.get(tuple(exps.get(v, 0) for v in p.vars), 0)


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
    if not h.terms:
        return []
    if len({sum(e) for e in h.terms}) > 1:
        raise NotHomogeneousError(f"not homogeneous: {h}")
    if h != h.swap_vars("x", "y"):
        raise NotSymmetricError(f"not symmetric in x, y: {h}")
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    d = max(map(sum, h.terms))
    residue = h
    gammas: list[int] = []
    for j in range(d // 2 + 1):
        g = coeff_of(residue, x=j, y=d - j)
        gammas.append(g)
        if g:
            residue = residue - g * (x * y) ** j * (x + y) ** (d - 2 * j)
    if residue.terms:
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


def per_word_hop_tables(parts):
    """``(words, phis, classes)`` from the per-word ``phi_letter`` and
    ``classify_letter`` of the pure backend: ``words`` is
    ``words_of(parts)``, ``phis[x-1]`` lists the index in ``words`` of
    each word's hop by letter ``x`` (-1 when the image is not a word), and
    the bytes ``classes[x-1]`` hold each word's value class of ``x``."""
    words = _pure.words_of(parts)
    index = {w: i for i, w in enumerate(words)}
    letters = range(1, len(parts) + 1)
    return (
        words,
        [[index.get(_pure.phi_letter(w, x), -1) for w in words] for x in letters],
        [bytes(_pure.classify_letter(w, x) for w in words) for x in letters],
    )


def orbit_labels(size, phis):
    """Label each of ``size`` sorted words by the least index in its orbit,
    given the hop index tables of ``per_word_hop_tables``.

    One min-pass per letter suffices for commuting involutions: every
    orbit element is reached by applying each hop at most once, in
    letter order.
    """
    labels = list(range(size))
    for phi_x in phis:
        labels = [min(a, labels[j]) for a, j in zip(labels, phi_x)]
    return labels


def action_tables_pass(parts):
    """Whether the hopping action passes every whole-table check of the
    gfs-properties contract: every hop lands on a word (closure), each is
    an involution, flips movable-left to double-ascent (the toggle) and
    keeps ``mdup``, any two commute, and every orbit has exactly one
    representative (``sddes = fdesp = 0``), the two identities at it and
    the orbit sum ``(xy)^ascpp (x+y)^dasc`` of ``x^asc y^(fplat+sdes)``,
    which makes its size ``2^dasc``."""
    words, phis, classes = per_word_hop_tables(parts)
    if any(-1 in phi_x for phi_x in phis):
        return False
    profiles = [_pure.profile12(w) for w in words]
    movable = (_pure.FREE_DESCENT_PLATEAU, _pure.SINGLE_DOUBLE_DESCENT)
    for x, (phi_x, cls_x) in enumerate(zip(phis, classes)):
        for i, j in enumerate(phi_x):
            if phi_x[j] != i or profiles[j][11] != profiles[i][11]:
                return False
            if (cls_x[i] in movable) != (cls_x[j] == _pure.DOUBLE_ASCENT):
                return False
            if any(phi_y[j] != phi_x[phi_y[i]] for phi_y in phis[x + 1 :]):
                return False
    orbits = {}
    for i, label in enumerate(orbit_labels(len(words), phis)):
        orbits.setdefault(label, []).append(i)
    m = sum(parts)
    for members in orbits.values():
        reps = [i for i in members if not (profiles[i][8] or profiles[i][9])]
        if len(reps) != 1:
            return False
        asc, _, _, sdes, _, fplat, _, dasc, _, _, ascpp, mdup = profiles[reps[0]]
        if not asc - dasc == fplat + sdes == ascpp or dasc != m + 1 - mdup - 2 * ascpp:
            return False
        terms = Counter((profiles[i][0], profiles[i][5] + profiles[i][3]) for i in members)
        if terms != {(ascpp + k, ascpp + dasc - k): comb(dasc, k) for k in range(dasc + 1)}:
            return False
    return True
