import json
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from stirlingperms import gamma, roots, verify
from stirlingperms.roots import UniPoly
from conftest import compositions_up_to, unipoly_mul


def test_s_mi_examples():
    assert roots.s_mi((2, 2), 1) == UniPoly.of([0, 0, 1])  # x^2
    assert roots.s_mi((2, 2), 2) == UniPoly.of([0, 1, 1])  # x + x^2
    assert roots.s_mi((1, 1), 0) == UniPoly.of([0, 1, 1])
    with pytest.raises(ValueError):
        roots.s_mi((2, 2), 4)


@pytest.mark.parametrize("parts, level", [((2, 2), -1), ((2, 2), 4), ((1,), 1), ((), 1)])
def test_s_mi_rejects_out_of_range_levels(parts, level):
    with pytest.raises(ValueError):
        roots.s_mi(parts, level)


def test_s_mi_rejects_a_non_integer_level():
    with pytest.raises(TypeError):
        roots.s_mi((2, 2), 1.5)


@pytest.mark.parametrize("parts", compositions_up_to(7))
def test_plateau_rows_equal_s_mi_at_every_level(parts):
    rows = roots._plateau_rows(parts)
    assert len(rows) == max(sum(parts), 1)
    for level, row in enumerate(rows):
        assert UniPoly.of(row) == roots.s_mi(parts, level)


def test_realroot_failure_names_the_first_failing_level(monkeypatch):
    # (2, 2): level 0 is empty, level 1 is x^2, level 2 is x + x^2
    monkeypatch.setattr(roots, "is_real_rooted", lambda p: p.coeffs != (0, 1, 1))
    expected = {"m": [2, 2], "level": 2, "poly": [0, 1, 1], "kind": "real-rooted"}
    assert verify.check_realroot((2, 2)).counterexample == json.dumps(expected, sort_keys=True)
    # the palindrome check runs first, and level 1 comes before level 2
    monkeypatch.setattr(roots, "is_palindromic", lambda p: p.coeffs[0] != 0)
    expected = {"m": [2, 2], "level": 1, "poly": [0, 0, 1], "kind": "palindromic"}
    assert verify.check_realroot((2, 2)).counterexample == json.dumps(expected, sort_keys=True)


def test_s_mi_matches_slice_substitution():
    for parts in [(2, 2), (1, 2, 1), (3, 1)]:
        p = gamma.s_poly(parts)
        for i, s in p.z_slices():
            coeffs = [0] * (sum(parts) + 2)
            for (ex, ey), c in s.terms.items():
                coeffs[ey] += c  # x -> 1, y -> x
            assert roots.s_mi(parts, i) == UniPoly.of(coeffs)


def distinct_real_roots(p):
    """The root count of the Sturm walk of ``p`` itself, unstripped."""
    return roots._sturm_walk(p.coeffs)[0]


def test_sturm_examples():
    assert distinct_real_roots(UniPoly.of([1, 0, 1])) == 0
    assert distinct_real_roots(UniPoly.of([-1, 0, 1])) == 2
    assert distinct_real_roots(UniPoly.of([0, 0, 0, 1])) == 1  # x^3, one distinct
    # the chain of x^3 ends at gcd(p, p') = x^2
    assert roots._sturm_walk([0, 0, 0, 1]) == (1, [4, 3])


def test_is_real_rooted_examples():
    assert roots.is_real_rooted(UniPoly.of([0, 1, 1]))
    assert not roots.is_real_rooted(UniPoly.of([1, 1, 1]))
    assert roots.is_real_rooted(UniPoly.of([1, 2, 1]))  # repeated root


def test_unipoly_rejects_non_integer_coefficients():
    for build in (UniPoly.of, UniPoly):
        with pytest.raises(TypeError):
            build([1.5, 2.7])
    with pytest.raises(TypeError):
        UniPoly.of([1.5, 0.0])


def test_unipoly_constructor_rejects_trailing_zeros():
    # the constant 1 padded with a zero would read as degree 1, and its
    # Sturm chain would count one real root
    with pytest.raises(ValueError, match="trailing zero"):
        UniPoly((1, 0))
    assert UniPoly((1,)) == UniPoly.of([1, 0]) and UniPoly(()).is_zero()
    assert roots._sturm_walk(UniPoly.of([1, 0]).coeffs) == (0, [1])


def test_is_palindromic_examples():
    assert roots.is_palindromic(UniPoly.of([0, 1, 1]))
    assert roots.is_palindromic(UniPoly.of([1, 2, 1]))
    assert not roots.is_palindromic(UniPoly.of([1, 2]))
    assert roots.is_palindromic(UniPoly.of([0, 0, 7]))


def test_zero_polynomial_is_excluded():
    for check in (roots.is_real_rooted, roots.is_palindromic):
        with pytest.raises(ValueError, match="^the zero polynomial is excluded$"):
            check(UniPoly.of([]))


def test_unipoly_str():
    assert str(UniPoly.of([])) == "0"
    assert str(UniPoly.of([1, -1, 0, -1, 2])) == "1 - x - x^3 + 2*x^4"


@given(
    st.lists(st.tuples(st.integers(1, 4), st.integers(-6, 6)), min_size=0, max_size=3),
    st.lists(st.integers(1, 9), min_size=0, max_size=2),
)
@settings(max_examples=120, deadline=None)
def test_sturm_on_constructed_products(linear, quad_constants):
    # known-answer oracle: distinct real roots of prod (a x - b) prod (x^2 + c)
    coeffs = [1]
    for a, b in linear:
        coeffs = unipoly_mul(coeffs, [-b, a])
    for c in quad_constants:
        coeffs = unipoly_mul(coeffs, [c, 0, 1])
    p = UniPoly.of(coeffs)
    expected = len({Fraction(b, a) for a, b in linear})
    assert distinct_real_roots(p) == expected
    assert roots.is_real_rooted(p) == (len(quad_constants) == 0 or p.degree == 0)


@given(st.lists(st.integers(-20, 20), min_size=2, max_size=6))
@settings(max_examples=100, deadline=None)
def test_sturm_against_sympy(coeffs):
    # count_roots counts distinct real roots, so p need not be squarefree
    p = UniPoly.of(coeffs)
    if p.is_zero() or p.degree == 0:
        return
    x = sympy.Symbol("x")
    expr = sum(c * x**i for i, c in enumerate(p.coeffs))
    expected = sympy.Poly(expr, x).count_roots(-sympy.oo, sympy.oo)
    assert distinct_real_roots(p) == expected


def _with_degree(coeffs):
    """Integer coefficient lists of degree 1 to 7, with no trailing zero."""
    return st.tuples(st.lists(coeffs, min_size=1, max_size=7), coeffs.filter(bool)).map(
        lambda low_top: low_top[0] + [low_top[1]]
    )


@given(_with_degree(st.integers(-1000, 1000)), _with_degree(st.integers(-1000, 1000)), st.booleans())
@settings(max_examples=150, deadline=None)
def test_pseudo_rem_against_sympy(f, g, multiple):
    # deg f >= deg g >= 1; a multiple of g has remainder zero
    if len(f) < len(g):
        f, g = g, f
    if multiple:
        f = unipoly_mul(f, g)
    x = sympy.Symbol("x")
    rem = sympy.prem(sympy.Poly(f[::-1], x), sympy.Poly(g[::-1], x))
    want = [] if rem.is_zero else [int(c) for c in rem.all_coeffs()[::-1]]
    assert roots._pseudo_rem(f, g) == want


_factor = st.one_of(
    st.tuples(st.integers(-5, 5), st.integers(1, 4)),  # b + a x
    st.tuples(st.integers(-6, 6), st.integers(-6, 6), st.integers(1, 3)),  # c + b x + a x^2
)


@given(st.lists(st.tuples(_factor, st.integers(1, 3)), min_size=1, max_size=4), st.integers(0, 4))
@settings(max_examples=150, deadline=None)
def test_is_real_rooted_against_sympy_with_multiplicity(factors, k):
    # linear and quadratic factors, each raised to the power 1, 2 or 3,
    # times x^k, which is_real_rooted strips; sympy's real_roots lists
    # every real root with its multiplicity
    coeffs = [0] * k + [1]
    for f, power in factors:
        for _ in range(power):
            coeffs = unipoly_mul(coeffs, list(f))
    p = UniPoly.of(coeffs)
    x = sympy.Symbol("x")
    expr = sum(c * x**i for i, c in enumerate(p.coeffs))
    assert roots.is_real_rooted(p) == (len(sympy.Poly(expr, x).real_roots()) == p.degree)


@pytest.mark.parametrize("parts", [p for p in compositions_up_to(6) if p])
def test_refined_descent_polys_real_rooted_palindromic(parts):
    for level in range(sum(parts)):
        p = roots.s_mi(parts, level)
        if p.is_zero():
            continue
        assert roots.is_palindromic(p), (parts, level, p)
        assert roots.is_real_rooted(p), (parts, level, p)


def test_stripped_verdict_equals_the_walk_of_p_itself():
    # realroot prints the verdict of the unstripped chain of p
    for parts in compositions_up_to(8):
        for level, row in enumerate(roots._plateau_rows(parts)):
            p = UniPoly.of(row)
            if p.is_zero():
                continue
            distinct, lengths = roots._sturm_walk(p.coeffs)
            assert roots.is_real_rooted(p) == (distinct == lengths[0] - lengths[-1]), (parts, level)


@pytest.mark.parametrize("parts", [p for p in compositions_up_to(5) if p])
def test_real_rootedness_consistent_with_gamma_positivity(parts):
    table = gamma.partial_gamma(gamma.s_poly(parts))
    assert table.positive
    for i, s in gamma.s_poly(parts).z_slices():
        coeffs = [0] * (sum(parts) + 2)
        for (ex, ey), c in s.terms.items():
            coeffs[ey] += c
        assert roots.is_real_rooted(UniPoly.of(coeffs))
