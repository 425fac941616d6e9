from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from stirlingperms import gamma, roots
from stirlingperms.poly import MultiPoly
from stirlingperms.roots import UniPoly
from conftest import compositions_up_to, unipoly_mul

X, Y = MultiPoly.var("x"), MultiPoly.var("y")


def test_s_mi_examples():
    assert roots.s_mi((2, 2), 1) == UniPoly.of([0, 0, 1])  # x^2
    assert roots.s_mi((2, 2), 2) == UniPoly.of([0, 1, 1])  # x + x^2
    assert roots.s_mi((1, 1), 0) == UniPoly.of([0, 1, 1])
    with pytest.raises(ValueError):
        roots.s_mi((2, 2), 4)


def test_s_mi_matches_slice_substitution():
    for parts in [(2, 2), (1, 2, 1), (3, 1)]:
        p = gamma.s_poly(parts)
        for i, s in p.z_slices():
            coeffs = [0] * (sum(parts) + 2)
            for (ex, ey), c in s.terms.items():
                coeffs[ey] += c  # x -> 1, y -> x
            assert roots.s_mi(parts, i) == UniPoly.of(coeffs)


def test_sturm_examples():
    assert roots.sturm_real_roots(UniPoly.of([1, 0, 1])) == 0
    assert roots.sturm_real_roots(UniPoly.of([-1, 0, 1])) == 2
    assert roots.sturm_real_roots(UniPoly.of([0, 0, 0, 1])) == 1  # x^3, one distinct
    with pytest.raises(ValueError):
        roots.sturm_real_roots(UniPoly.of([]))


def test_is_real_rooted_examples():
    assert roots.is_real_rooted(UniPoly.of([0, 1, 1]))
    assert not roots.is_real_rooted(UniPoly.of([1, 1, 1]))
    assert roots.is_real_rooted(UniPoly.of([1, 2, 1]))  # repeated root


def test_is_palindromic_examples():
    assert roots.is_palindromic(UniPoly.of([0, 1, 1]))
    assert roots.is_palindromic(UniPoly.of([1, 2, 1]))
    assert not roots.is_palindromic(UniPoly.of([1, 2]))
    assert roots.is_palindromic(UniPoly.of([0, 0, 7]))


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
    assert roots.sturm_real_roots(p) == expected
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
    assert roots.sturm_real_roots(p) == expected


_factor = st.one_of(
    st.tuples(st.integers(-5, 5), st.integers(1, 4)),  # b + a x
    st.tuples(st.integers(-6, 6), st.integers(-6, 6), st.integers(1, 3)),  # c + b x + a x^2
)


@given(st.lists(st.tuples(_factor, st.integers(1, 3)), min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_is_real_rooted_against_sympy_with_multiplicity(factors):
    # linear and quadratic factors, each raised to the power 1, 2 or 3;
    # sympy's real_roots lists every real root with its multiplicity
    coeffs = [1]
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


@pytest.mark.parametrize("parts", [p for p in compositions_up_to(5) if p])
def test_real_rootedness_consistent_with_gamma_positivity(parts):
    table = gamma.partial_gamma(gamma.s_poly(parts))
    assert table.positive
    for i, s in gamma.s_poly(parts).z_slices():
        coeffs = [0] * (sum(parts) + 2)
        for (ex, ey), c in s.terms.items():
            coeffs[ey] += c
        assert roots.is_real_rooted(UniPoly.of(coeffs))


def test_probe_none_on_difference():
    assert roots.stability_probe(X - Y, trials=2000, seed=11) is None


def test_probe_finds_product_counterexample_with_refine():
    hit = roots.stability_probe(X * Y + 1, trials=100, seed=42, refine=True)
    assert hit is not None and hit.exact
    (xr, xi), (yr, yi) = hit.point["x"], hit.point["y"]
    assert xi > 0 and yi > 0
    # confirm the zero by hand: (xr + xi i)(yr + yi i) + 1 == 0
    re = xr * yr - xi * yi + 1
    im = xr * yi + xi * yr
    assert re == 0 and im == 0


def test_probe_none_on_word_polynomial():
    p = gamma.s_poly((2, 2))
    assert roots.stability_probe(p, trials=1500, seed=42) is None
    assert roots.stability_probe(p, trials=300, seed=42, refine=True) is None


def test_probe_deterministic_under_seed():
    a = roots.stability_probe(X * Y + 8, trials=50, seed=9, refine=True)
    b = roots.stability_probe(X * Y + 8, trials=50, seed=9, refine=True)
    assert a == b and a is not None


def test_probe_rejects_bad_arguments():
    with pytest.raises(ValueError):
        roots.stability_probe(X, trials=0, seed=1)
    with pytest.raises(ValueError):
        roots.stability_probe(MultiPoly.zero(("x",)), trials=10, seed=1)
