import json
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stirlingperms.gamma import s_poly
from stirlingperms.grammar import Grammar, derive, quintuple_poly
from stirlingperms.poly import MultiPoly, series_divide
from conftest import assert_canonical, coeff_of, power, unipoly_mul

X, Y, Z = MultiPoly.var("x"), MultiPoly.var("y"), MultiPoly.var("z")


def from_json_dict(data):
    """The polynomial of ``MultiPoly.to_json_dict`` output."""
    return MultiPoly(tuple(data["vars"]), {tuple(t["e"]): int(t["c"]) for t in data["terms"]})


def rand_poly(draw_vars=("x", "y")):
    coeff = st.integers(-(10**6), 10**6)
    exps = st.tuples(*(st.integers(0, 3) for _ in draw_vars))
    return st.dictionaries(exps, coeff, max_size=5).map(
        lambda terms: MultiPoly(draw_vars, terms)
    )


def test_basic_arithmetic():
    assert (X + Y) * (X + Y) == X * X + 2 * X * Y + Y * Y
    p = 3 * X * Y + X * X
    assert p + 0 == p
    assert X * Y * (X + Y) == X * X * Y + X * Y * Y
    assert not (X + (-1) * X).terms
    assert p + (-1) * p == MultiPoly.zero(("x", "y"))


def test_alignment_across_variable_sets():
    assert X + MultiPoly.const(1) == MultiPoly(("x",), {(1,): 1, (0,): 1})
    assert Z * X == MultiPoly(("x", "z"), {(1, 1): 1})
    assert MultiPoly.zero(("x", "y", "z")) == MultiPoly.const(0)
    with pytest.raises(ValueError, match="duplicate variable"):
        X.with_vars(("x", "x", "y"))


@given(rand_poly(), rand_poly(), rand_poly())
@settings(max_examples=80, deadline=None)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


def test_coeff():
    p = X * X * Y + 4 * X * Y
    assert coeff_of(p, x=1, y=1) == 4
    assert coeff_of(p, x=1, y=1, z=0) == 4


def test_z_slices_examples():
    p = X * X * Y * Y * Z + (X * X * Y + X * Y * Y) * Z * Z
    assert p.z_slices() == [(1, X * X * Y * Y), (2, X * X * Y + X * Y * Y)]
    assert (X * Y).z_slices() == [(0, X * Y)]
    assert MultiPoly.zero(("x", "y", "z")).z_slices() == []
    with pytest.raises(ValueError, match=r"^z_slices needs variables within x,y,z, got \['w'\]$"):
        (MultiPoly.var("w") * Z).z_slices()


@given(rand_poly(("x", "y", "z")))
@settings(max_examples=60, deadline=None)
def test_z_slices_reassembly(p):
    rebuilt = MultiPoly.zero(("x", "y", "z"))
    for i, s in p.z_slices():
        rebuilt = rebuilt + s * power(Z, i)
    assert rebuilt == p


def test_homogeneity_and_symmetry():
    assert {sum(e) for e in (X * X * Y + X * Y * Y).terms} == {3}
    assert {sum(e) for e in (X * X * Y).terms} == {3}
    assert {sum(e) for e in (X + X * X).terms} == {1, 2}
    # x, y symmetry through swap_vars, with z present and with y absent
    p = X * Y * Z + Z
    assert p.swap_vars("x", "y") == p
    assert X.swap_vars("x", "y") == Y


def test_swap_vars():
    p = MultiPoly(("x", "xt"), {(2, 1): 5})
    assert p.swap_vars("x", "xt") == MultiPoly(("x", "xt"), {(1, 2): 5})
    assert p.swap_vars("x", "xt").swap_vars("x", "xt") == p


def test_str_graded_lex():
    p = X * X * X * Y + 4 * X * X * Y * Y + X * Y * Y * Y
    assert str(p) == "x^3*y + 4*x^2*y^2 + x*y^3"
    assert str(MultiPoly.zero()) == "0"
    assert str(X + (-1) * Y) == "x - y"


def test_json_round_trip_bit_exact():
    p = 12345678901234567890 * X * X * Y + (-1) * Z
    data = json.loads(json.dumps(p.to_json_dict()))
    assert data["vars"] == ["x", "y", "z"]
    assert data["terms"][0]["c"] == "12345678901234567890"
    assert from_json_dict(data) == p
    # canonical term order: descending graded-lex
    q = X + Y * Y + X * Y
    assert [t["e"] for t in q.to_json_dict()["terms"]] == [[1, 1], [0, 2], [1, 0]]


def test_evaluate():
    p = X * Y + 2
    assert p.evaluate({"x": MultiPoly.const(3), "y": MultiPoly.const(5)}) == 17
    with pytest.raises(ValueError, match=r"^no value for variables \['y'\]$"):
        p.evaluate({"x": X})


def test_evaluate_needs_values_only_for_occurring_variables():
    # a listed variable that does not occur changes no equality, so it
    # needs no value, and a value given for it is not checked
    p = X * Y
    w = p.with_vars(("w", "x", "y"))
    assert w == p
    swap = {"x": Y, "y": X}
    assert w.evaluate(swap) == p.evaluate(swap) == X * Y
    assert w.evaluate(dict(swap, w=2)) == X * Y
    assert MultiPoly(("w", "x"), {(0, 0): 5}).evaluate({}) == 5
    with pytest.raises(ValueError, match=r"^no value for variables \['y'\]$"):
        w.evaluate({"x": Y, "w": X})


def naive_evaluate(p, assignment):
    """Term-by-term substitution through ``MultiPoly`` arithmetic."""
    total = 0
    for evec, c in p.terms.items():
        term = c
        for v, e in zip(p.vars, evec):
            if e:
                term = term * power(assignment[v], e)
        total = total + term
    return total


def test_evaluate_numeric_values():
    # a number enters as a constant one-term polynomial
    c = MultiPoly.const
    p = 3 * X * X * Z + (-1) * X * Y + 7
    assert p.evaluate({"x": c(2), "y": c(-5), "z": c(4)}) == 3 * 4 * 4 + 10 + 7
    assert p.evaluate({"x": c(2), "y": Y, "z": c(1)}) == 19 + (-2) * Y


def one_term(draw_vars):
    """A single term ``c * x^k``: a constant when ``k`` is 0, ``-x`` and
    coefficients other than 1 included."""
    return st.builds(
        lambda evec, c: MultiPoly(draw_vars, {evec: c}),
        st.tuples(*(st.integers(0, 3) for _ in draw_vars)),
        st.integers(-7, 7).filter(bool),
    )


@given(
    rand_poly(("a", "b", "c")),
    st.lists(
        st.one_of(
            one_term(("x", "y")),
            one_term(("y", "z")),
            st.integers(-3, 3).filter(bool).map(MultiPoly.const),
            st.just((-1) * X),
        ),
        min_size=3,
        max_size=3,
    ),
)
@settings(max_examples=150, deadline=None)
def test_evaluate_with_polynomial_values_matches_naive(p, values):
    assignment = dict(zip(("a", "b", "c"), values))
    got, want = p.evaluate(assignment), naive_evaluate(p, assignment)
    assert type(got) is type(want)
    assert got == want
    if isinstance(want, MultiPoly):
        assert got.vars == want.vars


def test_evaluate_with_polynomial_values_edge_cases():
    values = {"x": Y, "y": Z, "z": 2 * X}
    # the zero polynomial and a constant give ints
    for p, want in ((MultiPoly.zero(("x", "y")), 0), (MultiPoly(("x",), {(0,): 5}), 5)):
        got = p.evaluate(values)
        assert type(got) is int and got == want
    # a constant term next to polynomial values
    got = (X * Y + 2).evaluate(values)
    assert got == Y * Z + 2
    assert got.vars == ("y", "z")
    # the result spans the values of the occurring variables only
    assert MultiPoly(("x", "y", "z"), {(2, 0, 0): 3}).evaluate(values).vars == ("y",)
    # a coefficient scales by its power
    assert (Z * Z * X).evaluate(values) == 4 * X * X * Y


@pytest.mark.parametrize("parts", [(1,), (2, 1), (1, 3, 2), (2, 2, 2)])
def test_label_substitution_takes_the_shift_path(parts):
    labels = {"x": Y, "xt": Y, "y": Z, "yt": Z, "z": X}
    got = quintuple_poly(parts).evaluate(labels)
    assert_canonical(got)
    assert got == s_poly(parts)


@pytest.mark.parametrize("cap", [255, 256, 2**16])
@pytest.mark.parametrize("top", ["x", "z"])
def test_one_term_substitution_at_the_exponent_cap(cap, top):
    # the degree bound is ``cap`` and one output exponent reaches it, in
    # the lowest or the highest field of the packed keys
    p = MultiPoly(("a", "b"), {(cap, 0): 1, (cap - 1, 3): -4, (0, 1): 3, (0, 0): 2})
    values = {"a": (-1) * MultiPoly.var(top), "b": MultiPoly(("x", "y", "z"), {(0, 0, 0): 5})}
    got, want = p.evaluate(values), naive_evaluate(p, values)
    assert_canonical(got)
    assert got.vars == want.vars == ("x", "y", "z")
    assert got.terms == want.terms


@pytest.mark.parametrize(
    "values",
    [
        {"x": 2, "y": Y, "z": Z},
        {"x": X + 1, "y": Y, "z": Z},
        {"x": MultiPoly.zero(("x", "y")), "y": Y, "z": Z},
        {"x": 3 * X, "y": (-1) * Y + Z, "z": MultiPoly.const(2)},
        {"x": 1, "y": 0, "z": -1},
    ],
    ids=["int", "several-terms", "zero", "mixed", "all-ints"],
)
def test_evaluate_refuses_values_that_are_not_one_term(values):
    p = 3 * X * X * Z + (-1) * X * Y * Z + 2 * Y * Y * Y + (-7)
    with pytest.raises(ValueError, match="must be a one-term MultiPoly, got"):
        p.evaluate(values)


def test_negative_exponents_rejected():
    with pytest.raises(ValueError):
        MultiPoly(("x",), {(-1,): 1})


def test_constructor_rejects_duplicate_variables_and_misfit_exponents():
    with pytest.raises(ValueError, match=r"^duplicate variable in \('x', 'x'\)$"):
        MultiPoly(("x", "x"), {})
    with pytest.raises(ValueError, match=r"^exponent vector \(1,\) does not match variables \('x', 'y'\)$"):
        MultiPoly(("x", "y"), {(1,): 1})


def test_a_bare_string_is_not_a_variable_list():
    # "xt" names one variable, or two, but is never split into letters
    message = r"^variables must be a collection of names, not the string 'xt'$"
    for build in (lambda: MultiPoly("xt", {}), lambda: MultiPoly.zero("xt"), lambda: X.with_vars("xt")):
        with pytest.raises(TypeError, match=message):
            build()


def test_with_vars_refuses_to_drop_a_variable():
    with pytest.raises(ValueError, match=r"^cannot drop variables \['y'\]$"):
        (X * Y).with_vars(("x", "z"))


def test_repr():
    assert repr(X * X + (-3) * Y) == "MultiPoly(x^2 - 3*y)"
    assert repr(MultiPoly.zero()) == "MultiPoly(0)"


@pytest.mark.parametrize("op", [operator.add, operator.mul], ids=["add", "mul"])
def test_operators_refuse_a_float(op):
    # each side returns NotImplemented, so Python raises TypeError
    with pytest.raises(TypeError):
        op(X, 1.5)
    with pytest.raises(TypeError):
        op(1.5, X)


def test_equality_with_a_float_is_false():
    assert not X == 1.5 and X != 1.5


@pytest.mark.parametrize(
    "build",
    [
        lambda: MultiPoly(("x",), {(1,): 1.5}),
        lambda: MultiPoly(("x",), {(1.5,): 1}),
        lambda: MultiPoly.const(2.0),
        lambda: MultiPoly(("x", "y"), {(1, 0.5): 1}),
        lambda: series_divide([1, 2.7], 2, 4),
    ],
    ids=["coefficient", "exponent", "const", "monomial", "series_divide"],
)
def test_non_integer_input_raises(build):
    # exact inputs only: a float is rejected, never truncated
    with pytest.raises(TypeError):
        build()


def small_poly(draw_vars, top=2):
    # few monomials and small coefficients of both signs, so that sums,
    # products, derivatives and substitutions cancel terms
    exps = st.tuples(*(st.integers(0, top) for _ in draw_vars))
    return st.dictionaries(exps, st.integers(-2, 2), max_size=4).map(
        lambda terms: MultiPoly(draw_vars, terms)
    )


SMALL = small_poly(("x", "y")) | small_poly(("y", "z")) | small_poly(("x", "y", "z"))


@given(
    SMALL,
    SMALL,
    st.lists(small_poly(("x", "y"), top=1), min_size=3, max_size=3),
    small_poly(("a", "b", "c"), top=1),
    st.lists(one_term(("x", "y")) | one_term(("y", "z")), min_size=3, max_size=3),
)
@settings(max_examples=100, deadline=None)
def test_results_are_canonical(p, q, xy_polys, r, values):
    d, rule_x, rule_y = xy_polys
    results = [
        p + q, p + (-1) * q, p * q, p + 1, 2 * p, (-1) * p,
        p.with_vars(("w", "x", "y", "z")),
        p.swap_vars("x", "y"), p.swap_vars("y", "w"),
        derive(Grammar({"x": rule_x, "y": rule_y}), d),
    ]
    results += [s for _, s in (p * q).z_slices()]
    # with a = b, r - r(b, a, c) substitutes to zero, term by term
    twisted = (r + (-1) * r.swap_vars("a", "b")).evaluate(
        {"a": values[0], "b": values[0], "c": values[2]}
    )
    assert twisted == 0
    for value in (r.evaluate(dict(zip(("a", "b", "c"), values))), twisted):
        if isinstance(value, MultiPoly):
            results.append(value)
        else:
            # no variable occurs: the constant term, as an int
            assert type(value) is int
    for out in results:
        assert_canonical(out)


def test_series_divide_examples():
    assert series_divide([0, 1], 2, 4) == (0, 1, 2, 3, 4)
    assert series_divide([0, 1], 3, 4) == (0, 1, 3, 6, 10)
    assert series_divide([1], 1, 3) == (1, 1, 1, 1)
    with pytest.raises(ValueError):
        series_divide([1, 1, 1], 2, 1)
    with pytest.raises(ValueError):
        series_divide([1], 0, 3)


def test_series_divide_rejects_a_negative_order():
    with pytest.raises(ValueError, match="^order must be nonnegative$"):
        series_divide([1], 1, -1)


@given(st.lists(st.integers(-50, 50), min_size=1, max_size=5), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_series_divide_round_trip(coeffs, r):
    # expand p * (1-t)^r densely, divide back, recover p
    one_minus_t = [1, -1]
    factor = [1]
    for _ in range(r):
        factor = unipoly_mul(factor, one_minus_t)
    product = unipoly_mul(coeffs, factor)
    order = len(coeffs) + r + 3
    got = series_divide(product, r, order)
    expected = list(coeffs) + [0] * (order + 1 - len(coeffs))
    assert list(got) == expected


@pytest.mark.parametrize("value", [0, 3, -7, 2**70])
def test_constants_hash_as_the_int_they_equal(value):
    over_xy = MultiPoly(("x", "y"), {(0, 0): value} if value else {})
    for c in (MultiPoly.const(value), over_xy, X + (-1) * X + value):
        assert c == value and hash(c) == hash(value)
        assert len({value, c}) == 1
    assert MultiPoly.zero(("x",)) == 0 and hash(MultiPoly.zero(("x",))) == hash(0)
