import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stirlingperms import _pure, gamma, grammar, stats, words
from stirlingperms.poly import MultiPoly, series_divide
from conftest import assert_canonical, compositions_up_to, naive_gamma_expand, power

X, Y, Z = MultiPoly.var("x"), MultiPoly.var("y"), MultiPoly.var("z")


def test_s_poly_examples():
    assert gamma.s_poly((1, 1)) == X * X * Y + X * Y * Y
    assert gamma.s_poly((2, 2)) == X * X * Y * Y * Z + (X * X * Y + X * Y * Y) * Z * Z
    # empty word: the grammar-base convention makes its monomial x^1
    assert gamma.s_poly(()) == X


@given(st.sampled_from(compositions_up_to(7)))
@settings(max_examples=60, deadline=None)
def test_s_poly_equals_the_validating_constructor(parts):
    # s_poly wraps the histogram without checks; the public constructor
    # re-validates the same terms
    p = gamma.s_poly(parts)
    assert_canonical(p)
    assert p == MultiPoly(("x", "y", "z"), stats.project_counts(parts, ("asc", "des", "plat")))


#: Label variables to (asc, des, plat) variables: descents x, xt -> y,
#: plateaux y, yt -> z, ascents z -> x.
LABELS_TO_TRIPLE = {"x": Y, "xt": Y, "y": Z, "yt": Z, "z": X}


@pytest.mark.parametrize("parts", compositions_up_to(8))
def test_quintuple_poly_substitutes_to_s_poly(parts):
    assert grammar.quintuple_poly(parts).evaluate(LABELS_TO_TRIPLE) == gamma.s_poly(parts)


@pytest.mark.parametrize("n", range(1, 7))
def test_substituted_permutation_poly_spans_x_y(n):
    # only x and z occur in quintuple_poly((1,)*n); their values are y and x
    assert grammar.quintuple_poly((1,) * n).evaluate(LABELS_TO_TRIPLE).vars == ("x", "y")


def test_gamma_expand_examples():
    assert gamma.gamma_expand(X * X * Y + X * Y * Y) == [0, 1]
    assert gamma.gamma_expand(X * X * X * Y + 4 * X * X * Y * Y + X * Y * Y * Y) == [0, 1, 2]
    assert gamma.gamma_expand(power(X + Y, 2)) == [1, 0]
    assert gamma.gamma_expand(X * X + Y * Y) == [1, -2]
    assert gamma.gamma_expand(MultiPoly.zero(("x", "y"))) == []
    # x or y absent from the variable list
    assert gamma.gamma_expand(MultiPoly.const(3)) == [3]


@pytest.mark.parametrize("value", [5, "x", None, [1, 2]])
@pytest.mark.parametrize("expand", [gamma.partial_gamma, gamma.gamma_expand])
def test_expansions_need_a_multipoly(expand, value, monkeypatch):
    # refused before any kernel call
    monkeypatch.setattr(gamma, "kernel", None)
    with pytest.raises(TypeError) as einfo:
        expand(value)
    assert str(einfo.value) == f"{expand.__name__} needs a MultiPoly, got {type(value).__name__}"


def test_gamma_expand_errors():
    with pytest.raises(gamma.NotHomogeneousError):
        gamma.gamma_expand(X + X * X)
    with pytest.raises(gamma.NotSymmetricError):
        gamma.gamma_expand(X * X * Y)
    with pytest.raises(gamma.NotSymmetricError, match=r"y\^2$"):
        gamma.gamma_expand(Y * Y)
    with pytest.raises(ValueError):
        gamma.gamma_expand(X * Z)


@given(st.lists(st.integers(-30, 30), min_size=1, max_size=4), st.integers(0, 3))
@settings(max_examples=80, deadline=None)
def test_gamma_round_trip(gammas, extra_degree):
    degree = 2 * (len(gammas) - 1) + extra_degree
    h = MultiPoly.zero(("x", "y"))
    for j, g in enumerate(gammas):
        h = h + g * power(X * Y, j) * power(X + Y, degree - 2 * j)
    got = gamma.gamma_expand(h)
    want = list(gammas) + [0] * (degree // 2 + 1 - len(gammas))
    if not h.terms:
        assert got == []
    else:
        assert got == want


#: An optional extra variable, sorting before or after x and y.
EXTRA_VARS = st.sampled_from([(), ("w",), ("z",)])


@st.composite
def symmetric_homogeneous(draw):
    """A polynomial symmetric in x, y, homogeneous of degree d <= 8, with
    an extra variable at exponent 0 everywhere."""
    d = draw(st.integers(0, 8))
    half = draw(st.lists(st.integers(-50, 50), min_size=d // 2 + 1, max_size=d // 2 + 1))
    row = half + half[: (d + 1) // 2][::-1]
    extra = draw(EXTRA_VARS)
    zeros = (0,) * len(extra)
    return MultiPoly(("x", "y", *extra), {(k, d - k, *zeros): c for k, c in enumerate(row)})


@st.composite
def any_poly(draw):
    """A polynomial in x, y that is usually neither homogeneous nor
    symmetric, with an extra variable that may occur."""
    extra = draw(EXTRA_VARS)
    exps = st.tuples(*(st.integers(0, 4) for _ in ("x", "y")), *(st.integers(0, 1) for _ in extra))
    terms = draw(st.dictionaries(exps, st.integers(-50, 50), min_size=1, max_size=5))
    return MultiPoly(("x", "y", *extra), terms)


def expand_outcome(expand, h):
    try:
        return expand(h)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


@given(symmetric_homogeneous())
@settings(max_examples=150, deadline=None)
def test_gamma_expand_matches_oracle(h):
    assert gamma.gamma_expand(h) == naive_gamma_expand(h)


@given(any_poly())
@settings(max_examples=150, deadline=None)
def test_gamma_expand_rejects_like_oracle(h):
    assert expand_outcome(gamma.gamma_expand, h) == expand_outcome(naive_gamma_expand, h)


@pytest.mark.parametrize("total", range(1, 8))
def test_partial_gamma_matches_oracle(total):
    for parts in words.compositions_of(total):
        p = gamma.s_poly(parts)
        want = {
            (i, j): g
            for i, s in p.z_slices()
            for j, g in enumerate(naive_gamma_expand(s))
            if g
        }
        assert dict(gamma.partial_gamma(p).entries) == want, parts


def test_partial_gamma_examples():
    table = gamma.partial_gamma(gamma.s_poly((2, 2)))
    assert dict(table.entries) == {(1, 2): 1, (2, 1): 1}
    assert table.positive and table.degree == 5

    single = gamma.partial_gamma(X * Y * (X + Y))
    assert dict(single.entries) == {(0, 1): 1}
    assert single.positive

    negative = gamma.partial_gamma((X * X + Y * Y) * Z)
    assert dict(negative.entries) == {(1, 0): 1, (1, 1): -2}
    assert not negative.positive


def test_partial_gamma_error_annotates_slice():
    cases = [
        ((X + X * X) * Z, gamma.NotHomogeneousError, "slice i=1: not homogeneous: x^2 + x"),
        (X * X * Y * Z * Z, gamma.NotSymmetricError, "slice i=2: not symmetric in x, y: x^2*y"),
        (MultiPoly.var("w") * Z, ValueError, "z_slices needs variables within x,y,z, got ['w']"),
    ]
    for p, error, text in cases:
        with pytest.raises(error) as einfo:
            gamma.partial_gamma(p)
        assert type(einfo.value) is error and str(einfo.value) == text


@st.composite
def any_trivariate(draw):
    """A polynomial within x, y, z whose z-slices are usually neither
    homogeneous nor symmetric.  Half the draws add the x, y swap, which
    makes every slice symmetric and every one-term slice homogeneous, so
    that tables are built and later slices are reached."""
    vs = draw(st.sampled_from([("x", "y", "z"), ("x", "z"), ("y", "z"), ("x", "y"), ("z",)]))
    exps = st.tuples(*(st.integers(0, 3) for _ in vs))
    p = MultiPoly(vs, draw(st.dictionaries(exps, st.integers(-9, 9), min_size=1, max_size=6)))
    return p + p.swap_vars("x", "y") if draw(st.booleans()) else p


def naive_partial_gamma(p):
    """Per-slice :func:`naive_gamma_expand`, slices split off by hand in
    increasing i; the first failing slice raises its error, prefixed."""
    xyz = p.with_vars(("x", "y", "z"))
    entries, degree = {}, 0
    for i in sorted({ez for _, _, ez in xyz.terms}):
        s = MultiPoly(("x", "y"), {(ex, ey): c for (ex, ey, ez), c in xyz.terms.items() if ez == i})
        try:
            gammas = naive_gamma_expand(s)
        except (gamma.NotHomogeneousError, gamma.NotSymmetricError) as exc:
            raise type(exc)(f"slice i={i}: {exc}") from None
        degree = max(degree, i + max(map(sum, s.terms), default=-1))
        entries.update({(i, j): g for j, g in enumerate(gammas) if g})
    return gamma.GammaTable(degree, entries, all(g >= 0 for g in entries.values()))


@given(any_trivariate())
@settings(max_examples=300, deadline=None)
def test_partial_gamma_matches_per_slice_oracle(p):
    got, want = expand_outcome(gamma.partial_gamma, p), expand_outcome(naive_partial_gamma, p)
    assert got == want
    if isinstance(want, gamma.GammaTable):
        assert dict(got.entries) == dict(want.entries)


@given(any_trivariate())
@settings(max_examples=150, deadline=None)
def test_slice_readers_ignore_a_listed_variable_that_does_not_occur(p):
    # equality ignores w, so the slice readers must too
    wide = p.with_vars((*p.vars, "w"))
    assert wide == p
    for read in (gamma.partial_gamma, MultiPoly.z_slices):
        assert expand_outcome(read, wide) == expand_outcome(read, p)


def test_elimination_residue_is_reported(monkeypatch):
    # with every binomial read as 0 the pure elimination subtracts
    # nothing, so the symmetric row itself is left as the residue
    monkeypatch.setattr(gamma, "kernel", _pure)
    monkeypatch.setattr(_pure, "comb", lambda n, k: 0)
    with pytest.raises(gamma.InternalResidueError) as einfo:
        gamma.gamma_expand(X * X * Y + X * Y * Y)
    assert type(einfo.value) is gamma.InternalResidueError
    assert str(einfo.value) == "nonzero residue row [0, 1, 1, 0]"
    with pytest.raises(gamma.InternalResidueError) as einfo:
        gamma.partial_gamma(gamma.s_poly((2, 2)))
    assert type(einfo.value) is gamma.InternalResidueError
    assert str(einfo.value) == "slice i=1: nonzero residue row [0, 0, 1, 0, 0]"


def test_gamma_combinatorial_examples():
    assert dict(gamma.gamma_combinatorial((2, 2)).entries) == {(1, 2): 1, (2, 1): 1}
    assert dict(gamma.gamma_combinatorial((1,)).entries) == {(0, 1): 1}
    assert dict(gamma.gamma_combinatorial(()).entries) == {}


def test_verify_theorem_examples():
    assert gamma.verify_theorem((2, 2)).passed
    report = gamma.verify_theorem((1, 1, 1))
    assert report.passed
    # classical gamma vector of the degree-4 bivariate descent polynomial
    assert dict(report.expansion.entries) == {(0, 1): 1, (0, 2): 2}
    assert gamma.verify_theorem((2, 2, 2)).passed
    with pytest.raises(ValueError):
        gamma.verify_theorem(())


@pytest.mark.parametrize("parts", [p for p in compositions_up_to(6) if p])
def test_theorem_and_slice_structure(parts):
    total = sum(parts)
    p = gamma.s_poly(parts)
    assert p == p.swap_vars("x", "y")
    for i, s in p.z_slices():
        assert {sum(e) for e in s.terms} == {total + 1 - i}
    assert gamma.verify_theorem(parts).passed


@pytest.mark.parametrize("parts", [p for p in compositions_up_to(6) if p])
def test_gamma_row_sums_count_plateau_slices(parts):
    total = sum(parts)
    table = gamma.partial_gamma(gamma.s_poly(parts))
    plat_counts: dict[int, int] = {}
    for w in words.enumerate_words(parts):
        pl = stats.profile(w).plat
        plat_counts[pl] = plat_counts.get(pl, 0) + 1
    for i in sorted({i for i, _ in table.entries}):
        row_sum = sum(
            g * 2 ** (total + 1 - i - 2 * j)
            for (ii, j), g in table.entries.items()
            if ii == i
        )
        assert row_sum == plat_counts.get(i, 0)


def test_gamma_table_serialization():
    table = gamma.partial_gamma(gamma.s_poly((2, 2)))
    data = table.to_json_dict()
    assert data == {
        "degree": 5,
        "entries": [{"i": 1, "j": 2, "g": "1"}, {"i": 2, "j": 1, "g": "1"}],
        "positive": True,
    }
    assert table.to_csv() == "i,j,gamma\n1,2,1\n2,1,1\n"


def test_gamma_table_to_json_text():
    table = gamma.partial_gamma(gamma.s_poly((2, 2)))
    assert json.dumps(table.to_json_dict()) == (
        '{"degree": 5, "entries": [{"i": 1, "j": 2, "g": "1"}, {"i": 2, "j": 1, "g": "1"}], '
        '"positive": true}'
    )


def test_theorem_report_is_truthy_exactly_when_it_passes():
    report = gamma.verify_theorem((2, 1))
    assert report.passed and bool(report) is True
    assert bool(replace(report, passed=False)) is False


def test_classical_series_examples():
    r = gamma.classical_series_check("eulerian", 1, 5)
    assert r.passed and list(r.expanded) == [0, 1, 2, 3, 4, 5]
    r = gamma.classical_series_check("eulerian", 2, 4)
    assert r.passed and r.numerator == (0, 1, 1) and list(r.expanded) == [0, 1, 4, 9, 16]
    r = gamma.classical_series_check("second_order", 1, 4)
    assert r.passed and list(r.expanded) == [0, 1, 3, 6, 10]
    for got in (series_divide([0, 1], 3, 4), r.expanded):
        assert type(got) is tuple and all(type(c) is int for c in got)
    with pytest.raises(ValueError):
        gamma.classical_series_check("eulerian", 0, 8)
    with pytest.raises(ValueError):
        gamma.classical_series_check("cubic", 2, 8)
    with pytest.raises(ValueError):
        gamma.classical_series_check("eulerian", 3, 4)


@pytest.mark.parametrize("kind", ["eulerian", "second_order"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_classical_series_sweep(kind, n):
    assert gamma.classical_series_check(kind, n, 8).passed
