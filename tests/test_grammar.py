import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stirlingperms import grammar, stats, verify, words
from stirlingperms.poly import MultiPoly
from conftest import assert_canonical, compositions_up_to, naive_derive

X, Y = MultiPoly.var("x"), MultiPoly.var("y")


def enumeration_side(parts):
    """Independent route: sum the label monomials over the word set."""
    total = MultiPoly.zero(grammar.QUINTUPLE_VARS)
    for w in words.enumerate_words(parts):
        p = stats.profile(w)
        evec = (p.sdes, p.mdes, p.uplat, p.fplat, p.asc)  # over x, xt, y, yt, z
        total = total + MultiPoly(grammar.QUINTUPLE_VARS, {evec: 1})
    return total


def test_dumont_derivatives():
    g = grammar.dumont_grammar()
    d1 = grammar.derive(g, X)
    assert d1 == X * Y
    d2 = grammar.derive(g, d1)
    assert d2 == X * Y * (X + Y)
    d3 = grammar.derive(g, d2)
    assert d3 == X * X * X * Y + 4 * X * X * Y * Y + X * Y * Y * Y
    assert grammar.dumont_poly(3) == d3


def test_derive_of_constant_is_zero():
    g = grammar.dumont_grammar()
    assert not grammar.derive(g, MultiPoly.const(7)).terms


@pytest.mark.parametrize("n", range(7))
def test_dumont_matches_permutation_statistics(n):
    side = MultiPoly.zero(("x", "y"))
    for w in words.enumerate_words((1,) * n):
        p = stats.profile(w)
        side = side + MultiPoly(("x", "y"), {(p.asc, p.des): 1})
    if n == 0:
        # zero derivatives leave the start variable untouched
        assert grammar.dumont_poly(0) == X
    else:
        assert grammar.dumont_poly(n) == side


@pytest.mark.parametrize("n", range(9))
def test_dumont_poly_matches_the_naive_derivative_chain(n):
    # the uniform-derivative loop against naive_derive over the Dumont grammar
    chain = X
    for _ in range(n):
        chain = naive_derive(grammar.dumont_grammar(), chain)
    fast = grammar.dumont_poly(n)
    assert_canonical(fast)
    assert fast == chain
    assert fast.vars == chain.vars


def test_dumont_poly_across_the_field_width_boundary():
    # orders 254..256 have exponent bounds 255..257: fields of 8, then 9 bits
    chain = X
    for n in range(1, 257):
        chain = naive_derive(grammar.dumont_grammar(), chain)
        if n >= 254:
            fast = grammar.dumont_poly(n)
            assert_canonical(fast)
            assert fast.vars == chain.vars and fast.terms == chain.terms, n


def test_dumont_poly_rejects_a_negative_order():
    with pytest.raises(ValueError, match="nonnegative"):
        grammar.dumont_poly(-1)


@pytest.mark.parametrize("n", [2.0, "2", None])
def test_dumont_poly_rejects_a_non_integer_order(n):
    # as s_mi rejects a float level: through operator.index
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        grammar.dumont_poly(n)


@pytest.mark.parametrize("parts", [(10**20,), (sys.maxsize, 1), (2**62, 2**62)])
def test_quintuple_poly_refuses_a_total_past_maxsize(parts):
    # derive_chain refuses the degree bound before any step, on either backend
    with pytest.raises(OverflowError, match="^the degree bound is too large$"):
        grammar.quintuple_poly(parts)


@pytest.mark.parametrize("n", range(1, 6))
def test_derive_n_matches_dumont_poly(n):
    chain = X
    for _ in range(n):
        chain = grammar.derive(grammar.dumont_grammar(), chain)
    assert chain == grammar.dumont_poly(n)


def test_gk_rules():
    g2 = grammar.gk(2)
    expected2 = MultiPoly(grammar.QUINTUPLE_VARS, {(0, 1, 0, 1, 1): 1})  # xt*yt*z
    assert all(g2.rules[v] == expected2 for v in grammar.QUINTUPLE_VARS)
    g1 = grammar.gk(1)
    expected1 = MultiPoly(grammar.QUINTUPLE_VARS, {(1, 0, 0, 0, 1): 1})  # x*z
    assert all(g1.rules[v] == expected1 for v in grammar.QUINTUPLE_VARS)
    g3 = grammar.gk(3)
    expected3 = MultiPoly(grammar.QUINTUPLE_VARS, {(0, 1, 1, 1, 1): 1})  # xt*yt*y*z
    assert all(g3.rules[v] == expected3 for v in grammar.QUINTUPLE_VARS)
    with pytest.raises(ValueError):
        grammar.gk(0)


def test_quintuple_poly_small():
    z = MultiPoly.var("z")
    assert grammar.quintuple_poly(()) == z
    x = MultiPoly.var("x")
    assert grammar.quintuple_poly((1,)) == x * z
    xt, yt = MultiPoly.var("xt"), MultiPoly.var("yt")
    expected = xt * yt * yt * z * z + xt * xt * yt * z * z + xt * xt * yt * yt * z
    assert grammar.quintuple_poly((2, 2)) == expected


@pytest.mark.parametrize("parts", compositions_up_to(6))
def test_grammar_claim(parts):
    assert grammar.quintuple_poly(parts) == enumeration_side(parts)


def test_grammar_claim_failure_carries_the_enumerated_side(monkeypatch):
    """A skewed derivation fails, and the enumerated side of the payload,
    wrapped without checks, equals the word-by-word oracle."""
    parts = (2, 1, 2)
    bump = MultiPoly(grammar.QUINTUPLE_VARS, {(0, 0, 0, 0, 9): 1})
    monkeypatch.setattr(verify, "quintuple_poly", lambda m: grammar.quintuple_poly(m) + bump)
    expected = {
        "m": [2, 1, 2],
        "derived": (grammar.quintuple_poly(parts) + bump).to_json_dict(),
        "enumerated": enumeration_side(parts).to_json_dict(),
    }
    assert verify.check_grammar(parts).counterexample == json.dumps(expected, sort_keys=True)


@pytest.mark.parametrize("total", range(9))
def test_quintuple_poly_matches_generic_derivative_chain(total):
    # the raw-exponent operator loop against naive_derive over gk(m_i)
    for parts in words.compositions_of(total):
        chain = MultiPoly.var("z")
        for mk in parts:
            chain = naive_derive(grammar.gk(mk), chain)
        fast = grammar.quintuple_poly(parts)
        assert_canonical(fast)
        assert fast.vars == chain.vars and fast.terms == chain.terms, parts


@pytest.mark.parametrize(
    "parts",
    [(254,), (255,), (256,), (300,), (3, 1, 300), (1,) * 255],
    ids=lambda m: f"{len(m)}-parts-total-{sum(m)}",
)
def test_quintuple_poly_across_the_field_width_boundary(parts):
    # exponent bounds total + 1 from 255 to 305: fields of 8 bits, then 9
    chain = MultiPoly.var("z")
    for mk in parts:
        chain = naive_derive(grammar.gk(mk), chain)
    fast = grammar.quintuple_poly(parts)
    assert_canonical(fast)
    assert fast.vars == chain.vars and fast.terms == chain.terms


@pytest.mark.parametrize("parts", compositions_up_to(6))
def test_quintuple_poly_symmetric_in_xt_yt(parts):
    p = grammar.quintuple_poly(parts)
    assert p == p.swap_vars("xt", "yt")


def test_missing_rule_error():
    with pytest.raises(grammar.MissingRuleError) as einfo:
        grammar.Grammar({"x": MultiPoly.var("w")})
    assert einfo.value.var == "w"
    g = grammar.dumont_grammar()
    with pytest.raises(grammar.MissingRuleError) as einfo:
        grammar.derive(g, MultiPoly.var("q"))
    assert einfo.value.var == "q"


def test_missing_rule_error_text():
    with pytest.raises(grammar.MissingRuleError) as einfo:
        grammar.derive(grammar.dumont_grammar(), MultiPoly.var("q"))
    assert str(einfo.value) == "no substitution rule for variable 'q'"


@given(
    st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
        st.integers(-100, 100),
        max_size=4,
    ),
    st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
        st.integers(-100, 100),
        max_size=4,
    ),
)
@settings(max_examples=60, deadline=None)
def test_derive_is_linear(terms_p, terms_q):
    g = grammar.dumont_grammar()
    p = MultiPoly(("x", "y"), terms_p)
    q = MultiPoly(("x", "y"), terms_q)
    assert grammar.derive(g, p + q) == grammar.derive(g, p) + grammar.derive(g, q)


GRAMMARS = [grammar.gk(k) for k in range(1, 5)] + [grammar.dumont_grammar()]


@given(
    st.sampled_from(GRAMMARS),
    st.dictionaries(
        st.tuples(*(st.integers(0, 3) for _ in grammar.QUINTUPLE_VARS)),
        st.integers(-50, 50),
        max_size=6,
    ),
)
@settings(max_examples=150, deadline=None)
def test_derive_matches_naive_oracle(g, terms):
    # Variables without a rule (xt, yt, z under the Dumont grammar) keep
    # exponent 0, so p.vars still lists them.
    ruled = [v in g.rules for v in grammar.QUINTUPLE_VARS]
    p = MultiPoly(
        grammar.QUINTUPLE_VARS,
        {tuple(e * r for e, r in zip(evec, ruled)): c for evec, c in terms.items()},
    )
    fast, slow = grammar.derive(g, p), naive_derive(g, p)
    assert fast == slow
    assert fast.vars == slow.vars


def test_derive_skips_rule_lookup_for_absent_variables():
    g = grammar.dumont_grammar()
    p = MultiPoly(("q", "x"), {(0, 1): 1})
    d = grammar.derive(g, p)
    assert d == X * Y
    assert d.vars == ("q", "x", "y") == naive_derive(g, p).vars


def test_derive_raises_for_first_missing_rule_like_naive():
    g = grammar.dumont_grammar()
    p = MultiPoly(("q", "r", "x"), {(0, 1, 1): 1, (1, 0, 0): 2})
    with pytest.raises(grammar.MissingRuleError) as fast:
        grammar.derive(g, p)
    with pytest.raises(grammar.MissingRuleError) as slow:
        naive_derive(g, p)
    assert fast.value.var == slow.value.var


def test_derive_leibniz_on_product():
    g = grammar.dumont_grammar()
    p, q = X + Y, X * Y
    assert grammar.derive(g, p * q) == grammar.derive(g, p) * q + p * grammar.derive(g, q)


def test_grammar_json():
    rules = grammar.dumont_grammar().rules
    assert set(rules) == {"x", "y"}
    assert rules["x"].to_json_dict()["terms"] == [{"e": [1, 1], "c": "1"}]
