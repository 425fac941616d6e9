"""The FAIL payloads of the counting, lemma, grammar-claim, theorem,
jacobi and series suites, and how ``stirlingperms verify`` reports them.

Each case corrupts one input of one check with ``monkeypatch``, so that
one or a few compositions (or series) fail while the rest still pass.
The payload is pinned byte for byte; the command exits 1, ends its text
with the failure count, and renders the same text with and without
``--timing``.
"""

import json
from dataclasses import replace
from typing import Callable, NamedTuple

import pytest

from stirlingperms import gamma, jacobi, verify
from stirlingperms._backend import kernel
from stirlingperms.cli import main
from stirlingperms.poly import MultiPoly


def only_at(monkeypatch, owner, name, parts, change):
    """Replace ``owner.name`` by the same function with ``change`` applied
    to its result when its first argument is ``parts``."""
    real = getattr(owner, name)
    monkeypatch.setattr(
        owner, name, lambda *args: change(real(*args)) if args[0] == parts else real(*args)
    )


def brute_count_off_by_one(monkeypatch):
    only_at(monkeypatch, kernel, "brute_count", (1, 2), lambda count: count + 1)


def project_by_plateaux(monkeypatch, names, change):
    """Replace verify's projection onto the statistics ``names`` by the
    histogram of ``change(key, plat)``: each word's key, changed by its
    number of plateaux.  Returns the replacement."""
    real = verify.project_counts

    def project(parts, keys):
        if tuple(keys) != names:
            return real(parts, keys)
        out = {}
        for (*key, plat), c in real(parts, names + ("plat",)).items():
            k = change(tuple(key), plat)
            out[k] = out.get(k, 0) + c
        return out

    monkeypatch.setattr(verify, "project_counts", project)
    return project


def lemma_right_key_splits_plateaux(names):
    """The right-hand side of one lemma comparison, projected onto
    ``names``, sets apart the words with at least two plateaux, so
    compositions that have such words fail."""

    def corrupt(monkeypatch):
        project_by_plateaux(monkeypatch, names, lambda key, plat: key if plat < 2 else key + (0,))

    return corrupt


def asymmetric_grammar(monkeypatch):
    # the derivation and the enumeration agree on a polynomial whose xt
    # exponent is one higher than it should be on the words with a plateau
    names = ("sdes", "mdes", "uplat", "fplat", "asc")  # the label statistics over x, xt, y, yt, z
    project = project_by_plateaux(
        monkeypatch, names, lambda e, plat: e[:1] + (e[1] + (plat > 0),) + e[2:]
    )
    monkeypatch.setattr(
        verify,
        "quintuple_poly",
        lambda parts: MultiPoly._canonical(verify.QUINTUPLE_VARS, project(parts, names)),
    )


def expansion_gains(entry, value):
    """The expansion-side table of m=2,1 gains ``entry: value``."""

    def corrupt(monkeypatch):
        def change(t):
            return replace(t, entries={**t.entries, entry: value}, positive=t.positive and value > 0)

        # partial_gamma takes the polynomial, not the composition
        real = gamma.partial_gamma
        monkeypatch.setattr(
            gamma, "partial_gamma", lambda p: change(real(p)) if p == gamma.s_poly((2, 1)) else real(p)
        )

    return corrupt


def combinatorial_off_by_one(monkeypatch):
    only_at(
        monkeypatch,
        gamma,
        "gamma_combinatorial",
        (2, 1),
        lambda t: replace(t, entries={**t.entries, (1, 1): t.entry(1, 1) + 1}),
    )


def asymmetric_slice(monkeypatch):
    # s_poly(2,1) gains x^2*y*z, so its z-slice i=1 is not symmetric in x, y
    extra = MultiPoly(("x", "y", "z"), {(2, 1, 1): 1})
    only_at(monkeypatch, gamma, "s_poly", (2, 1), lambda p: p + extra)


def barred_poly_times_x(monkeypatch):
    # the collapsed polynomial of n=1, S={} gains a factor x
    only_at(monkeypatch, jacobi, "s_poly", (1, 2), lambda p: p * MultiPoly.var("x"))


def numerator_off_by_one(monkeypatch):
    only_at(monkeypatch, gamma, "_descent_numerator", (1, 1), lambda num: num[:-1] + [num[-1] + 1])


def table(*entries):
    """The JSON form of a gamma table of degree 4 with ``(i, j, gamma)`` entries."""
    return {
        "degree": 4,
        "entries": [{"g": str(g), "i": i, "j": j} for i, j, g in entries],
        "positive": all(g > 0 for _, _, g in entries),
    }


class Case(NamedTuple):
    suite: str
    corrupt: Callable[[pytest.MonkeyPatch], None]
    args: tuple  # of the one check whose payload is pinned
    payload: dict
    max_total: int
    failed: int
    checks: int


CASES = {
    "counting": Case(
        "counting",
        brute_count_off_by_one,
        ((1, 2),),
        {"brute_force": 3, "distinct": 2, "enumerated": 2, "formula": 2, "m": [1, 2]},
        3, 1, 8,
    ),
    "lemma-triple": Case(
        "lemma-equidistribution",
        lemma_right_key_splits_plateaux(("fplat", "sdes", "mdup", "asc")),
        ((3,),),
        {"diff": {"[1, 2, 1, 0]": [0, 1], "[1, 2, 1]": [1, 0]}, "kind": "triple", "m": [3]},
        3, 1, 8,
    ),
    "lemma-quintuple": Case(
        "lemma-equidistribution",
        lemma_right_key_splits_plateaux(("sdes", "fplat", "mdes", "uplat", "asc")),
        ((3,),),
        {"diff": {"[0, 1, 1, 1, 1, 0]": [0, 1], "[0, 1, 1, 1, 1]": [1, 0]}, "kind": "quintuple", "m": [3]},
        3, 1, 8,
    ),
    "grammar-symmetry": Case(
        "grammar-claim",
        asymmetric_grammar,
        ((1, 2),),
        {"kind": "xt-yt symmetry broken", "m": [1, 2]},
        3, 4, 8,
    ),
    "theorem-j0": Case(
        "theorem",
        expansion_gains((0, 0), 1),
        ((2, 1),),
        {
            "combinatorial": table((0, 2, 1), (1, 1, 1)),
            "detail": "nonzero j=0 coefficient at [(0, 0)]",
            "expansion": table((0, 0, 1), (0, 2, 1), (1, 1, 1)),
            "m": [2, 1],
        },
        3, 1, 7,
    ),
    "theorem-negative": Case(
        "theorem",
        expansion_gains((1, 1), -1),
        ((2, 1),),
        {
            "combinatorial": table((0, 2, 1), (1, 1, 1)),
            "detail": "negative coefficient at [(1, 1)]",
            "expansion": table((0, 2, 1), (1, 1, -1)),
            "m": [2, 1],
        },
        3, 1, 7,
    ),
    "theorem-mismatch": Case(
        "theorem",
        combinatorial_off_by_one,
        ((2, 1),),
        {
            "combinatorial": table((0, 2, 1), (1, 1, 2)),
            "detail": "first mismatch at (i,j)=(1, 1): expansion 1 vs count 2",
            "expansion": table((0, 2, 1), (1, 1, 1)),
            "m": [2, 1],
        },
        3, 1, 7,
    ),
    "theorem-not-symmetric": Case(
        "theorem",
        asymmetric_slice,
        ((2, 1),),
        {"error": "NotSymmetricError", "message": "slice i=1: not symmetric in x, y: 2*x^2*y + x*y^2"},
        3, 1, 7,
    ),
    "jacobi-not-symmetric": Case(
        "jacobi",
        barred_poly_times_x,
        (1,),
        {"error": "NotSymmetricError", "message": "slice i=1: not symmetric in x, y: x^3*y + x^2*y^2"},
        1, 1, 3,
    ),
    "series": Case(
        "series",
        numerator_off_by_one,
        ("eulerian", 2),
        {
            "expanded": [0, 1, 5, 12, 22, 35, 51, 70, 92],
            "kind": "eulerian",
            "n": 2,
            "numerator": [0, 1, 2],
            "target": [0, 1, 4, 9, 16, 25, 36, 49, 64],
        },
        1, 1, 8,
    ),
}


@pytest.mark.parametrize("case", CASES.values(), ids=CASES)
def test_failure_payload(monkeypatch, case):
    case.corrupt(monkeypatch)
    report = getattr(verify, verify._SUITES[case.suite][0])(*case.args)
    assert not report.passed
    assert report.counterexample == json.dumps(case.payload, sort_keys=True)


def run_verify(capsys, case, *extra):
    argv = ["verify", "--suite", case.suite, "--max-total", str(case.max_total), "--jobs", "1"]
    code = main(argv + list(extra))
    out = capsys.readouterr()
    assert out.err == ""
    return code, out.out


@pytest.mark.parametrize("case", CASES.values(), ids=CASES)
def test_verify_reports_the_failure(capsys, monkeypatch, case):
    case.corrupt(monkeypatch)
    code, text = run_verify(capsys, case)
    lines = text.splitlines()
    assert code == 1
    assert lines[-1] == f"RESULT FAIL ({case.failed} of {case.checks} checks failed)"
    assert sum(line.startswith(f"{case.suite} ") and " FAIL {" in line for line in lines) == case.failed
    assert run_verify(capsys, case, "--timing") == (1, text)
    code, out = run_verify(capsys, case, "--format", "json", "--timing")
    data = json.loads(out)
    assert code == 1 and data["passed"] is False
    assert [r["passed"] for r in data["reports"]] == [" PASS" in line for line in lines[: case.checks]]
    assert all(isinstance(r["wall_ms"], float) for r in data["reports"])
