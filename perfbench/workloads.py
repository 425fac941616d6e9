"""The four benchmark workloads and their correctness gates.

Each workload turns a seed and a scale into fixed inputs, runs timed
blocks of work against the package as it imports, and checks every
output outside the timed region.  A block returns its duration, one
latency per operation, and the outputs the gate needs; the gate returns
``(attempted, failed)``.

- ``verify-sweep``: ``verify.verify_all`` over all eight suites, the
  product's end-to-end command.
- ``counting``: the counting criterion, where the kernel brute filter
  does almost all of the work and no algebra runs.
- ``grammar-algebra``: enumeration-free algebra, where the kernel does
  no work at all.
- ``api-queries``: a closed loop of single public-API calls from one
  client, where per-call overhead counts.

This module imports ``stirlingperms``; only the worker process loads it.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from math import comb
from pathlib import Path
from time import perf_counter

from stirlingperms import gamma, gfs, grammar, roots, stats, verify, words
from stirlingperms.poly import MultiPoly
from stirlingperms.roots import UniPoly

import reference

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

#: Sizes per scale: ``full`` is what the benchmark measures, ``tiny``
#: is a seconds-long smoke size for the benchmark's own tests.
SIZES = {
    "full": {"sweep_max_total": 7, "counting_max_total": 8, "counting_extras": True,
             "algebra_total": 9, "api_totals": (3, 7), "api_block": 1000},
    "tiny": {"sweep_max_total": 3, "counting_max_total": 4, "counting_extras": False,
             "algebra_total": 4, "api_totals": (3, 4), "api_block": 50},
}


def _timed(fn, *args):
    t0 = perf_counter()
    out = fn(*args)
    return out, (perf_counter() - t0) * 1e6


def shuffled(items, seed: int) -> list:
    out = list(items)
    random.Random(seed).shuffle(out)
    return out


# -- verify-sweep ------------------------------------------------------------


def report_lines(reports, notes) -> list[str]:
    """The text report without the ``backend:`` note, which names the
    backend rather than a result."""
    text = verify.render_text(reports, notes)
    return [line for line in text.splitlines() if not line.startswith("backend:")]


def expected_sweep_path(max_total: int) -> Path:
    return EXPECTED_DIR / f"verify-sweep-{max_total}.txt"


class VerifySweep:
    """The whole sweep is one block; the seed does not change it, since
    the sweep's inputs are fixed by ``max_total``."""

    name = "verify-sweep"
    blocks_per_process = 1

    def __init__(self, seed: int, scale: str):
        self.max_total = SIZES[scale]["sweep_max_total"]
        self.expected = expected_sweep_path(self.max_total).read_text().splitlines()

    def block(self):
        t0 = perf_counter()
        reports, notes = verify.verify_all(self.max_total, jobs=1)
        seconds = perf_counter() - t0
        # per-task latency as the report itself measures it
        return seconds, [r.wall_ms * 1000.0 for r in reports], (reports, notes)

    def check(self, outputs) -> tuple[int, int]:
        got = report_lines(*outputs)
        pairs = list(itertools.zip_longest(got, self.expected))
        return len(pairs), sum(1 for g, e in pairs if g != e)


# -- counting ----------------------------------------------------------------


def counting_extras() -> list[tuple[int, ...]]:
    """Compositions with at most 4 letters, parts at most 3 and total
    10 to 12: the larger cases of the counting criterion."""
    out = [
        c
        for n in range(1, 5)
        for c in itertools.product((1, 2, 3), repeat=n)
        if 10 <= sum(c) <= 12
    ]
    return sorted(out, key=lambda c: (sum(c), tuple(reversed(c))))


class CountingCriterion:
    """Every composition of total at most 8, plus the extras whose brute
    filter visits up to 9!-sized multiset permutations.  The 256
    compositions of total 9 are left out: one pass of them alone takes
    10-17 s, too long to repeat within one run."""

    name = "counting"
    blocks_per_process = 1

    def __init__(self, seed: int, scale: str):
        size = SIZES[scale]
        comps = words.compositions_up_to(size["counting_max_total"])
        if size["counting_extras"]:
            comps += counting_extras()
        self.comps = shuffled(comps, seed)

    def block(self):
        t0 = perf_counter()
        lat, outs = [], []
        for m in self.comps:
            r, us = _timed(verify.check_counting, m)
            outs.append(r)
            lat.append(us)
        return perf_counter() - t0, lat, outs

    def check(self, outputs) -> tuple[int, int]:
        failed = sum(
            1
            for m, r in zip(self.comps, outputs)
            if not (r.passed and r.params == f"m={words.format_composition(m)}")
        )
        return len(self.comps), failed


# -- grammar-algebra ---------------------------------------------------------

_X, _Y, _Z = MultiPoly.var("x"), MultiPoly.var("y"), MultiPoly.var("z")

#: Label variables to (asc, des, plat) variables: descents x, xt -> y,
#: plateaux y, yt -> z, ascents z -> x.  Turns quintuple_poly(m) into s_poly(m).
LABELS_TO_TRIPLE = {"x": _Y, "xt": _Y, "y": _Z, "yt": _Z, "z": _X}


def slice_descent_poly(s: MultiPoly) -> UniPoly:
    """A z-slice over (x, y) as a polynomial in its descent variable y."""
    iy = s.vars.index("y")
    coeffs: dict[int, int] = {}
    for evec, c in s.terms.items():
        coeffs[evec[iy]] = coeffs.get(evec[iy], 0) + c
    return UniPoly.of([coeffs.get(k, 0) for k in range(max(coeffs) + 1)])


def algebra_digest(trivariate: MultiPoly, table, flags) -> str:
    payload = json.dumps(
        [trivariate.to_json_dict(), table.to_json_dict(), flags], sort_keys=True
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def expected_algebra_path() -> Path:
    return EXPECTED_DIR / "grammar-algebra.json"


class GrammarAlgebra:
    name = "grammar-algebra"
    blocks_per_process = 1

    def __init__(self, seed: int, scale: str):
        self.comps = shuffled(words.compositions_of(SIZES[scale]["algebra_total"]), seed)
        self.expected = json.loads(expected_algebra_path().read_text())

    @staticmethod
    def run_one(m):
        trivariate = grammar.quintuple_poly(m).evaluate(LABELS_TO_TRIPLE)
        table = gamma.partial_gamma(trivariate)
        flags = []
        for _, s in trivariate.z_slices():
            u = slice_descent_poly(s)
            flags.append([roots.is_palindromic(u), roots.is_real_rooted(u)])
        return trivariate, table, flags

    def block(self):
        t0 = perf_counter()
        lat, outs = [], []
        for m in self.comps:
            out, us = _timed(self.run_one, m)
            outs.append(out)
            lat.append(us)
        return perf_counter() - t0, lat, outs

    def check(self, outputs) -> tuple[int, int]:
        failed = 0
        for m, (trivariate, table, flags) in zip(self.comps, outputs):
            ok = (
                sum(trivariate.terms.values()) == words.count_words(m)
                and table.entries
                and all(g > 0 for g in table.entries.values())
                and all(all(f) for f in flags)
                and algebra_digest(trivariate, table, flags)
                == self.expected.get(words.format_composition(m))
            )
            failed += not ok
        return len(self.comps), failed


# -- api-queries -------------------------------------------------------------

QUERY_KINDS = (
    "canonical_rep",
    "orbit",
    "is_stirling+profile",
    "partial_gamma(s_poly)",
    "s_mi+is_real_rooted",
    "quintuple_poly",
)


def random_composition(rng: random.Random, total: int) -> tuple[int, ...]:
    """Uniform over compositions of ``total``: each of the total - 1
    gaps is a cut with probability 1/2."""
    parts, run = [], 1
    for _ in range(total - 1):
        if rng.random() < 0.5:
            parts.append(run)
            run = 1
        else:
            run += 1
    parts.append(run)
    return tuple(parts)


def random_stirling_word(rng: random.Random, m: tuple[int, ...]) -> tuple[int, ...]:
    """Uniform over the word set: insert each block into a uniform gap
    (every word has exactly one insertion history)."""
    w: list[int] = []
    for k, mk in enumerate(m, start=1):
        g = rng.randrange(len(w) + 1)
        w[g:g] = [k] * mk
    return tuple(w)


def query_stream(seed: int, totals: tuple[int, int], oracle: "Oracle"):
    """Endless seeded stream of ``(kind, m, arg)`` queries on
    compositions with a uniform total in ``totals``."""
    rng = random.Random(seed)
    while True:
        kind = rng.choice(QUERY_KINDS)
        m = random_composition(rng, rng.randint(*totals))
        if kind in ("canonical_rep", "orbit"):
            arg = random_stirling_word(rng, m)
        elif kind == "is_stirling+profile":
            arg = random_stirling_word(rng, m)
            if rng.random() < 0.5:
                arg = tuple(rng.sample(arg, len(arg)))
        elif kind == "s_mi+is_real_rooted":
            # a plateau count the word set attains, so the slice is nonzero
            arg = rng.choice(oracle.plateau_levels(m))
        else:
            arg = None
        yield kind, m, arg


def answer(query):
    kind, m, arg = query
    if kind == "canonical_rep":
        return gfs.canonical_rep(arg)
    if kind == "orbit":
        return gfs.orbit(arg)
    if kind == "is_stirling+profile":
        ok = words.is_stirling(arg, m)
        return ok, stats.profile(arg) if ok else None
    if kind == "partial_gamma(s_poly)":
        return gamma.partial_gamma(gamma.s_poly(m))
    if kind == "s_mi+is_real_rooted":
        p = roots.s_mi(m, arg)
        return p, roots.is_real_rooted(p)
    return grammar.quintuple_poly(m)


class Oracle:
    """Answers checked by the benchmark's own word code (``reference``),
    independent of the package; word histograms are cached per composition."""

    def __init__(self):
        self._hist: dict[tuple[int, ...], dict[tuple[int, int, int], int]] = {}

    def histogram(self, m):
        if m not in self._hist:
            self._hist[m] = reference.histogram(m)
        return self._hist[m]

    def plateau_levels(self, m) -> list[int]:
        return sorted({plat for _, _, plat in self.histogram(m)})

    def ok(self, query, ans) -> bool:
        kind, m, arg = query
        if isinstance(ans, Exception):
            return False
        if kind == "canonical_rep":
            return (
                reference.is_stirling(ans, m)
                and reference.rep_stats(ans) == (0, 0)
                and ans in gfs.orbit(arg)
            )
        if kind == "orbit":
            n = len(ans)
            return (
                arg in ans
                and ans == sorted(set(ans))
                and n & (n - 1) == 0
                and all(reference.is_stirling(w, m) for w in ans)
                and sum(reference.rep_stats(w) == (0, 0) for w in ans) == 1
            )
        if kind == "is_stirling+profile":
            ok, prof = ans
            if ok != reference.is_stirling(arg, m):
                return False
            return not ok or (
                (prof.asc, prof.des, prof.plat) == reference.triple(arg)
                and (prof.sddes, prof.fdesp) == reference.rep_stats(arg)
                and prof.asc == prof.dasc + prof.ascpp
                and prof.mdup + prof.asc + prof.fplat + prof.sdes == len(arg) + 1
            )
        hist = self.histogram(m)
        if kind == "partial_gamma(s_poly)":
            return ans.positive and self._gamma_matches(ans.entries, hist, sum(m))
        if kind == "s_mi+is_real_rooted":
            p, real_rooted = ans
            coeffs: dict[int, int] = {}
            for (_, des, plat), c in hist.items():
                if plat == arg:
                    coeffs[des] = coeffs.get(des, 0) + c
            want = [coeffs.get(k, 0) for k in range(max(coeffs, default=-1) + 1)]
            return real_rooted is True and list(p.coeffs) == want
        # quintuple_poly: one label per index, symmetric under xt <-> yt
        terms = ans.terms
        return (
            ans.vars == ("x", "xt", "y", "yt", "z")
            and sum(terms.values()) == sum(hist.values())
            and all(sum(e) == sum(m) + 1 for e in terms)
            and all(terms.get((e[0], e[3], e[2], e[1], e[4])) == c for e, c in terms.items())
        )

    @staticmethod
    def _gamma_matches(entries, hist, total) -> bool:
        """Expanding sum_j g_ij (xy)^j (x+y)^(d-2j), d = total + 1 - i,
        gives back every plateau slice of the histogram."""
        if any(not 0 <= 2 * j <= total + 1 - i for i, j in entries):
            return False
        levels = {plat for _, _, plat in hist} | {i for i, _ in entries}
        for i in levels:
            d = total + 1 - i
            for a in range(d + 1):
                got = sum(
                    g * comb(d - 2 * j, a - j)
                    for (ii, j), g in entries.items()
                    if ii == i and 0 <= a - j <= d - 2 * j
                )
                if got != hist.get((a, d - a, i), 0):
                    return False
        return True


class ApiQueries:
    """One client issuing the seeded stream; a block is the next
    ``api_block`` queries of it."""

    name = "api-queries"
    blocks_per_process = None

    def __init__(self, seed: int, scale: str):
        size = SIZES[scale]
        self.oracle = Oracle()
        self.stream = query_stream(seed, size["api_totals"], self.oracle)
        self.block_size = size["api_block"]

    def block(self):
        queries = list(itertools.islice(self.stream, self.block_size))
        t0 = perf_counter()
        lat, outs = [], []
        for q in queries:
            t1 = perf_counter()
            try:
                out = answer(q)
            except Exception as exc:  # a raising call is a failed query, not a dead client
                out = exc
            lat.append((perf_counter() - t1) * 1e6)
            outs.append(out)
        return perf_counter() - t0, lat, list(zip(queries, outs))

    def check(self, outputs) -> tuple[int, int]:
        return len(outputs), sum(1 for q, a in outputs if not self._passes(q, a))

    def _passes(self, query, ans) -> bool:
        try:
            return self.oracle.ok(query, ans)
        except Exception:  # an answer of the wrong shape fails its query
            return False


WORKLOADS = {w.name: w for w in (VerifySweep, CountingCriterion, GrammarAlgebra, ApiQueries)}
