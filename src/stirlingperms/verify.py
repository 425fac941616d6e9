"""Batch verification suites over all small multiplicity vectors.

Each suite checks one family of exact identities; the harness runs the
suites over every composition with total at most ``max_total`` (the
barred-alphabet and series suites are parameterized by the alphabet
size instead, at their fixed desk-scale bounds).  All checks are exact;
a failing report always carries a machine-readable counterexample that
replays through the module that produced it.

Report ordering is deterministic (suites in declaration order,
compositions in colex grouped by total), and the rendered output is
independent of the worker count, so runs with different ``--jobs``
values are byte-identical.

The word-set suites read one cached joint statistic histogram per
composition (``stats.joint_counts``), so each composition is enumerated
and profiled once per process rather than once per suite.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Iterable

from ._backend import backend_name, kernel
from . import gamma as gamma_mod
from . import jacobi as jacobi_mod
from . import roots as roots_mod
from .grammar import QUINTUPLE_VARS, quintuple_exponents, quintuple_poly
from .poly import MultiPoly
from .stats import WORKED_EXAMPLE_NOTE, project_counts
from .words import (
    Composition,
    compositions_up_to,
    count_words,
    format_composition,
)

JACOBI_MAX_N = 3
SERIES_MAX_N = 4
SERIES_ORDER = 8


@dataclass(frozen=True)
class VerifyReport:
    """One suite outcome: parameters, verdict, and (on failure) a
    machine-readable counterexample payload."""

    suite: str
    params: str
    passed: bool
    counterexample: str | None
    wall_ms: float

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        base = f"{self.suite} {self.params} {verdict}"
        if self.counterexample:
            base += f" {self.counterexample}"
        return base

    def to_json_dict(self, timing: bool = False) -> dict:
        out: dict = {
            "suite": self.suite,
            "params": self.params,
            "passed": self.passed,
            "counterexample": json.loads(self.counterexample)
            if self.counterexample
            else None,
        }
        if timing:
            out["wall_ms"] = round(self.wall_ms, 3)
        return out


def _report(suite: str, params: str, started: float, failure: dict | None) -> VerifyReport:
    return VerifyReport(
        suite,
        params,
        failure is None,
        json.dumps(failure, sort_keys=True) if failure is not None else None,
        (perf_counter() - started) * 1000.0,
    )


def _word_str(w: bytes | tuple) -> str:
    return ",".join(str(c) for c in w)


# -- individual suites -------------------------------------------------


def check_counting(parts: Composition) -> VerifyReport:
    """Insertion enumeration, product formula and brute-force filter all
    agree, and the enumeration has no duplicates."""
    t0 = perf_counter()
    total, distinct = kernel.enum_counts(parts)
    formula = count_words(parts)
    brute = kernel.brute_count(parts)
    failure = None
    if not (total == distinct == formula == brute):
        failure = {
            "m": list(parts),
            "enumerated": total,
            "distinct": distinct,
            "formula": formula,
            "brute_force": brute,
        }
    return _report("counting", f"m={format_composition(parts)}", t0, failure)


#: The lemma's equidistributions as (kind, left key, right key) on
#: profile12 tuples: (des, plat, asc) ~ (fplat+sdes, mdup, asc), and
#: (sdes, mdes, fplat, uplat, asc) ~ (sdes, fplat, mdes, uplat, asc).
_LEMMA_PAIRS = (
    ("triple", lambda p: (p[2], p[1], p[0]), lambda p: (p[5] + p[3], p[11], p[0])),
    (
        "quintuple",
        lambda p: (p[3], p[4], p[5], p[6], p[0]),
        lambda p: (p[3], p[5], p[4], p[6], p[0]),
    ),
)


def check_lemma(parts: Composition) -> VerifyReport:
    """Triple equidistribution (des, plat, asc) ~ (fplat+sdes, mdup, asc)
    and the quintuple swap (sdes, mdes, fplat, uplat, asc) ~
    (sdes, fplat, mdes, uplat, asc)."""
    t0 = perf_counter()
    failure = None
    for kind, left, right in _LEMMA_PAIRS:
        lhs, rhs = project_counts(parts, left), project_counts(parts, right)
        if lhs != rhs:
            failure = {"m": list(parts), "kind": kind, "diff": _hist_diff(lhs, rhs)}
            break
    return _report(
        "lemma-equidistribution", f"m={format_composition(parts)}", t0, failure
    )


def _hist_diff(a: dict, b: dict) -> dict:
    keys = sorted(set(a) | set(b))
    return {
        str(list(k)): [a.get(k, 0), b.get(k, 0)]
        for k in keys
        if a.get(k, 0) != b.get(k, 0)
    }


def _label_exponents(p: tuple[int, ...]) -> tuple[int, ...]:
    """Exponents over QUINTUPLE_VARS of one word's label monomial."""
    return quintuple_exponents((p[3], p[4], p[5], p[6], p[0]))


def check_grammar(parts: Composition) -> VerifyReport:
    """The iterated grammar derivative of z equals the enumeration-side
    joint generating polynomial of (sdes, mdes, fplat, uplat, asc)."""
    t0 = perf_counter()
    derived = quintuple_poly(parts)
    enumerated = MultiPoly._canonical(QUINTUPLE_VARS, project_counts(parts, _label_exponents))
    failure = None
    if derived != enumerated:
        failure = {
            "m": list(parts),
            "derived": derived.to_json_dict(),
            "enumerated": enumerated.to_json_dict(),
        }
    elif derived != derived.swap_vars("xt", "yt"):
        failure = {"m": list(parts), "kind": "xt-yt symmetry broken"}
    return _report("grammar-claim", f"m={format_composition(parts)}", t0, failure)


def check_gfs(parts: Composition) -> VerifyReport:
    """Closure, involution, commutation, the movability toggle, mdup
    invariance, power-of-two orbits, the unique representative with its
    two statistic identities, and the orbit summation identity, in one
    ``kernel.gfs_scan`` call.

    A failure's payload is the scan's own answer: the failed check as
    ``kind``, the word it names (the representative for a check of a
    whole orbit, the member otherwise; none for the final cover) and,
    for a failed hop, its letter.
    """
    t0 = perf_counter()
    failure = kernel.gfs_scan(parts)
    if failure is not None:
        kind, word, letter = failure
        failure = {"m": list(parts), "kind": kind}
        if word is not None:
            failure["word"] = _word_str(word)
        if letter:
            failure["letter"] = letter
    return _report("gfs-properties", f"m={format_composition(parts)}", t0, failure)


def check_theorem(parts: Composition) -> VerifyReport:
    """Expansion-side and counting-side gamma tables agree entrywise,
    nonnegatively, with clean j = 0 rows."""
    t0 = perf_counter()
    report = gamma_mod.verify_theorem(parts)
    failure = None
    if not report.passed:
        failure = {
            "m": list(parts),
            "detail": report.detail,
            "expansion": report.expansion.to_json_dict(),
            "combinatorial": report.combinatorial.to_json_dict(),
        }
    return _report("theorem", f"m={format_composition(parts)}", t0, failure)


def check_jacobi(n: int) -> VerifyReport:
    """Barred-alphabet polynomials equal their collapsed counterparts
    for every subset, and every level aggregate has a nonnegative
    gamma table (one pass of ``jacobi.verify_conjecture``)."""
    t0 = perf_counter()
    report = jacobi_mod.verify_conjecture(n)
    failure = None
    if report.mismatch is not None:
        s, direct, collapsed = report.mismatch
        failure = {
            "n": n,
            "subset": list(s),
            "direct": direct.to_json_dict(),
            "collapsed": collapsed.to_json_dict(),
        }
    elif not report.passed:
        failure = {"n": n, "detail": report.detail}
    return _report("jacobi", f"n={n}", t0, failure)


def check_realroot(parts: Composition) -> VerifyReport:
    """Every nonzero plateau-refined descent polynomial is palindromic
    and certified real-rooted."""
    t0 = perf_counter()
    failure = None
    for level, row in enumerate(roots_mod._plateau_rows(parts)):
        p = roots_mod.UniPoly.of(row)
        if p.is_zero():
            continue
        if not roots_mod.is_palindromic(p):
            failure = {"m": list(parts), "level": level, "poly": list(p.coeffs), "kind": "palindromic"}
            break
        if not roots_mod.is_real_rooted(p):
            failure = {"m": list(parts), "level": level, "poly": list(p.coeffs), "kind": "real-rooted"}
            break
    return _report("realroot", f"m={format_composition(parts)}", t0, failure)


def check_series(kind: str, n: int) -> VerifyReport:
    """One classical truncated-series identity at the fixed order."""
    t0 = perf_counter()
    report = gamma_mod.classical_series_check(kind, n, SERIES_ORDER)
    failure = None
    if not report.passed:
        failure = {
            "kind": kind,
            "n": n,
            "numerator": list(report.numerator),
            "expanded": list(report.expanded.coeffs),
            "target": list(report.target),
        }
    return _report("series", f"kind={kind} n={n} K={SERIES_ORDER}", t0, failure)


# -- harness ------------------------------------------------------------

def _every_composition(max_total: int) -> list[tuple]:
    return [(m,) for m in compositions_up_to(max_total)]


def _nonempty_compositions(max_total: int) -> list[tuple]:
    return [(m,) for m in compositions_up_to(max_total) if m]


def _suite_table() -> dict[str, tuple[Callable[..., VerifyReport], Callable[[int], list[tuple]]]]:
    """Suite name -> (check function, argument tuples of its tasks for a
    given ``max_total``), in declaration order.

    Built on each call, so the ``check_*`` functions are read from the
    module when a task runs and a patched or wrapped attribute (a test
    double, a tracing wrapper) is the one that runs."""
    return {
        "counting": (check_counting, _every_composition),
        "lemma-equidistribution": (check_lemma, _every_composition),
        "grammar-claim": (check_grammar, _every_composition),
        # the empty word's grammar-base convention (asc = 1) sits outside
        # the orbit identities, so the action suite starts at total 1
        "gfs-properties": (check_gfs, _nonempty_compositions),
        "theorem": (check_theorem, _nonempty_compositions),
        "jacobi": (check_jacobi, lambda _: [(n,) for n in range(1, JACOBI_MAX_N + 1)]),
        "realroot": (check_realroot, _nonempty_compositions),
        "series": (
            check_series,
            lambda _: [
                (kind, n)
                for kind in ("eulerian", "second_order")
                for n in range(1, SERIES_MAX_N + 1)
            ],
        ),
    }


SUITE_NAMES = tuple(_suite_table())


def _tasks_for(suite: str, max_total: int) -> list[tuple]:
    try:
        _, task_args = _suite_table()[suite]
    except KeyError:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITE_NAMES)}") from None
    return [(suite, args) for args in task_args(max_total)]


def _run_task(task: tuple) -> VerifyReport:
    suite, args = task
    try:
        check, _ = _suite_table()[suite]
    except KeyError:
        raise ValueError(f"unknown suite {suite!r}") from None
    return check(*args)


def verify_all(
    max_total: int,
    jobs: int = 1,
    suites: Iterable[str] | None = None,
) -> tuple[list[VerifyReport], list[str]]:
    """Run the requested suites; returns (reports, informational notes).

    The report list is ordered by (suite declaration order, parameter
    order) regardless of ``jobs``.  The worker count is clamped to the
    number of tasks and of CPUs.
    """
    if max_total < 1:
        raise ValueError("max-total must be at least 1")
    chosen = tuple(suites) if suites is not None else SUITE_NAMES
    for s in chosen:
        if s not in SUITE_NAMES:
            raise ValueError(f"unknown suite {s!r}; choose from {', '.join(SUITE_NAMES)}")
    tasks: list[tuple] = []
    for s in chosen:
        tasks.extend(_tasks_for(s, max_total))
    jobs = min(jobs, len(tasks), os.cpu_count() or 1)
    if jobs <= 1:
        reports = [_run_task(t) for t in tasks]
    else:
        # imported here so that runs which never fork skip loading multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(_run_task, tasks, chunksize=1))
    notes = [WORKED_EXAMPLE_NOTE, f"backend: {backend_name()}"]
    return reports, notes


def render_text(reports: list[VerifyReport], notes: list[str]) -> str:
    lines = [r.line() for r in reports]
    lines.extend(notes)
    failed = sum(1 for r in reports if not r.passed)
    if failed:
        lines.append(f"RESULT FAIL ({failed} of {len(reports)} checks failed)")
    else:
        lines.append(f"RESULT PASS ({len(reports)} checks)")
    return "\n".join(lines) + "\n"


def render_json(reports: list[VerifyReport], notes: list[str], timing: bool = False) -> str:
    return json.dumps(
        {
            "reports": [r.to_json_dict(timing) for r in reports],
            "notes": notes,
            "passed": all(r.passed for r in reports),
        },
        indent=2,
        sort_keys=False,
    ) + "\n"
