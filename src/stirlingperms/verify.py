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
composition (``stats._joint_counts``), so each composition is enumerated
and profiled once per process rather than once per suite.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import wraps
from time import perf_counter
from typing import Callable, Iterable

from ._backend import backend_name, kernel
from . import gamma as gamma_mod
from . import jacobi as jacobi_mod
from . import roots as roots_mod
from .grammar import QUINTUPLE_VARS, quintuple_poly
from .poly import MultiPoly
from .stats import LABEL_STATS, WORKED_EXAMPLE_NOTE, project_counts
from .words import (
    Composition,
    compositions_up_to,
    count_words,
    format_composition,
    format_word,
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


#: What the gamma expansion raises on a polynomial outside its domain.
_EXPANSION_ERRORS = (
    gamma_mod.NotHomogeneousError, gamma_mod.NotSymmetricError, gamma_mod.InternalResidueError
)

#: Declared suites in declaration order: name -> (attribute name of the
#: check, argument tuples of its tasks for a given ``max_total``).
_SUITES: dict[str, tuple[str, Callable[[int], list[tuple]]]] = {}


def _suite(name: str, tasks: Callable[[int], list[tuple]], params: Callable[..., str]):
    """Declare a suite: register it under ``name`` with its ``tasks``,
    and wrap a body that takes one task's arguments and returns the
    failure payload (or None) into the check that returns the timed
    :class:`VerifyReport`, with ``params(*args)`` as its parameters.
    A polynomial the gamma expansion refuses fails the task, with the
    error's type and message as its payload."""

    def declare(body: Callable[..., dict | None]) -> Callable[..., VerifyReport]:
        @wraps(body)
        def check(*args) -> VerifyReport:
            t0 = perf_counter()
            try:
                failure = body(*args)
            except _EXPANSION_ERRORS as exc:
                failure = {"error": type(exc).__name__, "message": str(exc)}
            return VerifyReport(
                name,
                params(*args),
                failure is None,
                None if failure is None else json.dumps(failure, sort_keys=True),
                (perf_counter() - t0) * 1000.0,
            )

        _SUITES[name] = (body.__name__, tasks)
        return check

    return declare


def _compositions(min_total: int) -> Callable[[int], list[tuple]]:
    """Tasks of a per-composition suite: each composition of total
    ``min_total`` through ``max_total``."""
    return lambda max_total: [(m,) for m in compositions_up_to(max_total, min_total)]


def _m(parts: Composition) -> str:
    return f"m={format_composition(parts)}"


# -- individual suites -------------------------------------------------


@_suite("counting", _compositions(0), _m)
def check_counting(parts: Composition) -> dict | None:
    """Insertion enumeration, product formula and brute-force filter all
    agree, and the enumeration has no duplicates."""
    total, distinct = kernel.enum_counts(parts)
    formula = count_words(parts)
    brute = kernel.brute_count(parts)
    if total == distinct == formula == brute:
        return None
    return {
        "m": list(parts),
        "enumerated": total,
        "distinct": distinct,
        "formula": formula,
        "brute_force": brute,
    }


@_suite("lemma-equidistribution", _compositions(0), _m)
def check_lemma(parts: Composition) -> dict | None:
    """Triple equidistribution (des, plat, asc) ~ (fplat+sdes, mdup, asc)
    and the quintuple swap (sdes, mdes, fplat, uplat, asc) ~
    (sdes, fplat, mdes, uplat, asc)."""
    triple = project_counts(parts, ("des", "plat", "asc"))
    folded: dict = {}
    for (fplat, sdes, *rest), c in project_counts(parts, ("fplat", "sdes", "mdup", "asc")).items():
        key = (fplat + sdes, *rest)
        folded[key] = folded.get(key, 0) + c
    if triple != folded:
        return {"m": list(parts), "kind": "triple", "diff": _hist_diff(triple, folded)}
    quintuple = project_counts(parts, ("sdes", "mdes", "fplat", "uplat", "asc"))
    swapped = project_counts(parts, ("sdes", "fplat", "mdes", "uplat", "asc"))
    if quintuple != swapped:
        return {"m": list(parts), "kind": "quintuple", "diff": _hist_diff(quintuple, swapped)}
    return None


def _hist_diff(a: dict, b: dict) -> dict:
    keys = sorted(set(a) | set(b))
    return {
        str(list(k)): [a.get(k, 0), b.get(k, 0)]
        for k in keys
        if a.get(k, 0) != b.get(k, 0)
    }


@_suite("grammar-claim", _compositions(0), _m)
def check_grammar(parts: Composition) -> dict | None:
    """The iterated grammar derivative of z equals the enumeration-side
    joint generating polynomial of (sdes, mdes, fplat, uplat, asc), each
    statistic counting its label variable (``stats.LABEL_STATS``)."""
    derived = quintuple_poly(parts)
    labels = project_counts(parts, [LABEL_STATS[v] for v in QUINTUPLE_VARS])
    enumerated = MultiPoly._canonical(QUINTUPLE_VARS, labels)
    if derived != enumerated:
        return {
            "m": list(parts),
            "derived": derived.to_json_dict(),
            "enumerated": enumerated.to_json_dict(),
        }
    if derived != derived.swap_vars("xt", "yt"):
        return {"m": list(parts), "kind": "xt-yt symmetry broken"}
    return None


# the empty word's grammar-base convention (asc = 1) sits outside the
# orbit identities, so the action suite starts at total 1
@_suite("gfs-properties", _compositions(1), _m)
def check_gfs(parts: Composition) -> dict | None:
    """Closure, involution, commutation, the movability toggle, mdup
    invariance, power-of-two orbits, the unique representative with its
    two statistic identities, and the orbit summation identity, in one
    ``kernel.gfs_scan`` call.

    A failure's payload is the scan's own answer: the failed check as
    ``kind``, the word it names (the representative for a check of a
    whole orbit, the member otherwise; none for the final cover) and,
    for a failed hop, its letter.
    """
    failure = kernel.gfs_scan(parts)
    if failure is None:
        return None
    kind, word, letter = failure
    payload = {"m": list(parts), "kind": kind}
    if word is not None:
        payload["word"] = format_word(word)
    if letter:
        payload["letter"] = letter
    return payload


@_suite("theorem", _compositions(1), _m)
def check_theorem(parts: Composition) -> dict | None:
    """Expansion-side and counting-side gamma tables agree entrywise,
    nonnegatively, with clean j = 0 rows."""
    report = gamma_mod.verify_theorem(parts)
    if report.passed:
        return None
    return {
        "m": list(parts),
        "detail": report.detail,
        "expansion": report.expansion.to_json_dict(),
        "combinatorial": report.combinatorial.to_json_dict(),
    }


@_suite("jacobi", lambda _: [(n,) for n in range(1, JACOBI_MAX_N + 1)], lambda n: f"n={n}")
def check_jacobi(n: int) -> dict | None:
    """Every level aggregate of the barred-alphabet polynomials (the
    collapsed ``s_poly`` of each subset) has a nonnegative gamma table
    (``jacobi.verify_conjecture``)."""
    report = jacobi_mod.verify_conjecture(n)
    return None if report.passed else {"n": n, "detail": report.detail}


@_suite("realroot", _compositions(1), _m)
def check_realroot(parts: Composition) -> dict | None:
    """Every nonzero plateau-refined descent polynomial is palindromic
    and certified real-rooted."""
    for level, row in roots_mod._plateau_rows(parts).items():
        p = roots_mod.UniPoly.of(row)
        for kind, holds in (
            ("palindromic", roots_mod.is_palindromic),
            ("real-rooted", roots_mod.is_real_rooted),
        ):
            if not holds(p):
                return {"m": list(parts), "level": level, "poly": list(p.coeffs), "kind": kind}
    return None


@_suite(
    "series",
    lambda _: [
        (kind, n) for kind in ("eulerian", "second_order") for n in range(1, SERIES_MAX_N + 1)
    ],
    lambda kind, n: f"kind={kind} n={n} K={SERIES_ORDER}",
)
def check_series(kind: str, n: int) -> dict | None:
    """One classical truncated-series identity at the fixed order."""
    report = gamma_mod.classical_series_check(kind, n, SERIES_ORDER)
    if report.passed:
        return None
    return {
        "kind": kind,
        "n": n,
        "numerator": list(report.numerator),
        "expanded": list(report.expanded),
        "target": list(report.target),
    }


# -- harness ------------------------------------------------------------

SUITE_NAMES = tuple(_SUITES)


def _run_task(task: tuple) -> VerifyReport:
    """Run one ``(suite, args)`` task through the check the module holds
    when it runs, so a patched or wrapped ``check_*`` attribute (a test
    double, a tracing wrapper) is the one that runs."""
    suite, args = task
    return globals()[_SUITES[suite][0]](*args)


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
    if isinstance(suites, str):
        raise TypeError(f"suites must be a collection of suite names, not the string {suites!r}")
    chosen = tuple(suites) if suites is not None else SUITE_NAMES
    if not chosen:
        raise ValueError(f"no suite chosen; choose from {', '.join(SUITE_NAMES)}")
    for s in chosen:
        if s not in _SUITES:
            raise ValueError(f"unknown suite {s!r}; choose from {', '.join(SUITE_NAMES)}")
    tasks = [(s, args) for s in chosen for args in _SUITES[s][1](max_total)]
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
