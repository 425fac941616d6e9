"""Command-line surface.

Subcommands: enumerate, poly, gamma, grammar, gfs, jacobi, realroot,
verify.  Exit status is 0 for success (or a passing verify run),
1 when a verification run finds a failure, 2 on usage errors.

In JSON output, polynomial and gamma coefficients and word counts are
decimal strings, so nothing is clipped to machine width.  Every other
number (letters, exponents, multiplicities, ``n``, ``level``, ``i`` and
``j``, degrees, root counts, Sturm chain lengths, and the numbers in
verify's counterexample payloads) is a JSON number.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from math import comb
from typing import Sequence

from . import __version__, _backend
from . import gamma as gamma_mod
from . import gfs as gfs_mod
from . import jacobi as jacobi_mod
from . import roots as roots_mod
from . import verify as verify_mod
from .grammar import dumont_poly, quintuple_poly
from .words import (
    count_words,
    enumerate_words,
    format_composition,
    format_word,
    parse_composition,
    parse_word,
)


#: The most words ``enumerate`` (without ``--count-only``), ``poly``,
#: ``gamma``, ``realroot``, ``jacobi`` and ``verify`` build for one
#: multiplicity vector, or ``jacobi --level`` for one level.  The kernel
#: builds a word set in buffers of one byte per letter, so the set may
#: also hold at most ``16 * MAX_WORDS`` letters.  Words times letters
#: squared may be at most ``256 * 16 * MAX_WORDS``, which only a set of
#: words longer than 256 letters can exceed; every kernel is linear in
#: the word length, so that bound guards no cost, and it stays with its
#: message because ``tests/cli_corpus.json`` pins both.  Every vector of
#: total at most 10 fits: the largest, ``1,...,1``, has 3,628,800 words
#: of 10 letters.
MAX_WORDS = 5_000_000

#: The largest ``grammar --dumont`` order.  The cost of the derivative
#: grows about as the order to the power 2.7, so orders far past this
#: one do not finish at desk scale.
MAX_DUMONT = 2000

#: The most terms ``grammar --m`` may feed to its derivatives, summed over
#: the steps and bounded from the vector by ``_grammar_term_bound`` before
#: deriving: ``1,2,3`` repeated 10 times (at most 278,248 terms) is
#: admitted, repeated 11 times (435,889) is not.
MAX_GRAMMAR_TERMS = 300_000


class _UsageError(Exception):
    pass


@contextmanager
def _option(name: str):
    """Report a ValueError raised inside as a usage error of ``name``."""
    try:
        yield
    except ValueError as exc:
        raise _UsageError(f"{name}: {exc}") from None


def _refuse_above_budget(option: str, what: str, count: int, length: int) -> None:
    """Refuse a word set of ``count`` words of ``length`` letters above
    the budget before enumerating it."""
    if count > MAX_WORDS:
        raise _UsageError(
            f"{option}: {what} has {count} words, "
            f"more than the {MAX_WORDS} this command builds"
        )
    if count * length > 16 * MAX_WORDS:
        raise _UsageError(
            f"{option}: {what} has {count} words of {length} letters, "
            f"more than the {16 * MAX_WORDS} letters this command builds"
        )
    if count * length * length > 256 * 16 * MAX_WORDS:
        raise _UsageError(
            f"{option}: {what} has {count} words of {length} letters, "
            f"more than the {256 * 16 * MAX_WORDS} letter moves (words x letters^2) "
            "this command sorts"
        )


def _check_budget(parts: tuple[int, ...]) -> None:
    """Refuse a multiplicity vector above the budget."""
    _refuse_above_budget("--m", format_composition(parts), count_words(parts), sum(parts))


def _grammar_term_bound(parts: tuple[int, ...]) -> int:
    """At most this many terms, summed over the steps, in the polynomials
    that ``quintuple_poly(parts)`` derives.  After j blocks a term is
    fixed by how many of them replaced each label, and only ``z``, ``x``
    (once a part is 1), ``xt`` and ``yt`` (once a part is 2 or more) and
    ``y`` (once a part is 3 or more) can occur."""
    total, labels, has_one, top = 0, 1, False, 0
    for j, mk in enumerate(parts):
        total += comb(j + labels - 1, labels - 1)
        has_one, top = has_one or mk == 1, max(top, mk)
        labels = 1 + has_one + 2 * (top >= 2) + (top >= 3)
    return total


def _level_word_count(n: int, level: int) -> int:
    """Words of every subset of one level, summed without enumerating.

    ``count_words(m_of_s(n, S))`` multiplies, over the surviving
    alphabet, the number of gaps each letter's block can land in.  Before
    ``kb`` come the two copies of each of ``1..k-1`` and the ``j`` barred
    letters kept so far, so one pass over k, indexed by j, sums the
    product over every S.
    """
    row = [1]  # row[j]: the summed product over the choices keeping j barred letters
    for k in range(1, n + 1):
        nxt = [0] * (len(row) + 1)
        for j, c in enumerate(row):
            gaps = 2 * (k - 1) + j + 1
            nxt[j] += c * gaps  # kb removed: k lands in one of the gaps
            nxt[j + 1] += c * gaps * (gaps + 1)  # kb, then k in one gap more
        row = nxt
    return row[n - level]


def _check_total_budget(max_total: int) -> None:
    """Refuse a ``verify --max-total`` whose largest word set, that of
    ``1,...,1`` (``max_total!`` words), is above ``MAX_WORDS``, before
    building any task; the product stops at the first total over it."""
    total = count = 1
    while count <= MAX_WORDS and total < max_total:
        total += 1
        count *= total
    _refuse_above_budget(
        "--max-total", f"{max_total} includes {format_composition((1,) * total)}, which", count, total
    )


def _parse_set(value: str) -> tuple[int, ...]:
    value = value.strip()
    if not value:
        return ()
    try:
        return tuple(int(tok) for tok in value.split(","))
    except ValueError:
        raise ValueError(f"{value!r} is not a comma-separated integer list") from None


class _VersionAction(argparse.Action):
    def __init__(self, option_strings, dest, help=None):
        super().__init__(option_strings, dest, nargs=0, default=argparse.SUPPRESS, help=help)

    def __call__(self, parser, namespace, values, option_string=None):
        sys.stdout.write(
            f"{parser.prog} {__version__}\n"
            f"backend: {_backend.backend_name()}\n"
            f"kernel source: {_backend.kernel_source_status()}\n"
        )
        parser.exit()


def _command(sub, name: str, help: str, run, m: bool = False, formats: tuple[str, ...] = ("text", "json")):
    """Declare subcommand ``name``, answered by ``run(args)``, with its
    ``--format`` and, when it reads a multiplicity vector, its ``--m``."""
    p = sub.add_parser(name, help=help)
    p.set_defaults(run=run)
    if m:
        p.add_argument("--m", required=True, help="multiplicity vector, e.g. 2,2")
    p.add_argument("--format", choices=formats, default="text")
    return p


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stirlingperms",
        description="Exact engine for generalized Stirling words: enumeration, "
        "statistics, gamma tables, grammar derivatives, the hopping action, "
        "barred-alphabet specializations and real-rootedness certificates.",
    )
    parser.add_argument(
        "--version",
        action=_VersionAction,
        help="print the version, the kernel backend and whether the compiled "
        "kernel was built from the _core.c beside the package, then exit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "enumerate", "list the word set of a multiplicity vector", _cmd_enumerate, m=True)
    p.add_argument("--count-only", action="store_true", help="print only the count")

    _command(sub, "poly", "trivariate ascent/descent/plateau polynomial", _cmd_poly, m=True)

    p = _command(
        sub, "gamma", "gamma table of the trivariate polynomial", _cmd_gamma, m=True, formats=("text", "json", "csv")
    )
    p.add_argument(
        "--combinatorial",
        action="store_true",
        help="count representatives by (mdup, ascpp) instead of expanding",
    )

    p = _command(sub, "grammar", "iterated grammar derivatives", _cmd_grammar)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--m", help="derive the five-variable polynomial for this vector")
    g.add_argument(
        "--dumont",
        type=int,
        metavar="N",
        help="N-th derivative of x under the classical grammar {x->xy, y->xy}",
    )

    p = _command(sub, "gfs", "letter-hopping action on one word", _cmd_gfs)
    p.add_argument("--word", required=True, help="comma form 1,2,2,1 or digit form 1221")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--phi", type=int, metavar="X", help="apply the hop of letter X")
    g.add_argument("--phi-set", metavar="S", help="apply the hops of a letter set, e.g. 1,3")
    g.add_argument("--classify", type=int, metavar="X", help="value class of letter X")
    g.add_argument("--orbit", action="store_true", help="list the orbit")
    g.add_argument("--rep", action="store_true", help="canonical orbit representative")

    p = _command(sub, "jacobi", "barred-alphabet words and polynomials", _cmd_jacobi)
    p.add_argument("--n", type=int, required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--set", help="barred letters to remove, e.g. 1,3 (may be empty: '')")
    g.add_argument("--level", type=int, help="aggregate over all subsets of this size")
    p.add_argument("--words", action="store_true", help="list the words (with --set)")
    p.add_argument(
        "--poly",
        action="store_true",
        help="with --set and without --words: also enumerate and print the trivariate polynomial",
    )

    p = _command(sub, "realroot", "certify a plateau-refined descent polynomial", _cmd_realroot, m=True)
    p.add_argument("--i", type=int, required=True, help="plateau level")

    p = _command(sub, "verify", "run the exact verification suites", _cmd_verify)
    p.add_argument("--suite", choices=verify_mod.SUITE_NAMES, help="run one suite only")
    p.add_argument("--max-total", type=int, default=6)
    p.add_argument("--jobs", type=int, default=0, help="worker processes (0 = machine parallelism)")
    p.add_argument("--timing", action="store_true", help="include wall times in JSON output")
    return parser


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


@contextmanager
def _exact_decimals():
    """Lift Python's limit on the digits of an int converted to str while
    output renders, so a coefficient or count of any length prints as its
    exact decimal string; the old limit is restored afterwards."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _answer(args, payload, text: str) -> int:
    """Print ``payload`` as JSON or ``text`` (the text or csv form), as
    ``--format`` asks."""
    _emit(json.dumps(payload) if args.format == "json" else text)
    return 0


def _parts(args) -> tuple[int, ...]:
    with _option("--m"):
        return parse_composition(args.m)


def _cmd_enumerate(args) -> int:
    parts = _parts(args)
    if args.count_only:
        with _exact_decimals():
            count = str(count_words(parts))
        return _answer(args, {"m": list(parts), "count": count}, count)
    _check_budget(parts)
    ws = enumerate_words(parts)
    if args.format == "json":
        _emit(json.dumps({"m": list(parts), "count": str(len(ws)), "words": [format_word(w) for w in ws]}))
    else:  # line by line: never one string of up to MAX_WORDS words
        for w in ws:
            _emit(format_word(w))
    return 0


def _poly_answer(args, p) -> int:
    """Print the polynomial ``p`` with every coefficient whole."""
    with _exact_decimals():
        return _answer(args, p.to_json_dict(), str(p))


def _cmd_poly(args) -> int:
    parts = _parts(args)
    _check_budget(parts)
    return _poly_answer(args, gamma_mod.s_poly(parts))


def _cmd_grammar(args) -> int:
    if args.dumont is None:
        parts = _parts(args)
        terms = _grammar_term_bound(parts)
        if terms > MAX_GRAMMAR_TERMS:
            raise _UsageError(
                f"--m: deriving {format_composition(parts)} step by step may build {terms} terms, "
                f"more than the {MAX_GRAMMAR_TERMS} this command builds"
            )
        try:  # exponents past sys.maxsize
            p = quintuple_poly(parts)
        except OverflowError as exc:
            raise _UsageError(f"--m: {exc}") from None
        return _poly_answer(args, p)
    if args.dumont < 0:
        raise _UsageError("--dumont: the derivative order must be nonnegative")
    if args.dumont > MAX_DUMONT:
        raise _UsageError(f"--dumont: the derivative order must be at most {MAX_DUMONT}")
    return _poly_answer(args, dumont_poly(args.dumont))


def _cmd_gamma(args) -> int:
    parts = _parts(args)
    _check_budget(parts)
    if not parts and not args.combinatorial:
        # the empty word's base monomial x is not symmetric in x, y
        raise _UsageError("--m: the gamma expansion needs a nonempty multiset")
    table = (
        gamma_mod.gamma_combinatorial(parts)
        if args.combinatorial
        else gamma_mod.partial_gamma(gamma_mod.s_poly(parts))
    )
    rows = [f"i={i} j={j} gamma={g}" for (i, j), g in table.sorted_items()]
    text = "\n".join(rows + [f"positive: {str(table.positive).lower()}"])
    return _answer(args, table.to_json_dict(), table.to_csv() if args.format == "csv" else text)


def _cmd_gfs(args) -> int:
    with _option("--word"):
        word = parse_word(args.word)
        gfs_mod._pack_stirling(word)  # the hops act on Stirling words only
    if args.phi is not None:
        with _option("--phi"):
            payload = {"phi": args.phi, "image": format_word(gfs_mod.phi(word, args.phi))}
    elif args.phi_set is not None:
        with _option("--phi-set"):
            letters = _parse_set(args.phi_set)
            payload = {"phi_set": list(letters), "image": format_word(gfs_mod.phi_set(word, letters))}
    elif args.classify is not None:
        with _option("--classify"):
            payload = {"letter": args.classify, "class": gfs_mod.classify_value(word, args.classify).name}
    elif args.orbit:
        # the hops of the k letters that are not FIXED make 2^k words
        k = sum(gfs_mod.classify_value(word, x) != gfs_mod.ValueClass.FIXED for x in set(word))
        _refuse_above_budget("--orbit", f"the orbit of {format_word(word)}", 2**k, len(word))
        payload = {"orbit": [format_word(w) for w in gfs_mod.orbit(word)]}
    else:
        payload = {"representative": format_word(gfs_mod.canonical_rep(word))}
    out = list(payload.values())[-1]  # the answer is the last entry
    text = out if isinstance(out, str) else "\n".join(out)
    return _answer(args, {"word": format_word(word), **payload}, text)


def _cmd_jacobi(args) -> int:
    n = args.n
    if not 0 <= n <= jacobi_mod.MAX_N:
        raise _UsageError(f"--n: must lie in 0..{jacobi_mod.MAX_N}")
    if args.words and args.poly:
        raise _UsageError("--poly: not allowed with --words")
    level = args.level
    if level is not None:
        if not 0 <= level <= n:
            raise _UsageError(f"--level: must lie in 0..{n}")
        if args.words or args.poly:
            raise _UsageError(f"--{'words' if args.words else 'poly'}: needs --set, not --level")
        # every word of the level has the 2n doubled letters and n - level barred ones
        _refuse_above_budget(
            "--level", f"level {level} of n={n}", _level_word_count(n, level), 3 * n - level
        )
        p = jacobi_mod.jsp_level_poly(n, level)
        return _answer(args, {"n": n, "level": level, "poly": p.to_json_dict()}, str(p))
    with _option("--set"):
        subset = jacobi_mod._check_subset(n, _parse_set(args.set))
    mvec = jacobi_mod.m_of_s(n, subset)
    count = count_words(mvec)
    if args.words or args.poly:
        _refuse_above_budget("--set", f"m(S)={format_composition(mvec)}", count, sum(mvec))
    if args.words:
        words = [jacobi_mod.format_jword(j) for j in jacobi_mod.enumerate_jsp(n, subset)]
        return _answer(args, {"n": n, "set": list(subset), "words": words}, "\n".join(words))
    payload = {"n": n, "set": list(subset), "m_of_s": list(mvec), "count": str(count)}
    text = f"m(S)={format_composition(mvec)}\ncount={count}"
    if args.poly:
        p = jacobi_mod.jsp_stat_poly(n, subset)
        payload["poly"], text = p.to_json_dict(), f"{text}\n{p}"
    return _answer(args, payload, text)


def _cmd_realroot(args) -> int:
    parts = _parts(args)
    _check_budget(parts)
    with _option("--i"):
        p = roots_mod.s_mi(parts, args.i)
    if p.is_zero():
        payload = {"m": list(parts), "i": args.i, "poly": "0", "zero": True}
        return _answer(args, payload, "polynomial: 0 (empty slice)")
    # one walk of the chain of p itself gives the root count, the lengths
    # reported and, as the chain ends at gcd(p, p'), the certificate
    distinct, lengths = roots_mod._sturm_walk(p.coeffs)
    payload = {
        "m": list(parts),
        "i": args.i,
        "poly": [str(c) for c in p.coeffs],
        "real_rooted": distinct == lengths[0] - lengths[-1],
        "palindromic": roots_mod.is_palindromic(p),
        "distinct_real_roots": distinct,
        "sturm_chain_lengths": lengths,
    }
    # the text lists the verdicts after the polynomial, as JSON writes them
    lines = [f"polynomial: {p}"] + [f"{key}: {json.dumps(payload[key])}" for key in list(payload)[3:]]
    return _answer(args, payload, "\n".join(lines))


def _cmd_verify(args) -> int:
    if args.max_total < 1:
        raise _UsageError("--max-total: must be at least 1")
    if args.jobs < 0:
        raise _UsageError("--jobs: must be at least 0 (0 = machine parallelism)")
    jobs = args.jobs if args.jobs > 0 else (os.cpu_count() or 1)
    suites = (args.suite,) if args.suite else None
    # jacobi and series run at their fixed sizes, whatever --max-total says
    if args.suite not in ("jacobi", "series"):
        _check_total_budget(args.max_total)
    reports, notes = verify_mod.verify_all(args.max_total, jobs=jobs, suites=suites)
    if args.format == "json":
        _emit(verify_mod.render_json(reports, notes, timing=args.timing))
    else:
        _emit(verify_mod.render_text(reports, notes))
    return 0 if all(r.passed for r in reports) else 1


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args)
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
