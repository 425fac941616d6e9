"""Command-line surface.

Subcommands: enumerate, poly, gamma, grammar, gfs, jacobi, realroot,
probe, verify.  Exit status is 0 for success (or a passing verify run),
1 when a verification run finds a failure, 2 on usage errors.

All numeric payloads in JSON output are decimal strings, so nothing is
clipped to machine width.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from . import __version__
from . import gamma as gamma_mod
from . import gfs as gfs_mod
from . import jacobi as jacobi_mod
from . import roots as roots_mod
from . import verify as verify_mod
from .grammar import dumont_poly, quintuple_poly
from .words import (
    composition_of,
    count_words,
    enumerate_words,
    format_composition,
    format_word,
    is_stirling,
    parse_composition,
    parse_word,
)


class _UsageError(Exception):
    pass


def _parse_m(value: str) -> tuple[int, ...]:
    try:
        return parse_composition(value)
    except ValueError as exc:
        raise _UsageError(f"--m: {exc}") from None


def _parse_the_word(value: str) -> tuple[int, ...]:
    try:
        return parse_word(value)
    except ValueError as exc:
        raise _UsageError(f"--word: {exc}") from None


def _parse_set(value: str) -> tuple[int, ...]:
    value = value.strip()
    if not value:
        return ()
    try:
        return tuple(int(tok) for tok in value.split(","))
    except ValueError:
        raise _UsageError(f"--set: {value!r} is not a comma-separated integer list") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stirlingperms",
        description="Exact engine for generalized Stirling words: enumeration, "
        "statistics, gamma tables, grammar derivatives, the hopping action, "
        "barred-alphabet specializations and real-rootedness certificates.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list the word set of a multiplicity vector")
    p.add_argument("--m", required=True, help="multiplicity vector, e.g. 2,2")
    p.add_argument("--count-only", action="store_true", help="print only the count")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("poly", help="trivariate ascent/descent/plateau polynomial")
    p.add_argument("--m", required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("gamma", help="gamma table of the trivariate polynomial")
    p.add_argument("--m", required=True)
    p.add_argument(
        "--combinatorial",
        action="store_true",
        help="count representatives by (mdup, ascpp) instead of expanding",
    )
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")

    p = sub.add_parser("grammar", help="iterated grammar derivatives")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--m", help="derive the five-variable polynomial for this vector")
    g.add_argument(
        "--dumont",
        type=int,
        metavar="N",
        help="N-th derivative of x under the classical grammar {x->xy, y->xy}",
    )
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("gfs", help="letter-hopping action on one word")
    p.add_argument("--word", required=True, help="comma form 1,2,2,1 or digit form 1221")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--phi", type=int, metavar="X", help="apply the hop of letter X")
    g.add_argument("--phi-set", metavar="S", help="apply the hops of a letter set, e.g. 1,3")
    g.add_argument("--classify", type=int, metavar="X", help="value class of letter X")
    g.add_argument("--orbit", action="store_true", help="list the orbit")
    g.add_argument("--rep", action="store_true", help="canonical orbit representative")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("jacobi", help="barred-alphabet words and polynomials")
    p.add_argument("--n", type=int, required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--set", help="barred letters to remove, e.g. 1,3 (may be empty: '')")
    g.add_argument("--level", type=int, help="aggregate over all subsets of this size")
    p.add_argument("--words", action="store_true", help="list the words (with --set)")
    p.add_argument(
        "--poly",
        action="store_true",
        help="with --set: also enumerate and print the trivariate polynomial",
    )
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("realroot", help="certify a plateau-refined descent polynomial")
    p.add_argument("--m", required=True)
    p.add_argument("--i", type=int, required=True, help="plateau level")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("probe", help="randomized stability falsification probe")
    p.add_argument("--m", required=True)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--refine", action="store_true", help="also try a structured grid and local descent")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("verify", help="run the exact verification suites")
    p.add_argument("--suite", choices=verify_mod.SUITE_NAMES, help="run one suite only")
    p.add_argument("--max-total", type=int, default=6)
    p.add_argument("--jobs", type=int, default=0, help="worker processes (0 = machine parallelism)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--timing", action="store_true", help="include wall times in JSON output")
    return parser


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _cmd_enumerate(args) -> int:
    parts = _parse_m(args.m)
    if args.count_only:
        total = count_words(parts)
        _emit(json.dumps({"m": list(parts), "count": str(total)}) if args.format == "json" else str(total))
        return 0
    ws = enumerate_words(parts)
    if args.format == "json":
        _emit(json.dumps({"m": list(parts), "count": str(len(ws)), "words": [format_word(w) for w in ws]}))
    else:
        for w in ws:
            _emit(format_word(w))
    return 0


def _cmd_poly(args) -> int:
    p = gamma_mod.s_poly(_parse_m(args.m))
    _emit(p.to_json() if args.format == "json" else str(p))
    return 0


def _cmd_gamma(args) -> int:
    parts = _parse_m(args.m)
    if not parts and not args.combinatorial:
        # the empty word's base monomial x is not symmetric in x, y
        raise _UsageError("--m: the gamma expansion needs a nonempty multiset")
    table = (
        gamma_mod.gamma_combinatorial(parts)
        if args.combinatorial
        else gamma_mod.partial_gamma(gamma_mod.s_poly(parts))
    )
    if args.format == "json":
        _emit(table.to_json())
    elif args.format == "csv":
        _emit(table.to_csv())
    else:
        for (i, j), g in table.sorted_items():
            _emit(f"i={i} j={j} gamma={g}")
        _emit(f"positive: {str(table.positive).lower()}")
    return 0


def _cmd_grammar(args) -> int:
    if args.dumont is not None:
        if args.dumont < 0:
            raise _UsageError("--dumont: the derivative order must be nonnegative")
        p = dumont_poly(args.dumont)
    else:
        p = quintuple_poly(_parse_m(args.m))
    _emit(p.to_json() if args.format == "json" else str(p))
    return 0


def _cmd_gfs(args) -> int:
    word = _parse_the_word(args.word)
    try:
        stirling = is_stirling(word, composition_of(word))
    except ValueError as exc:
        raise _UsageError(f"--word: {exc}") from None
    if not stirling:
        raise _UsageError(f"--word: {args.word!r} is not a generalized Stirling word")
    try:
        if args.phi is not None:
            out = format_word(gfs_mod.phi(word, args.phi))
            payload = {"word": format_word(word), "phi": args.phi, "image": out}
        elif args.phi_set is not None:
            letters = _parse_set(args.phi_set)
            out = format_word(gfs_mod.phi_set(word, letters))
            payload = {"word": format_word(word), "phi_set": list(letters), "image": out}
        elif args.classify is not None:
            cls = gfs_mod.classify_value(word, args.classify)
            out = cls.name
            payload = {"word": format_word(word), "letter": args.classify, "class": cls.name}
        elif args.orbit:
            orb = [format_word(w) for w in gfs_mod.orbit(word)]
            out = "\n".join(orb)
            payload = {"word": format_word(word), "orbit": orb}
        else:
            out = format_word(gfs_mod.canonical_rep(word))
            payload = {"word": format_word(word), "representative": out}
    except ValueError as exc:
        raise _UsageError(f"--word/--phi: {exc}") from None
    _emit(json.dumps(payload) if args.format == "json" else out)
    return 0


def _cmd_jacobi(args) -> int:
    n = args.n
    if n < 0:
        raise _UsageError("--n: must be nonnegative")
    try:
        if args.set is not None:
            subset = _parse_set(args.set)
            try:
                subset = jacobi_mod._check_subset(n, subset)
            except ValueError as exc:
                raise _UsageError(f"--set: {exc}") from None
            mvec = jacobi_mod.m_of_s(n, subset)
            if args.words:
                lines = [jacobi_mod.format_jword(j) for j in jacobi_mod.enumerate_jsp(n, subset)]
                payload = {"n": n, "set": list(subset), "words": lines}
                _emit(json.dumps(payload) if args.format == "json" else "\n".join(lines))
                return 0
            payload = {
                "n": n,
                "set": list(subset),
                "m_of_s": list(mvec),
                "count": str(count_words(mvec)),
            }
            lines = [f"m(S)={format_composition(mvec)}", f"count={count_words(mvec)}"]
            if args.poly:
                p = jacobi_mod.jsp_stat_poly(n, subset)
                payload["poly"] = p.to_json_dict()
                lines.append(str(p))
            _emit(json.dumps(payload) if args.format == "json" else "\n".join(lines))
            return 0
        level = args.level
        if not 0 <= level <= n:
            raise _UsageError(f"--level: must lie in 0..{n}")
        if args.words:
            raise _UsageError("--words: needs --set, not --level")
        p = jacobi_mod.jsp_level_poly(n, level)
        _emit(json.dumps({"n": n, "level": level, "poly": p.to_json_dict()}) if args.format == "json" else str(p))
        return 0
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _cmd_realroot(args) -> int:
    parts = _parse_m(args.m)
    try:
        p = roots_mod.s_mi(parts, args.i)
    except ValueError as exc:
        raise _UsageError(f"--i: {exc}") from None
    if p.is_zero():
        payload = {"m": list(parts), "i": args.i, "poly": "0", "zero": True}
        _emit(json.dumps(payload) if args.format == "json" else "polynomial: 0 (empty slice)")
        return 0
    # lengths of the chain that certifies p: it ends at gcd(p, p')
    lengths = [f.degree + 1 for f in roots_mod._sturm_chain(p)]
    real_rooted = roots_mod.is_real_rooted(p)
    palindromic = roots_mod.is_palindromic(p)
    distinct = roots_mod.sturm_real_roots(p)
    if args.format == "json":
        _emit(json.dumps({
            "m": list(parts),
            "i": args.i,
            "poly": [str(c) for c in p.coeffs],
            "real_rooted": real_rooted,
            "palindromic": palindromic,
            "distinct_real_roots": distinct,
            "sturm_chain_lengths": lengths,
        }))
    else:
        _emit(f"polynomial: {p}")
        _emit(f"real_rooted: {str(real_rooted).lower()}")
        _emit(f"palindromic: {str(palindromic).lower()}")
        _emit(f"distinct_real_roots: {distinct}")
        _emit(f"sturm_chain_lengths: {lengths}")
    return 0


def _cmd_probe(args) -> int:
    parts = _parse_m(args.m)
    if args.trials < 1:
        raise _UsageError("--trials: must be at least 1")
    p = gamma_mod.s_poly(parts)
    hit = roots_mod.stability_probe(p, trials=args.trials, seed=args.seed, refine=args.refine)
    disclaimer = (
        "no guarded zero found; this probe can only falsify, it never "
        "certifies nonvanishing"
    )
    if args.format == "json":
        _emit(json.dumps({
            "m": list(parts),
            "trials": args.trials,
            "seed": args.seed,
            "refine": args.refine,
            "counterexample": None if hit is None else {
                "point": {v: [str(re), str(im)] for v, (re, im) in sorted(hit.point.items())},
                "exact": hit.exact,
            },
            "disclaimer": None if hit is not None else disclaimer,
        }))
    elif hit is None:
        _emit(f"counterexample: none after {args.trials} trials (seed {args.seed})")
        _emit(f"disclaimer: {disclaimer}")
    else:
        _emit(f"counterexample: {hit.point_str()} (exact={str(hit.exact).lower()})")
    return 0


def _cmd_verify(args) -> int:
    if args.max_total < 1:
        raise _UsageError("--max-total: must be at least 1")
    jobs = args.jobs if args.jobs > 0 else (os.cpu_count() or 1)
    suites = (args.suite,) if args.suite else None
    reports, notes = verify_mod.verify_all(args.max_total, jobs=jobs, suites=suites)
    if args.format == "json":
        _emit(verify_mod.render_json(reports, notes, timing=args.timing))
    else:
        _emit(verify_mod.render_text(reports, notes))
    return 0 if all(r.passed for r in reports) else 1


_COMMANDS = {
    "enumerate": _cmd_enumerate,
    "poly": _cmd_poly,
    "gamma": _cmd_gamma,
    "grammar": _cmd_grammar,
    "gfs": _cmd_gfs,
    "jacobi": _cmd_jacobi,
    "realroot": _cmd_realroot,
    "probe": _cmd_probe,
    "verify": _cmd_verify,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
