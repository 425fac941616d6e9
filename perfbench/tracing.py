"""Per-layer tracing from outside the package.

``Tracer.install`` replaces chosen public functions of the package's
modules with timing wrappers, wherever a module holds a reference to
them, and ``uninstall`` puts the originals back.  Nothing inside
``src/`` is instrumented.  Each wrapped call is a span; spans nest on a
stack, so a layer's self time is its span minus the spans of the traced
calls it made.  Only aggregates are kept: calls, inclusive seconds
(outermost activation only), self seconds, a few work counters, and
per-call latencies for the functions the query metrics name.
"""

from __future__ import annotations

import sys
from math import factorial
from time import perf_counter

from stirlingperms import _backend, gamma, gfs, grammar, roots, stats, verify, words
from stirlingperms.poly import MultiPoly


def _multinomial(parts) -> int:
    out = factorial(sum(parts))
    for p in parts:
        out //= factorial(p)
    return out


def _count_words_of(tr, args, out):
    tr.add("kernel.words_of.words", len(out))
    tr.compositions.add(tuple(args[0]))


def _count_brute(tr, args, out):
    tr.add("kernel.brute_count.perms", _multinomial(args[0]))
    tr.add("kernel.brute_count.hits", out)


def _count_derive(tr, args, out):
    tr.add("grammar.terms_out", len(out.terms))


def _count_s_mi(tr, args, out):
    tr.add("roots.s_mi.words_scanned", words.count_words(args[0]))


#: (span name, owner, attribute, counter) for module-level functions.
FUNCTIONS = [
    ("kernel.words_of", _backend.kernel, "words_of", _count_words_of),
    ("kernel.profile12", _backend.kernel, "profile12", None),
    ("kernel.phi_letter", _backend.kernel, "phi_letter", None),
    ("kernel.classify_letter", _backend.kernel, "classify_letter", None),
    ("kernel.brute_count", _backend.kernel, "brute_count", _count_brute),
    ("kernel.enum_counts", _backend.kernel, "enum_counts", None),
    ("grammar.derive", grammar, "derive", _count_derive),
    ("grammar.quintuple_poly", grammar, "quintuple_poly", None),
    ("gamma.gamma_expand", gamma, "gamma_expand", None),
    ("gamma.s_poly", gamma, "s_poly", None),
    ("gamma.partial_gamma", gamma, "partial_gamma", None),
    ("roots.is_real_rooted", roots, "is_real_rooted", None),
    ("roots.s_mi", roots, "s_mi", _count_s_mi),
    ("gfs.canonical_rep", gfs, "canonical_rep", None),
    ("gfs.orbit", gfs, "orbit", None),
    ("words.is_stirling", words, "is_stirling", None),
    ("stats.profile", stats, "profile", None),
] + [
    (f"verify.{suite}", verify, fn, None)
    for suite, fn in (
        ("counting", "check_counting"),
        ("lemma-equidistribution", "check_lemma"),
        ("grammar-claim", "check_grammar"),
        ("gfs-properties", "check_gfs"),
        ("theorem", "check_theorem"),
        ("jacobi", "check_jacobi"),
        ("realroot", "check_realroot"),
        ("series", "check_series"),
    )
]

#: (span name, class attributes) for methods; reflected operators share a span.
METHODS = [
    ("poly.add", MultiPoly, ("__add__", "__radd__")),
    ("poly.mul", MultiPoly, ("__mul__", "__rmul__")),
    ("poly.evaluate", MultiPoly, ("evaluate",)),
]

#: Spans whose per-call latencies are kept, for the query p50 metrics.
SAMPLED = {
    "gfs.canonical_rep", "gfs.orbit", "words.is_stirling", "stats.profile",
    "gamma.s_poly", "gamma.partial_gamma", "roots.s_mi", "roots.is_real_rooted",
    "grammar.quintuple_poly",
}


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.seconds: dict[str, float] = {}
        self.self_seconds: dict[str, float] = {}
        self.counters: dict[str, int] = {}
        self.samples: dict[str, list[float]] = {name: [] for name in SAMPLED}
        self.compositions: set[tuple[int, ...]] = set()
        self._stack: list[float] = []
        self._depth: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []

    def add(self, counter: str, value: int) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value

    def _wrap(self, name, fn, counter):
        stack, depth = self._stack, self._depth
        sampled = name in SAMPLED

        def traced(*args, **kwargs):
            depth[name] = depth.get(name, 0) + 1
            stack.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                children = stack.pop()
                if stack:
                    stack[-1] += dt
                depth[name] -= 1
                self.calls[name] = self.calls.get(name, 0) + 1
                self.self_seconds[name] = self.self_seconds.get(name, 0.0) + dt - children
                if not depth[name]:
                    self.seconds[name] = self.seconds.get(name, 0.0) + dt
                if sampled:
                    self.samples[name].append(dt * 1e6)
            if counter is not None:
                counter(self, args, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every target in every loaded package module that refers
        to it by name."""
        holders = [
            mod for key, mod in list(sys.modules.items())
            if key == "stirlingperms" or key.startswith("stirlingperms.")
        ]
        for name, owner, attr, counter in FUNCTIONS:
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, counter)
            for mod in holders:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        for name, cls, attrs in METHODS:
            wrapper = self._wrap(name, cls.__dict__[attrs[0]], None)
            for attr in attrs:
                self._patch(cls, attr, wrapper)

    def _patch(self, obj, attr, value) -> None:
        self._patched.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patched):
            setattr(obj, attr, original)
        self._patched.clear()

    def layers(self) -> dict:
        """Raw per-block aggregates, merged across blocks by the runner."""
        counters = dict(self.counters)
        counters["kernel.words_of.distinct"] = len(self.compositions)
        return {
            "calls": self.calls,
            "seconds": self.seconds,
            "self_seconds": self.self_seconds,
            "counters": counters,
            "samples": self.samples,
        }
