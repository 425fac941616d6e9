"""Exact sparse multivariate polynomials and truncated power series.

Coefficients are arbitrary-precision Python ints; exponents are
nonnegative.  Variables are referenced by name and kept sorted, so two
polynomials combine by aligning variable lists (a variable missing from
one side is treated as exponent 0 everywhere).

The public constructors validate their input; results of the arithmetic
are built by producers that guarantee the canonical form (sorted
distinct variables, integer exponent vectors of the right length, no
zero coefficient) and skip the checks.

>>> x, y = MultiPoly.var("x"), MultiPoly.var("y")
>>> print((x + y) * (x + y))
x^2 + 2*x*y + y^2
"""

from __future__ import annotations

from math import comb
from operator import index, mul
from typing import Iterable, Mapping, Sequence


def packed_width(bound: int) -> int:
    """Bits ``w`` per field of a packed exponent key, an int that holds the
    exponent of variable ``j`` from bit ``j*w`` up: while no exponent
    exceeds ``bound``, keys add and subtract field by field."""
    return bound.bit_length()


def unpack_terms(terms: Mapping[int, int], nvars: int, width: int) -> dict[tuple[int, ...], int]:
    """Tuple-keyed terms of packed ``terms`` over ``nvars`` variables of
    ``width`` bits each, without the zero coefficients."""
    mask = (1 << width) - 1
    offsets = [width * j for j in range(nvars)]
    return {tuple([k >> s & mask for s in offsets]): c for k, c in terms.items() if c}


def _merge_vars(a: tuple[str, ...], b: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(sorted(set(a) | set(b)))


class MultiPoly:
    """Sparse exact-integer polynomial in named variables."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars: Iterable[str] = (), terms: Mapping[tuple[int, ...], int] | None = None):
        if isinstance(vars, str):  # not split into one-letter names
            raise TypeError(f"variables must be a collection of names, not the string {vars!r}")
        vs = tuple(vars)
        if len(set(vs)) != len(vs):
            raise ValueError(f"duplicate variable in {vs}")
        order = tuple(sorted(vs))
        perm = [vs.index(v) for v in order]
        clean: dict[tuple[int, ...], int] = {}
        for evec, c in (terms or {}).items():
            if len(evec) != len(vs):
                raise ValueError(f"exponent vector {evec} does not match variables {vs}")
            evec = tuple(map(index, evec))
            if any(e < 0 for e in evec):
                raise ValueError(f"negative exponent in {evec}")
            c = index(c)
            if c == 0:
                continue
            key = tuple(evec[i] for i in perm)
            clean[key] = clean.get(key, 0) + c
            if clean[key] == 0:
                del clean[key]
        self.vars = order
        self.terms = clean

    @classmethod
    def _canonical(cls, vars: tuple[str, ...], terms: dict[tuple[int, ...], int]) -> "MultiPoly":
        """Wrap terms that are already canonical, without checking them:
        ``vars`` sorted and distinct, every exponent vector a tuple of
        nonnegative ints of length ``len(vars)``, no zero coefficient."""
        p = object.__new__(cls)
        p.vars = vars
        p.terms = terms
        return p

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, vars: Iterable[str] = ()) -> "MultiPoly":
        return cls(vars, {})

    @classmethod
    def const(cls, c: int) -> "MultiPoly":
        return cls((), {(): c} if c else {})

    @classmethod
    def var(cls, name: str) -> "MultiPoly":
        return cls((name,), {(1,): 1})

    # -- structure ----------------------------------------------------

    def with_vars(self, vars: Iterable[str]) -> "MultiPoly":
        """Re-express over a superset of the current variables."""
        if isinstance(vars, str):
            raise TypeError(f"variables must be a collection of names, not the string {vars!r}")
        new = tuple(sorted(vars))
        if new == self.vars:
            return self
        if len(set(new)) != len(new):
            raise ValueError(f"duplicate variable in {new}")
        missing = set(self.vars) - set(new)
        if missing:
            raise ValueError(f"cannot drop variables {sorted(missing)}")
        pos = {v: i for i, v in enumerate(new)}
        out: dict[tuple[int, ...], int] = {}
        for evec, c in self.terms.items():
            key = [0] * len(new)
            for v, e in zip(self.vars, evec):
                key[pos[v]] = e
            out[tuple(key)] = c
        return MultiPoly._canonical(new, out)

    def _aligned(self, other: "MultiPoly") -> tuple["MultiPoly", "MultiPoly"]:
        vs = _merge_vars(self.vars, other.vars)
        return self.with_vars(vs), other.with_vars(vs)

    def terms_sorted(self) -> list[tuple[tuple[int, ...], int]]:
        """Terms in descending graded-lex order (the canonical order)."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other) -> "MultiPoly | None":
        if isinstance(other, MultiPoly):
            return other
        if isinstance(other, int):
            return MultiPoly.const(other)
        return None

    def __add__(self, other) -> "MultiPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._aligned(o)
        out = dict(a.terms)
        for evec, c in b.terms.items():
            out[evec] = out.get(evec, 0) + c
            if out[evec] == 0:
                del out[evec]
        return MultiPoly._canonical(a.vars, out)

    __radd__ = __add__

    def __mul__(self, other) -> "MultiPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._aligned(o)
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                key = tuple(u + v for u, v in zip(e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
                if out[key] == 0:
                    del out[key]
        return MultiPoly._canonical(a.vars, out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._aligned(o)
        return a.terms == b.terms

    def __hash__(self):
        # hash over nonzero structure only, consistent with aligned equality
        if not any(map(any, self.terms)):  # a constant (or zero) equals its int
            return hash(sum(self.terms.values()))
        live = tuple(sorted(
            (tuple((v, e) for v, e in zip(self.vars, evec) if e), c)
            for evec, c in self.terms.items()
        ))
        return hash(live)

    # -- queries ------------------------------------------------------

    def swap_vars(self, u: str, v: str) -> "MultiPoly":
        """Exchange two variables (either may be absent)."""
        p = self.with_vars(_merge_vars(self.vars, (u, v)))
        iu, iv = p.vars.index(u), p.vars.index(v)
        out: dict[tuple[int, ...], int] = {}
        for evec, c in p.terms.items():
            key = list(evec)
            key[iu], key[iv] = key[iv], key[iu]
            out[tuple(key)] = c
        return MultiPoly._canonical(p.vars, out)

    def z_slices(self) -> list[tuple[int, "MultiPoly"]]:
        """Decompose a polynomial in x, y, z by powers of z.

        Returns ``[(i, s_i)]`` with each nonzero ``s_i`` over (x, y),
        sorted by i, as a view over :meth:`_z_buckets`, the one pass that
        reads every slice that :mod:`~stirlingperms.gamma` expands.
        """
        buckets = self._z_buckets()
        return [(i, MultiPoly._canonical(("x", "y"), buckets[i])) for i in sorted(buckets)]

    def _xyz(self) -> tuple[int, int, int]:
        """The positions of x, y and z in each exponent vector, its length
        for an absent one.  Any other variable may be listed, as equality
        ignores it, but must not occur."""
        vs = self.vars
        others = [i for i, v in enumerate(vs) if v not in ("x", "y", "z")]
        found = sorted({vs[i] for evec in self.terms for i in others if evec[i]}) if others else []
        if found:
            raise ValueError(f"z_slices needs variables within x,y,z, got {found}")
        ix, iy, iz = (vs.index(v) if v in vs else len(vs) for v in ("x", "y", "z"))
        return ix, iy, iz

    def _z_buckets(self) -> dict[int, dict[tuple[int, int], int]]:
        """Terms grouped by the power of z and keyed by their (x, y)
        exponents, with the variable rule of :meth:`_xyz`."""
        # an absent variable reads the 0 appended to each exponent vector
        ix, iy, iz = self._xyz()
        buckets: dict[int, dict[tuple[int, int], int]] = {}
        for evec, c in self.terms.items():
            evec += (0,)
            buckets.setdefault(evec[iz], {})[evec[ix], evec[iy]] = c
        return buckets

    def evaluate(self, assignment: Mapping[str, "MultiPoly"]) -> "MultiPoly | int":
        """Substitute a one-term ``MultiPoly`` ``C*x^K`` for each variable.

        One pass over the terms, on exponent vectors packed into ints:
        each term's key shifts by ``e*K`` and its coefficient scales by
        ``C^e``.  The result spans the values of the variables that
        occur, and is an int (the constant term, or 0) when none occurs.
        Only the variables that occur need a value, as equality ignores
        the rest; a value that is not a one-term ``MultiPoly`` (an int, a
        value of several terms, the zero polynomial) raises ``ValueError``.
        """
        top = list(map(max, zip(*self.terms)))
        occurring = [(i, v) for i, (v, e) in enumerate(zip(self.vars, top)) if e]
        missing = [v for _, v in occurring if v not in assignment]
        if missing:
            raise ValueError(f"no value for variables {missing}")
        for _, v in occurring:
            val = assignment[v]
            if not (isinstance(val, MultiPoly) and len(val.terms) == 1):
                raise ValueError(f"the value of {v} must be a one-term MultiPoly, got {val!r}")
        # (position, vars, exponents, coefficient) of each occurring variable's value
        used = [(i, assignment[v].vars, *next(iter(assignment[v].terms.items()))) for i, v in occurring]
        if not used:
            return sum(self.terms.values())
        out_vars = tuple(sorted({v for _, vs, _, _ in used for v in vs}))
        # No output exponent exceeds the degree bound.
        width = packed_width(sum(top[i] * sum(k) for i, _, k, _ in used))
        offset = {v: width * j for j, v in enumerate(out_vars)}
        shifts = [0] * len(top)
        scales = []
        for i, vs, k, c in used:
            shifts[i] = sum(e << offset[v] for v, e in zip(vs, k))
            if c != 1:
                scales.append((i, c))
        acc: dict[int, int] = {}
        for evec, c in self.terms.items():
            key = sum(map(mul, evec, shifts))
            for i, ci in scales:
                c *= ci ** evec[i]
            acc[key] = acc.get(key, 0) + c
        return MultiPoly._canonical(out_vars, unpack_terms(acc, len(out_vars), width))

    # -- rendering ----------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for evec, c in self.terms_sorted():
            factors = [
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(self.vars, evec)
                if e
            ]
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            elif c == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(f"{c}*" + "*".join(factors))
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"MultiPoly({self})"

    def to_json_dict(self) -> dict:
        """Bit-exact fixture form: decimal-string coefficients, terms in
        descending graded-lex order."""
        return {
            "vars": list(self.vars),
            "terms": [{"e": list(e), "c": str(c)} for e, c in self.terms_sorted()],
        }


def series_divide(numerator: Sequence[int], r: int, order: int) -> tuple[int, ...]:
    """Expansion of ``numerator / (1 - t)^r`` through ``t^order``.

    The divisor expands as ``sum_k C(k + r - 1, r - 1) t^k``; the result
    is the exact convolution, truncated.

    >>> series_divide([0, 1], 2, 4)
    (0, 1, 2, 3, 4)
    """
    if r < 1:
        raise ValueError("r must be a positive integer")
    if order < 0:
        raise ValueError("order must be nonnegative")
    num = [index(c) for c in numerator]
    while num and num[-1] == 0:
        num.pop()
    if len(num) - 1 > order:
        raise ValueError("truncation order is below the numerator degree")
    out = []
    for k in range(order + 1):
        acc = 0
        for i, c in enumerate(num):
            if i > k:
                break
            if c:
                acc += c * comb(k - i + r - 1, r - 1)
        out.append(acc)
    return tuple(out)
