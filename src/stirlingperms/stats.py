"""Word statistics and the five-letter index labeling.

All statistics are decided from the word's own content (a letter is
*multiple* when it occurs more than once in the word itself), with the
sentinel value 0 below every letter at both ends.  Index i, for
0 <= i <= m, is an ascent / plateau / descent according to the
comparison of positions i and i+1; the pattern statistics run over
i in 1..m and look at the window (w[i-1], w[i], w[i+1]).

The labeling puts one symbol on each index 0..m:

    x   single descent        xt  multiple descent
    yt  first plateau         y   unmovable plateau
    z   ascent

The empty word carries the single base label ``z`` and accordingly has
profile ``asc=1, plat=0, des=0`` (all pattern statistics 0).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Sequence

from ._backend import kernel
from .words import Composition, check_composition, pack_word

#: Labeling symbols in the order (single descent, multiple descent,
#: first plateau, unmovable plateau, ascent), each with its statistic.
LABEL_STATS = {"x": "sdes", "xt": "mdes", "yt": "fplat", "y": "uplat", "z": "asc"}
LABEL_SYMBOLS = tuple(LABEL_STATS)

#: Single-character escapes for serialized labelings (xt -> X, yt -> Y).
LABEL_ESCAPES = {"x": "x", "xt": "X", "yt": "Y", "y": "y", "z": "z"}

#: Informational note emitted by the verification harness: the worked
#: 14-letter example word is evaluated per the defining identities
#: asc = dasc + ascpp and mdup + asc + fplat + sdes = m + 1, which give
#: ascpp = 3 and mdup = 6; a commonly quoted hand evaluation reporting
#: ascpp = 4 and mdup = 4 is inconsistent with those identities.
WORKED_EXAMPLE_NOTE = (
    "note: for the word 1,5,5,6,5,3,3,3,1,2,4,4,1,1 the values ascpp=3 and "
    "mdup=6 follow from the identities asc=dasc+ascpp and "
    "mdup+asc+fplat+sdes=m+1; a circulated hand evaluation giving ascpp=4 "
    "and mdup=4 contradicts these identities and is not reproduced"
)


@dataclass(frozen=True)
class StatProfile:
    """All statistic values of one word."""

    asc: int
    plat: int
    des: int
    sdes: int
    mdes: int
    fplat: int
    uplat: int
    dasc: int
    sddes: int
    fdesp: int
    ascpp: int
    mdup: int

    def as_dict(self) -> dict[str, int]:
        """Flat JSON-ready mapping of named integers."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def triple(self) -> tuple[int, int, int]:
        """(asc, des, plat)."""
        return (self.asc, self.des, self.plat)


@dataclass(frozen=True)
class Labeling:
    """One symbol per index 0..m, drawn from LABEL_SYMBOLS."""

    labels: tuple[str, ...]

    def to_string(self) -> str:
        """Serialized form over {x, X, y, Y, z} with X=xt, Y=yt."""
        return "".join(LABEL_ESCAPES[s] for s in self.labels)

    def counts(self) -> tuple[int, int, int, int, int]:
        """Multiset of labels as (x, xt, yt, y, z) counts."""
        return tuple(self.labels.count(s) for s in LABEL_SYMBOLS)  # type: ignore[return-value]


def profile(word: Sequence[int]) -> StatProfile:
    """Compute every statistic of a word.

    >>> profile((1, 1, 2, 2)).triple()
    (2, 1, 2)
    """
    return StatProfile(*kernel.profile12(pack_word(word)))


#: Position of each statistic in a ``profile12`` tuple: StatProfile's field order.
_FIELD_INDEX = {f.name: i for i, f in enumerate(fields(StatProfile))}


def joint_counts(parts: Iterable[int]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Joint histogram of all twelve statistics over the word set, as
    ``(profile12 tuple, word count)`` pairs in order of first occurrence.

    Every word-set histogram (triples, gamma counts, plateau slices, the
    lemma and grammar suites) is a :func:`project_counts` of this table,
    so each composition is enumerated and profiled once per process, by
    the one kernel call ``joint_hist``.  The result is cached and immutable.

    >>> joint_counts((2,))
    (((1, 1, 1, 0, 1, 1, 0, 0, 0, 0, 1, 1), 1),)
    """
    return _joint_counts(check_composition(parts))


@lru_cache(maxsize=None)
def _joint_counts(parts: Composition) -> tuple[tuple[tuple[int, ...], int], ...]:
    return kernel.joint_hist(parts)


def project_counts(parts: Composition, names: Sequence[str]) -> dict:
    """Histogram of the statistics ``names`` (tuple keys; the bare value
    for one name) over the word set of a validated composition, summed
    from its joint table; a fresh dict on every call.

    >>> project_counts((2, 2), ("asc", "des"))
    {(2, 1): 1, (2, 2): 1, (1, 2): 1}
    """
    try:
        key = itemgetter(*[_FIELD_INDEX[n] for n in names])
    except KeyError as exc:
        raise ValueError(f"unknown statistic {exc.args[0]!r}") from None
    out: dict = {}
    for p, c in _joint_counts(parts):
        k = key(p)
        out[k] = out.get(k, 0) + c
    return out


def labeling(word: Sequence[int]) -> Labeling:
    """The index labeling of a word (index 0 gets ``z`` when nonempty).
    Letters must lie in 1..255, as for :func:`profile`."""
    w = pack_word(word)
    m = len(w)
    if m == 0:
        return Labeling(("z",))
    mult: dict[int, int] = {}
    first: dict[int, int] = {}
    for idx, c in enumerate(w):
        mult[c] = mult.get(c, 0) + 1
        first.setdefault(c, idx + 1)
    out = ["z"]
    for i in range(1, m + 1):
        c = w[i - 1]
        nx = w[i] if i < m else 0
        if c > nx:
            out.append("xt" if mult[c] > 1 else "x")
        elif c == nx:
            out.append("yt" if first[c] == i else "y")
        else:
            out.append("z")
    return Labeling(tuple(out))
