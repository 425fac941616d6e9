"""Pure-Python and compiled kernels must agree bit for bit.

The compiled kernel is the one that imports, when it was built from the
current ``_core.c``; otherwise it is built from ``setup.py`` into a
temporary directory (never into ``src/``) and loaded from there, so these
tests run wherever a C compiler exists.
"""

import hashlib
import importlib.util
import random
import re
import shlex
import shutil
import subprocess
import sys
import sysconfig
import tracemalloc
import types
from itertools import product
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stirlingperms import _pure, grammar, verify, words
from stirlingperms.grammar import Grammar
from stirlingperms.poly import MultiPoly
from conftest import (
    action_tables_pass,
    compositions_up_to,
    naive_derive,
    oracle_words,
    per_word_hop_tables,
)

ROOT = Path(__file__).resolve().parents[1]
SOURCE_SHA256 = hashlib.sha256((ROOT / "src/stirlingperms/_core.c").read_bytes()).hexdigest()
PAPER_WORD = bytes((1, 5, 5, 6, 5, 3, 3, 3, 1, 2, 4, 4, 1, 1))
PAPER_PARTS = (4, 1, 3, 2, 3, 1)


def imported_core():
    try:
        return importlib.import_module("stirlingperms._core")
    except ImportError:
        return None


@pytest.fixture(scope="module")
def core(tmp_path_factory):
    mod = imported_core()
    if mod is not None and getattr(mod, "SOURCE_SHA256", None) == SOURCE_SHA256:
        return mod
    cc = shlex.split(sysconfig.get_config_var("CC") or "")
    if not cc or shutil.which(cc[0]) is None:
        pytest.skip(f"compiled kernel not built and no C compiler {cc[:1]} on PATH")
    out = tmp_path_factory.mktemp("core")
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext",
         "--build-lib", str(out), "--build-temp", str(out / "temp")],
        cwd=ROOT, capture_output=True, text=True,
    )
    built = sorted((out / "stirlingperms").glob("_core.*"))
    assert proc.returncode == 0 and built, f"building the compiled kernel failed:\n{proc.stderr}"
    spec = importlib.util.spec_from_file_location("stirlingperms._core", built[0])
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    assert mod.BACKEND_NAME == "c"
    assert mod.SOURCE_SHA256 == SOURCE_SHA256
    return mod


def test_imported_core_is_built_from_current_source():
    mod = imported_core()
    if mod is None:
        return  # the pure fallback runs, so nothing can be stale
    assert getattr(mod, "SOURCE_SHA256", None) == SOURCE_SHA256, (
        f"{mod.__file__} was built from another _core.c; "
        "rebuild with `python3 setup.py build_ext --inplace`"
    )


def test_core_compiles_without_warnings():
    cc = shlex.split(sysconfig.get_config_var("CC") or "")
    if not cc or shutil.which(cc[0]) is None:
        pytest.skip(f"no C compiler {cc[:1]} on PATH")
    includes = {sysconfig.get_paths()[key] for key in ("include", "platinclude")}
    proc = subprocess.run(
        cc + ["-fsyntax-only", "-Wall", "-Wextra", "-Werror"]
        + [f"-I{path}" for path in sorted(includes)]
        + [str(ROOT / "src/stirlingperms/_core.c")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.fixture(params=["pure", "c"])
def backend(request):
    return _pure if request.param == "pure" else request.getfixturevalue("core")


# the last three have many rows with long shared prefixes, and words of
# up to 203 letters, so the ordered walk closes hundreds of gaps at once
@pytest.mark.parametrize("parts", compositions_up_to(7) + [(40, 1, 1), (3, 40, 2), (1, 1, 200, 1)])
def test_enumeration_agrees(core, parts):
    assert core.words_of(parts) == _pure.words_of(parts)
    assert core.enum_counts(parts) == _pure.enum_counts(parts)


def test_words_of_distinct_letters_is_strictly_increasing(core):
    ws = core.words_of((1,) * 9)
    assert len(ws) == 362880
    assert all(a < b for a, b in zip(ws, ws[1:]))
    assert core.enum_counts((1,) * 9) == (362880, 362880)


def test_words_of_one_long_run_and_one_letter(backend):
    # one level of 3,001 gaps, closed in a single step after its only row
    one = b"\x01"
    expected = [one * g + b"\x02" + one * (3000 - g) for g in range(3000, -1, -1)]
    assert backend.words_of((3000, 1)) == expected


@pytest.mark.parametrize("rows", [[b"\x02\x01", b"\x01\x02"], [b"\x01\x02", b"\x01\x02"]])
def test_enum_counts_counts_only_strict_increases(monkeypatch, rows):
    # a mis-ordered or duplicated row shows as distinct < total
    monkeypatch.setattr(_pure, "words_of", lambda parts: rows)
    assert _pure.enum_counts((1, 1)) == (2, 1)


@pytest.mark.parametrize("parts", compositions_up_to(6))
def test_brute_count_matches_the_oracle(backend, parts):
    assert backend.brute_count(parts) == len(oracle_words(parts))


def test_brute_count_matches_the_formula_on_the_counting_extras(backend):
    # every composition with at most 4 letters and parts at most 3, the
    # largest brute-filter cases of the counting checks
    for n in range(5):
        for parts in product((1, 2, 3), repeat=n):
            assert backend.brute_count(parts) == words.count_words(parts), parts


def test_resumed_brute_count_agrees_with_the_scan_from_index_0(core):
    # the C scan resumes at the first index each permutation changes;
    # _pure.brute_count rescans every permutation from index 0
    for parts in compositions_up_to(7):
        assert core.brute_count(parts) == _pure.brute_count(parts), parts


def test_resumed_brute_count_matches_the_formula_at_total_8(core):
    for parts in compositions_up_to(8):
        if sum(parts) == 8:
            assert core.brute_count(parts) == words.count_words(parts), parts


# deep stacks of open letters, and long runs that resume far from index 0
@pytest.mark.parametrize("parts", [(2,) * 6, (1, 2) * 4, (40, 1, 1), (3, 40, 2), (1, 1, 200, 1),
                                   (3000, 1), (1,) * 9])
def test_resumed_brute_count_matches_the_formula_on_deep_and_long_words(core, parts):
    assert core.brute_count(parts) == words.count_words(parts)


def counted_visits(monkeypatch):
    """A list that grows by one per permutation the pure ``brute_count``
    visits: it calls ``_next_permutation`` once after each."""
    visits, step = [], _pure._next_permutation

    def counted(arr):
        visits.append(None)
        return step(arr)

    monkeypatch.setattr(_pure, "_next_permutation", counted)
    return visits


@pytest.mark.parametrize("parts", [(3, 3, 3, 3), (2, 2, 2, 2, 2), (4, 4, 4), (2, 1, 2, 1, 2)])
def test_pure_brute_count_skips_failing_prefix_blocks(monkeypatch, parts):
    visits = counted_visits(monkeypatch)
    count = words.count_words(parts)
    assert _pure.brute_count(parts) == count
    # each visit is a word or a (valid prefix, next letter) pair
    assert len(visits) <= count * (1 + (sum(parts) + 1) * len(parts))


def test_pure_brute_count_visits_every_permutation_of_distinct_letters(monkeypatch):
    visits = counted_visits(monkeypatch)
    assert _pure.brute_count((1,) * 6) == 720
    assert len(visits) == 720


@pytest.mark.parametrize("parts", compositions_up_to(6))
def test_profiles_agree(core, parts):
    for w in core.words_of(parts):
        assert core.profile12(w) == _pure.profile12(w)


@pytest.mark.parametrize("parts", compositions_up_to(6))
def test_every_enumerated_word_is_stirling(backend, parts):
    assert all(backend.is_stirling(w, parts) for w in backend.words_of(parts))


def first_occurrence_hist(words):
    """``joint_hist`` from the pure ``profile12`` of each word, counted
    in order of first occurrence."""
    hist = {}
    for w in words:
        p = _pure.profile12(bytes(w))
        hist[p] = hist.get(p, 0) + 1
    return tuple(hist.items())


@pytest.mark.parametrize("parts", compositions_up_to(6))
def test_joint_hist_matches_the_oracle(core, parts):
    expected = first_occurrence_hist(oracle_words(parts))
    assert _pure.joint_hist(parts) == expected
    assert core.joint_hist(parts) == expected


@given(st.lists(st.integers(1, 4), max_size=5).filter(lambda p: sum(p) <= 7).map(tuple))
@settings(max_examples=40, deadline=None)
def test_joint_hist_is_the_first_occurrence_count(core, parts):
    hist = core.joint_hist(parts)
    assert hist == _pure.joint_hist(parts)
    assert hist == first_occurrence_hist(core.words_of(parts))
    assert len({p for p, _ in hist}) == len(hist)
    assert sum(c for _, c in hist) == core.enum_counts(parts)[0]


@pytest.mark.parametrize("parts", [p for p in compositions_up_to(5) if p])
def test_action_agrees(core, parts):
    n = len(parts)
    for w in core.words_of(parts):
        for x in range(1, n + 1):
            assert core.classify_letter(w, x) == _pure.classify_letter(w, x)
            assert core.phi_letter(w, x) == _pure.phi_letter(w, x)


@pytest.mark.parametrize("parts", compositions_up_to(6))
def test_hop_tables_agree(core, parts):
    # the whole-table oracle of the action, rebuilt from the compiled
    # per-word hops and classes over the compiled word list
    words, phis, classes = per_word_hop_tables(parts)
    assert core.words_of(parts) == words
    index = {w: i for i, w in enumerate(words)}
    for x, (phi_x, cls_x) in enumerate(zip(phis, classes), start=1):
        assert [index.get(core.phi_letter(w, x), -1) for w in words] == phi_x
        assert bytes(core.classify_letter(w, x) for w in words) == cls_x


@given(st.sampled_from(compositions_up_to(6)))
@settings(max_examples=60, deadline=None)
def test_hop_tables_match_the_oracle(core, parts):
    oracle = [bytes(w) for w in oracle_words(parts)]
    words, phis, classes = per_word_hop_tables(parts)
    assert words == oracle
    assert len(phis) == len(classes) == len(parts)
    for x, (phi_x, cls_x) in enumerate(zip(phis, classes), start=1):
        # the action is closed, so every image is an oracle word
        for backend in (_pure, core):
            assert [words[j] for j in phi_x] == [backend.phi_letter(w, x) for w in oracle]
            assert list(cls_x) == [backend.classify_letter(w, x) for w in oracle]


@pytest.mark.parametrize("parts", compositions_up_to(7))
def test_gfs_scan_passes_exactly_where_the_tables_pass(backend, parts):
    assert (backend.gfs_scan(parts) is None) == action_tables_pass(parts)


def is_representative(word):
    prof = _pure.profile12(word)
    return prof[8] == prof[9] == 0


# the last three have long runs, so the walk writes long forced suffixes
@pytest.mark.parametrize("parts", compositions_up_to(8) + [(40, 1, 1), (3, 40, 2), (1, 1, 200, 1)])
def test_pure_representatives_are_the_filtered_words(parts):
    assert list(_pure._representatives(parts)) == [w for w in _pure.words_of(parts) if is_representative(w)]


# total 1..7 passes in the test above, where the tables pass; the empty
# composition fails its identities by design (test_empty_inputs)
@pytest.mark.parametrize("parts", [p for p in compositions_up_to(8) if sum(p) == 8]
                         + [(40, 1, 1), (3, 40, 2), (1, 1, 200, 1), (3000, 1)])
def test_gfs_scan_passes(backend, parts):
    assert backend.gfs_scan(parts) is None


W1122, W1212 = b"\x01\x01\x02\x02", b"\x01\x02\x01\x02"


def test_pure_gfs_scan_fails_cover_on_a_repeated_representative(monkeypatch):
    # 1122 is an orbit of one of the three words of (2, 2); taken twice,
    # it must fail the strict order at once, not at a later orbit
    walk = _pure._representatives
    monkeypatch.setattr(_pure, "_representatives", lambda parts: [W1122, *walk(parts)])
    assert _pure.gfs_scan((2, 2)) == ("cover", W1122, 0)


def test_pure_gfs_scan_fails_closure_on_a_leaf_that_is_no_word(monkeypatch):
    monkeypatch.setattr(_pure, "_representatives", lambda parts: [W1212])
    assert _pure.gfs_scan((2, 2)) == ("closure", W1212, 0)


@pytest.mark.parametrize("parts", [(2, 2), (2, 1, 1), (1, 2, 1, 1), (1,) * 5])
def test_pure_gfs_scan_skips_leaves_its_profile_rejects(monkeypatch, parts):
    # every word as a leaf: the scan takes only those with sddes = fdesp = 0
    monkeypatch.setattr(_pure, "_representatives", _pure.words_of)
    assert _pure.gfs_scan(parts) is None


def traced_peak(fn, *args):
    """The peak of memory that ``tracemalloc`` sees while ``fn(*args)`` runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_gfs_scan_holds_no_word_buffer(core):
    # the 362,880 words of nine letters would take 3.3 MB in one buffer
    assert traced_peak(core.gfs_scan, (1,) * 9) < 1 << 20


def test_pure_gfs_scan_holds_no_word_set():
    # 6,720 words, which take more than 1 MB as bytes objects in a list and a set
    assert traced_peak(_pure.gfs_scan, (3, 1, 1, 1, 1, 1)) < 200 << 10


def long_words():
    """Long words: one letter's run, a single letter inside it, and
    Stirling words of long contents made by random block insertion, with
    letters that occur once, between and beside long runs."""
    rng = random.Random(29)
    out = [b"\x01" * 40000, b"\x01" * 20000 + b"\x02" + b"\x01" * 20000]
    for parts in [(20000, 1), (1, 20000), (300, 1, 500, 1, 1, 200), (1,) * 200 + (5000,)]:
        w = b""
        for k, mk in enumerate(parts, start=1):
            g = rng.randrange(len(w) + 1)
            w = w[:g] + bytes([k]) * mk + w[g:]
        out.append(w)
    return out


def test_profiles_agree_on_long_words(core):
    for w in long_words():
        assert core.profile12(w) == _pure.profile12(w)


def public_names(mod):
    """The names ``mod`` defines itself, not those it imports."""
    return {
        name
        for name, value in vars(mod).items()
        if not name.startswith("_")
        and not isinstance(value, types.ModuleType)
        and getattr(value, "__module__", mod.__name__) == mod.__name__
    }


def test_backends_expose_one_contract(core):
    # SOURCE_SHA256 identifies the build of the compiled kernel; the pure
    # one is not built
    assert public_names(core) - {"SOURCE_SHA256"} == public_names(_pure)
    assert "gfs_scan" in public_names(_pure)


def test_is_stirling_agrees_on_non_words(core):
    cases = [
        (b"\x01\x02\x01\x02", (2, 2)),
        (b"\x01\x02\x02\x01", (2, 2)),
        (b"\x01\x01", (2, 2)),
        (b"\x01\x03\x03\x01", (2, 2)),
        (b"", ()),
        (b"\x01\x01\x01\x02", (2, 2)),
        (b"\x02\x01\x02", (1, 2)),
    ]
    for w, parts in cases:
        assert core.is_stirling(w, parts) == _pure.is_stirling(w, parts)
    # right length and letters, wrong multiplicities
    assert not core.is_stirling(b"\x01\x01\x01\x02", (2, 2))
    assert not _pure.is_stirling(b"\x01\x01\x01\x02", (2, 2))


def test_value_class_constants_agree(core):
    assert core.FIXED == _pure.FIXED
    assert core.FREE_DESCENT_PLATEAU == _pure.FREE_DESCENT_PLATEAU
    assert core.SINGLE_DOUBLE_DESCENT == _pure.SINGLE_DOUBLE_DESCENT
    assert core.DOUBLE_ASCENT == _pure.DOUBLE_ASCENT


def test_empty_inputs(backend):
    assert backend.words_of(()) == [b""]
    # the empty word is the grammar base case with one ascent, so the
    # identities fail at its orbit, as in the whole-table oracle; this is
    # the one failure the compiled scan can reach
    assert backend.gfs_scan(()) == ("identity-ascpp", b"", 0)
    assert not action_tables_pass(())
    assert backend.enum_counts(()) == (1, 1)
    assert backend.joint_hist(()) == (((1,) + (0,) * 11, 1),)
    assert backend.brute_count(()) == 1
    assert backend.is_stirling(b"", ())
    assert backend.profile12(b"") == (1,) + (0,) * 11


def test_is_stirling_rejects_letters_outside_1_to_n(backend):
    assert not backend.is_stirling(b"\x00\x01", (1, 1))
    assert not backend.is_stirling(b"\x01\x03", (1, 1))


@pytest.mark.parametrize("x", [-1, 0, 3, 256, 2**70])
def test_absent_letter_is_value_error(backend, x):
    for fn in (backend.classify_letter, backend.phi_letter):
        for w in (b"\x01\x02\x01", b"\x01\x01"):
            with pytest.raises(ValueError):
                fn(w, x)


def test_kernels_agree_at_the_byte_boundary(core):
    # letters 1..255 and 255 copies of one letter: the largest words the
    # byte letters allow, with letters and runs at both ends of a word
    up = bytes(range(1, 256))
    for w, parts in [(up, (1,) * 255), (up[::-1], (1,) * 255), (b"\x01" * 255, (255,))]:
        assert core.is_stirling(w, parts) and _pure.is_stirling(w, parts)
        assert core.profile12(w) == _pure.profile12(w)
        for x in set(w) & {1, 2, 128, 254, 255}:
            assert core.classify_letter(w, x) == _pure.classify_letter(w, x)
            assert core.phi_letter(w, x) == _pure.phi_letter(w, x)
    for fn in ("words_of", "enum_counts", "joint_hist", "gfs_scan"):
        assert getattr(core, fn)((255,)) == getattr(_pure, fn)((255,))
        assert getattr(core, fn)((1, 254)) == getattr(_pure, fn)((1, 254))


def test_kernels_agree_on_the_orbit_of_the_paper_word(core):
    # the 14-letter worked example and its hop images, longer than any
    # enumerated word here
    orbit, todo = {PAPER_WORD}, [PAPER_WORD]
    while todo:
        w = todo.pop()
        assert core.is_stirling(w, PAPER_PARTS) and _pure.is_stirling(w, PAPER_PARTS)
        assert core.profile12(w) == _pure.profile12(w)
        for x in range(1, len(PAPER_PARTS) + 1):
            assert core.classify_letter(w, x) == _pure.classify_letter(w, x)
            img = core.phi_letter(w, x)
            assert img == _pure.phi_letter(w, x)
            if img not in orbit:
                orbit.add(img)
                todo.append(img)
    assert len(orbit) == 8


@pytest.mark.parametrize("x", [-1, 0, 3, 256, 300, 2**70])
def test_absent_letter_has_one_message(backend, x):
    # a letter outside a byte does not occur either, on both backends
    for fn in (backend.classify_letter, backend.phi_letter):
        with pytest.raises(ValueError, match=f"^letter {x} does not occur in the word$"):
            fn(b"\x01\x02\x01", x)


@pytest.mark.parametrize("parts", [(2**62, 2**62), (2**70,)])
def test_is_stirling_is_false_for_parts_past_the_kernel_sizes(backend, monkeypatch, parts):
    # a content mismatch simply yields False, however large the parts
    monkeypatch.setattr(words, "kernel", backend)
    assert words.is_stirling((1, 1), parts) is False


@pytest.mark.parametrize("parts", [(0,), (1, -1), (1,) * 256])
def test_bad_composition_is_value_error(backend, parts):
    for fn in (backend.words_of, backend.enum_counts, backend.brute_count):
        with pytest.raises(ValueError):
            fn(parts)
    with pytest.raises(ValueError):
        backend.is_stirling(b"\x01", parts)


@pytest.mark.parametrize("parts, error", [((0,), ValueError), ((1, -1), ValueError),
                                          ((1,) * 256, ValueError), ((1, 1.5), TypeError)])
def test_joint_hist_and_gfs_scan_reject_what_words_of_rejects(backend, parts, error):
    # joint_hist and gfs_scan read the same word set, so they must fail the same way
    with pytest.raises(error) as expected:
        backend.words_of(parts)
    for fn in (backend.joint_hist, backend.gfs_scan):
        with pytest.raises(error, match=f"^{re.escape(str(expected.value))}$"):
            fn(parts)


def test_oversized_word_set_is_refused_before_enumerating(backend):
    # 21! words: the size check must raise before any level is built
    for fn in (backend.words_of, backend.enum_counts, backend.joint_hist, backend.gfs_scan,
               backend.brute_count):
        with pytest.raises(OverflowError, match="^the word set is too large to enumerate$"):
            fn((1,) * 21)
    # a total past sys.maxsize is refused, not allocated
    with pytest.raises(OverflowError):
        backend.brute_count((2**62, 2**62))


def test_non_integer_part_raises(backend):
    for fn in (backend.words_of, backend.enum_counts, backend.brute_count):
        with pytest.raises(TypeError):
            fn((1, 1.5))


Z = (0, 0, 0, 0, 1)  # the start z of quintuple_poly over (x, xt, y, yt, z)


def label_rules(parts):
    """The monomials that quintuple_poly(parts) derives by, in order."""
    return [grammar._label_monomial(mk) for mk in parts]


@pytest.mark.parametrize("total", range(9))
def test_derive_chain_agrees_on_every_composition(core, total):
    # the same terms in the same order, so the same dict item by item
    for parts in words.compositions_of(total):
        expected = _pure.derive_chain(Z, label_rules(parts))
        assert list(core.derive_chain(Z, label_rules(parts)).items()) == list(expected.items()), parts


# exponent bounds up to 605, past the 8 and 9 bit fields of the pure
# backend's packed keys, and, for (1,)*60, coefficients far past 64 bits
@pytest.mark.parametrize("parts", [(254,), (255,), (256,), (300,), (3, 1, 300), (1,) * 60],
                         ids=lambda m: f"{len(m)}-parts-total-{sum(m)}")
def test_derive_chain_agrees_across_field_widths(core, parts):
    expected = _pure.derive_chain(Z, label_rules(parts))
    assert list(core.derive_chain(Z, label_rules(parts)).items()) == list(expected.items())


def test_derive_chain_agrees_at_dumont_orders_to_300(core):
    # the pure chain one step at a time: each term of order n - 1 derived
    # once and scaled, which keeps the order of first occurrence.  Every
    # order to 64 takes the tables from 16 slots to 64 and the
    # coefficients past 64 bits; every order to 300 would cost the
    # sanitizer run about 9 s more
    chain = {(1, 0): 1}
    for n in range(301):
        if n <= 64 or n in (100, 200, 254, 255, 256, 300):
            assert list(core.derive_chain((1, 0), [(1, 1)] * n).items()) == list(chain.items()), n
        step = {}
        for key, c in chain.items():
            for out, d in _pure.derive_chain(key, [(1, 1)]).items():
                step[out] = step.get(out, 0) + c * d
        chain = step
    assert max(chain.values()).bit_length() > 1000


@st.composite
def uniform_chains(draw):
    """A start monomial and rules over 1 to 5 variables."""
    nvars = draw(st.integers(1, 5))
    exponents = st.tuples(*[st.integers(0, 3)] * nvars)
    return draw(exponents), draw(st.lists(exponents, max_size=4))


@given(uniform_chains())
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_derive_chain_matches_the_naive_derivative(backend, chain):
    start, rules = chain
    names = tuple("abcde"[: len(start)])
    p = MultiPoly(names, {start: 1})
    for r in rules:
        p = naive_derive(Grammar({v: MultiPoly(names, {r: 1}) for v in names}), p)
    assert backend.derive_chain(start, rules) == p.terms


@pytest.mark.parametrize(
    "start, rules, error",
    [((1, 0), [(1, 1, 1)], ValueError), ((1, 0), [(1,)], ValueError),
     ((-1, 0), [], ValueError), ((1, 0), [(1, -2)], ValueError), ((-(2**70),), [], ValueError),
     ((1.0, 0), [], TypeError), ((1, 0), [(1, 0.5)], TypeError),
     ((2**63, 0), [], OverflowError), ((1, 0), [(sys.maxsize, 0)], OverflowError),
     ((1,), [(2**62,), (2**62,)], OverflowError),
     ((1, 0), [(1, 1)] * 10**4 + [(1, 1, 1)], ValueError),
     ((1, 0), [(1, 1)] * 10**4 + [(sys.maxsize, 0)], OverflowError),
     (5, [], TypeError), ((1,), 5, TypeError), ((1,), [3], TypeError)],
    ids=["long-rule", "short-rule", "negative-start", "negative-rule", "huge-negative",
         "float-start", "float-rule", "huge-start", "huge-rule", "bound-past-maxsize",
         "bad-rule-after-many", "bound-past-maxsize-after-many", "start-not-a-vector",
         "rules-not-a-list", "rule-not-a-vector"],
)
def test_derive_chain_refuses_before_any_step(backend, start, rules, error):
    # 10^4 Dumont steps would not finish, so a refusal comes before them
    with pytest.raises(error) as got:
        backend.derive_chain(start, rules)
    if error is not TypeError:  # the message of a non-sequence is Python's own
        with pytest.raises(error) as expected:
            _pure.derive_chain(start, rules)
        assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("parts", [(1, 2, 3), (1,) * 8])
def test_derive_chain_memory_is_flat_over_1000_calls(core, parts):
    # the first 1,000 calls fill the interpreter's free lists, which
    # tracemalloc counts as held; the next 1,000 must hold no more.  The
    # coefficients of (1,)*8 pass 256, so each is an int object of its
    # own, and a leaked one shows
    rules = label_rules(parts)
    tracemalloc.start()
    try:
        for _ in range(1000):
            core.derive_chain(Z, rules)
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(1000):
            core.derive_chain(Z, rules)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 4096


def test_verify_text_agrees_across_backends():
    # the pure run is a fresh process in which the compiled kernel cannot import
    code = (
        "import sys; sys.modules['stirlingperms._core'] = None; from stirlingperms.cli import main; "
        "sys.exit(main(['verify', '--max-total', '6', '--jobs', '1']))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    pure = proc.stdout.splitlines(keepends=True)
    imported = verify.render_text(*verify.verify_all(6, jobs=1)).splitlines(keepends=True)
    assert "backend: pure\n" in pure
    assert [line for line in pure if not line.startswith("backend:")] == [
        line for line in imported if not line.startswith("backend:")
    ]
