"""Pure-Python and compiled kernels must agree bit for bit.

The compiled kernel is the one that imports, when it was built from the
current ``_core.c``; otherwise it is built from ``setup.py`` into a
temporary directory (never into ``src/``) and loaded from there, so these
tests run wherever a C compiler exists.
"""

import hashlib
import importlib.util
import re
import shlex
import shutil
import subprocess
import sys
import sysconfig
import types
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stirlingperms import _pure, verify, words
from conftest import action_tables_pass, compositions_up_to, oracle_words, per_word_hop_tables

ROOT = Path(__file__).resolve().parents[1]
SOURCE_SHA256 = hashlib.sha256((ROOT / "src/stirlingperms/_core.c").read_bytes()).hexdigest()


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


@pytest.mark.parametrize("parts", compositions_up_to(7))
def test_enumeration_agrees(core, parts):
    assert core.words_of(parts) == _pure.words_of(parts)
    assert core.enum_counts(parts) == _pure.enum_counts(parts)


@pytest.mark.parametrize("parts", compositions_up_to(6))
def test_brute_force_agrees(core, parts):
    assert core.brute_count(parts) == _pure.brute_count(parts)


@pytest.mark.parametrize("parts", compositions_up_to(6))
def test_profiles_agree(core, parts):
    for w in core.words_of(parts):
        assert core.profile12(w) == _pure.profile12(w)


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
        with pytest.raises(ValueError):
            fn(b"\x01\x02\x01", x)


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
    for fn in (backend.words_of, backend.enum_counts, backend.joint_hist, backend.gfs_scan):
        with pytest.raises(OverflowError, match="^the word set is too large to enumerate$"):
            fn((1,) * 21)


def test_non_integer_part_raises(backend):
    for fn in (backend.words_of, backend.enum_counts, backend.brute_count):
        with pytest.raises(TypeError):
            fn((1, 1.5))


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
