"""Every FAIL payload of the gfs-properties suite, pinned byte for byte.

Each test corrupts the per-word kernel answers (``phi_letter``,
``classify_letter``, ``profile12``) in the pure kernel and in the active
one.  ``check_gfs`` then runs the pure ``gfs_scan``, which reads the
corrupted pure functions, and each test asserts which check of the scan
failed; the payload comes from a ``hop_tables`` built from the corrupted
``phi_letter`` and ``classify_letter``, so both paths see one consistent
wrong kernel.  The expected strings are the reports of the per-word
implementation of ``check_gfs`` that scanned words in sorted order,
letters in increasing order, under the same corruption: a failure is
always the first failing (word, letter) in that order, whichever
whole-table check noticed it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stirlingperms import _pure, gfs, verify
from stirlingperms._backend import kernel
from conftest import compositions_up_to

W1122, W1221, W2211 = b"\x01\x01\x02\x02", b"\x01\x02\x02\x01", b"\x02\x02\x01\x01"
W12, W21 = b"\x01\x02", b"\x02\x01"


def corrupt(monkeypatch, phi=None, classes=None, profiles=None):
    """Override ``phi_letter`` and ``classify_letter`` answers at given
    ``(word, letter)`` keys, and add ``{index: delta}`` to the profile of
    given words; ``hop_tables`` is rebuilt from the overridden functions,
    and ``kernel.gfs_scan`` becomes the pure scan over them.  Returns the
    list the scan appends each of its results to.

    The pure scan hops through ``_hop`` with the class it read.  The
    overridden hop ignores that class and hops by the real one, so that
    an overridden class does not move the hops as well."""
    phi, classes, profiles = phi or {}, classes or {}, profiles or {}
    real_cls, real_hop = _pure.classify_letter, _pure._hop
    real_prof, real_scan = _pure.profile12, _pure.gfs_scan
    scans = []

    def phi_letter(w, x):
        return phi[w, x] if (w, x) in phi else real_hop(w, x, real_cls(w, x))

    def classify_letter(w, x):
        return classes.get((w, x), real_cls(w, x))

    def profile12(w):
        delta = profiles.get(w, {})
        return tuple(v + delta.get(i, 0) for i, v in enumerate(real_prof(w)))

    def hop_tables(parts):
        words = kernel.words_of(parts)
        index = {w: i for i, w in enumerate(words)}
        letters = range(1, len(parts) + 1)
        return (
            words,
            [[index.get(phi_letter(w, x), -1) for w in words] for x in letters],
            [bytes(classify_letter(w, x) for w in words) for x in letters],
        )

    def gfs_scan(parts):
        scans.append(real_scan(parts))
        return scans[-1]

    monkeypatch.setattr(_pure, "_hop", lambda w, x, cls: phi_letter(w, x))
    monkeypatch.setattr(_pure, "classify_letter", classify_letter)
    for mod in {kernel, _pure}:
        monkeypatch.setattr(mod, "phi_letter", phi_letter)
        monkeypatch.setattr(mod, "profile12", profile12)
    monkeypatch.setattr(kernel, "hop_tables", hop_tables)
    monkeypatch.setattr(kernel, "gfs_scan", gfs_scan)
    return scans


def failure(scans, parts, check):
    """The FAIL payload of ``check_gfs(parts)``, after asserting that the
    scan itself failed, at ``check``."""
    report = verify.check_gfs(parts)
    assert scans == [check]
    assert not report.passed
    assert report.line() == f"gfs-properties m={','.join(map(str, parts))} FAIL {report.counterexample}"
    return report.counterexample


def test_closure(monkeypatch):
    scans = corrupt(monkeypatch, phi={(W2211, 1): b"\x01\x02\x01\x02"})
    assert failure(scans, (2, 2), "closure") == (
        '{"image": "1,2,1,2", "kind": "closure", "letter": 1, "m": [2, 2], "word": "2,2,1,1"}'
    )


def test_involution(monkeypatch):
    scans = corrupt(monkeypatch, phi={(W21, 1): W21})
    assert failure(scans, (1, 1), "hop") == '{"kind": "involution", "letter": 1, "m": [1, 1], "word": "1,2"}'


def test_toggle_reports_the_first_failing_word(monkeypatch):
    # the corrupted class of 12 passes the toggle at 12 itself and breaks
    # it at its image 21
    scans = corrupt(monkeypatch, classes={(W12, 1): kernel.FIXED})
    assert failure(scans, (1, 1), "orbit-size") == '{"kind": "toggle", "letter": 1, "m": [1, 1], "word": "2,1"}'


def test_mdup_invariance(monkeypatch):
    scans = corrupt(monkeypatch, profiles={W2211: {11: 1}})
    assert failure(scans, (2, 2), "mdup-invariance") == (
        '{"kind": "mdup-invariance", "letter": 1, "m": [2, 2], "word": "1,2,2,1"}'
    )


def test_commutation_precedes_a_later_letter(monkeypatch):
    # phi_2(12) = 21 also breaks the involution at (12, 2), but the
    # commutation of letters 1 and 2 at word 12 comes first
    scans = corrupt(monkeypatch, phi={(W12, 2): W21})
    assert failure(scans, (1, 1), "hop") == '{"kind": "commutation", "letters": [1, 2], "m": [1, 1], "word": "1,2"}'


def test_orbit_size(monkeypatch):
    # commuting involutions only make power-of-two orbits, so no kernel
    # answer that passes the action checks reaches this; merge the orbits
    # {1122} and {1221, 2211} in the tables instead.  The scan never labels
    # orbits, so its corruption takes the representative 1122 away, and
    # the one orbit left, {1221, 2211}, misses a word
    scans = corrupt(monkeypatch, profiles={W1122: {8: 1}})
    monkeypatch.setattr(gfs, "orbit_labels", lambda size, phis: [0] * size)
    assert failure(scans, (2, 2), "cover") == '{"kind": "orbit-size", "m": [2, 2], "orbit_size": 3, "seed": "1,1,2,2"}'


def test_no_representative(monkeypatch):
    scans = corrupt(monkeypatch, profiles={W1221: {8: 1}})
    assert failure(scans, (2, 2), "cover") == (
        '{"kind": "unique-representative", "m": [2, 2], "representatives": [], "seed": "1,2,2,1"}'
    )


def test_two_representatives_in_word_order(monkeypatch):
    # the per-word check listed them in set order, which varied with the
    # hash seed; the tables list them in word order
    scans = corrupt(monkeypatch, profiles={W2211: {9: -1}})
    assert failure(scans, (2, 2), "unique-representative") == (
        '{"kind": "unique-representative", "m": [2, 2], '
        '"representatives": ["1,2,2,1", "2,2,1,1"], "seed": "1,2,2,1"}'
    )


def test_identity_ascpp(monkeypatch):
    scans = corrupt(monkeypatch, profiles={W1221: {10: 1}})
    assert failure(scans, (2, 2), "identity-ascpp") == (
        '{"kind": "identity-ascpp", "m": [2, 2], "representative": "1,2,2,1"}'
    )


def test_identity_dasc(monkeypatch):
    # asc and dasc rise together, so asc - dasc still equals ascpp
    scans = corrupt(monkeypatch, profiles={W1221: {0: 1, 7: 1}})
    assert failure(scans, (2, 2), "identity-dasc") == (
        '{"kind": "identity-dasc", "m": [2, 2], "representative": "1,2,2,1"}'
    )


def test_scan_failure_the_tables_pass_is_an_error(monkeypatch):
    # letter 1 moves 12 <-> 21 but is classed FIXED at both: the toggle
    # holds, so the tables pass, while the representative 12 has no
    # moving letter for its dasc of 1
    scans = corrupt(monkeypatch, classes={(W12, 1): kernel.FIXED, (W21, 1): kernel.FIXED})
    with pytest.raises(RuntimeError, match="^gfs_scan failed where the table checks pass$"):
        verify.check_gfs((1, 1))
    assert scans == ["orbit-size"]


@pytest.mark.parametrize("parts", [(1, 1), (2, 2), (2, 1, 1), (1, 2, 1, 1)])
def test_uncorrupted_tables_pass(monkeypatch, parts):
    scans = corrupt(monkeypatch)
    assert verify.check_gfs(parts).passed
    assert scans == [None]


@st.composite
def corruptions(draw):
    """A composition and one to three corrupted kernel answers on its
    words: a hop image (another word, or a non-word), a swap of two
    words' images, a value class, or one statistic moved by one."""
    parts = draw(st.sampled_from([p for p in compositions_up_to(5) if p]))
    words = _pure.words_of(parts)
    word, letter = st.sampled_from(words), st.integers(1, len(parts))
    phi, classes, profiles = {}, {}, {}
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["phi", "swap", "class", "profile"]))
        if kind == "phi":
            phi[draw(word), draw(letter)] = draw(st.sampled_from(words + [bytes(len(words[0]))]))
        elif kind == "swap":
            w, u, x = draw(word), draw(word), draw(letter)
            phi[w, x], phi[u, x] = u, w
        elif kind == "class":
            classes[draw(word), draw(letter)] = draw(st.integers(0, 3))
        else:
            profiles.setdefault(draw(word), {})[draw(st.integers(0, 11))] = draw(st.sampled_from([-1, 1]))
    return parts, phi, classes, profiles


@given(corruptions())
@settings(max_examples=300, deadline=None)
def test_a_passing_scan_means_passing_tables(case):
    # the converse fails by design: the tables never check that a letter
    # classed FIXED stays put (test_scan_failure_the_tables_pass_is_an_error)
    parts, phi, classes, profiles = case
    with pytest.MonkeyPatch.context() as monkeypatch:
        corrupt(monkeypatch, phi, classes, profiles)
        if kernel.gfs_scan(parts) is None:
            assert verify._table_failure(parts) is None
