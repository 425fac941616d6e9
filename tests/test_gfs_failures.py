"""Every FAIL payload of the gfs-properties suite, pinned byte for byte.

Each test corrupts the per-word kernel answers (``phi_letter``,
``classify_letter``, ``profile12``) in the pure kernel and in the active
one, and ``check_gfs`` runs the pure ``gfs_scan``, which reads the
corrupted pure functions.  The payload is the scan's answer: the failed
check, the word it names (the representative for a check of a whole
orbit, the member for a check of one member, none for the final cover)
and the letter of a failed hop.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stirlingperms import _pure, verify
from stirlingperms._backend import kernel
from conftest import action_tables_pass, compositions_up_to

W1122, W1221, W2211 = b"\x01\x01\x02\x02", b"\x01\x02\x02\x01", b"\x02\x02\x01\x01"
W12, W21 = b"\x01\x02", b"\x02\x01"


def corrupt(monkeypatch, phi=None, classes=None, profiles=None):
    """Override ``phi_letter`` and ``classify_letter`` answers at given
    ``(word, letter)`` keys, and add ``{index: delta}`` to the profile of
    given words; ``kernel.gfs_scan`` becomes the pure scan over them.

    The pure scan hops through ``_hop`` with the class it read.  The
    overridden hop ignores that class and hops by the real one, so that
    an overridden class does not move the hops as well."""
    phi, classes, profiles = phi or {}, classes or {}, profiles or {}
    real_cls, real_hop, real_prof = _pure.classify_letter, _pure._hop, _pure.profile12

    def phi_letter(w, x):
        return phi[w, x] if (w, x) in phi else real_hop(w, x, real_cls(w, x))

    def classify_letter(w, x):
        return classes.get((w, x), real_cls(w, x))

    def profile12(w):
        delta = profiles.get(w, {})
        return tuple(v + delta.get(i, 0) for i, v in enumerate(real_prof(w)))

    monkeypatch.setattr(_pure, "_hop", lambda w, x, cls: phi_letter(w, x))
    monkeypatch.setattr(_pure, "classify_letter", classify_letter)
    for mod in {kernel, _pure}:
        monkeypatch.setattr(mod, "phi_letter", phi_letter)
        monkeypatch.setattr(mod, "profile12", profile12)
    monkeypatch.setattr(kernel, "gfs_scan", _pure.gfs_scan)


def failure(parts):
    """The FAIL payload of ``check_gfs(parts)``."""
    report = verify.check_gfs(parts)
    assert not report.passed
    assert report.line() == f"gfs-properties m={','.join(map(str, parts))} FAIL {report.counterexample}"
    return report.counterexample


def test_closure(monkeypatch):
    corrupt(monkeypatch, phi={(W2211, 1): b"\x01\x02\x01\x02"})
    assert failure((2, 2)) == '{"kind": "closure", "letter": 1, "m": [2, 2], "word": "2,2,1,1"}'


def test_closure_while_building_the_orbit(monkeypatch):
    # the hop from the representative itself leaves the word set, so the
    # member it would build is never made; the payload names the word hopped
    corrupt(monkeypatch, phi={(W1221, 1): b"\x01\x02\x01\x02"})
    assert failure((2, 2)) == '{"kind": "closure", "letter": 1, "m": [2, 2], "word": "1,2,2,1"}'


def test_involution(monkeypatch):
    # phi_1(21) = 21 breaks the involution: the hop from the member 21
    # misses the member 12 with letter 1's bit flipped
    corrupt(monkeypatch, phi={(W21, 1): W21})
    assert failure((1, 1)) == '{"kind": "hop", "letter": 1, "m": [1, 1], "word": "2,1"}'


def test_toggle_reports_the_first_failing_word(monkeypatch):
    # the corrupted class of 21 passes the toggle at 12, whose image it
    # is, and breaks it at 21 itself
    corrupt(monkeypatch, classes={(W21, 1): kernel.FIXED})
    assert failure((1, 1)) == '{"kind": "toggle", "letter": 1, "m": [1, 1], "word": "2,1"}'


def test_toggle_at_the_hop_that_builds_a_member(monkeypatch):
    # 12 -> 21 builds the member 21, and is the only hop that reads the
    # toggle at 12: 1 is classed movable-left at 12 but FIXED at 21
    corrupt(monkeypatch, classes={(W12, 1): kernel.FREE_DESCENT_PLATEAU, (W21, 1): kernel.FIXED})
    assert not action_tables_pass((1, 1))
    assert failure((1, 1)) == '{"kind": "toggle", "letter": 1, "m": [1, 1], "word": "1,2"}'


def test_mdup_invariance(monkeypatch):
    corrupt(monkeypatch, profiles={W2211: {11: 1}})
    assert failure((2, 2)) == '{"kind": "mdup-invariance", "m": [2, 2], "word": "2,2,1,1"}'


def test_commutation_precedes_a_later_letter(monkeypatch):
    # phi_2(12) = 21 breaks the commutation of letters 1 and 2 at 12; the
    # scan sees the fixed letter 2 move 12
    corrupt(monkeypatch, phi={(W12, 2): W21})
    assert failure((1, 1)) == '{"kind": "hop", "letter": 2, "m": [1, 1], "word": "1,2"}'


def test_a_hop_fault_precedes_a_later_members_mdup(monkeypatch):
    # the orbit is checked member by member: the hop of 2 at the member 12
    # fails before the corrupted mdup of the member 21 is read
    corrupt(monkeypatch, phi={(W12, 2): W21}, profiles={W21: {11: 1}})
    assert failure((1, 1)) == '{"kind": "hop", "letter": 2, "m": [1, 1], "word": "1,2"}'


def test_orbit_size(monkeypatch):
    # 1122 moves no letter; raising its dasc by one, with asc and mdup
    # moved to keep both identities, asks for an orbit of two
    corrupt(monkeypatch, profiles={W1122: {0: 1, 7: 1, 11: -1}})
    assert failure((2, 2)) == '{"kind": "orbit-size", "m": [2, 2], "word": "1,1,2,2"}'


def test_cover_inside_the_loop(monkeypatch):
    # letter 2 counted as moving at 12, with dasc raised to match and asc
    # and mdup moved to keep both identities, asks for four of two words
    corrupt(
        monkeypatch,
        classes={(W12, 2): kernel.DOUBLE_ASCENT},
        profiles={W12: {0: 1, 7: 1, 11: -1}},
    )
    assert failure((1, 1)) == '{"kind": "cover", "m": [1, 1], "word": "1,2"}'


def test_no_representative(monkeypatch):
    # 1221 and its orbit are never reached, so the orbits miss two words
    corrupt(monkeypatch, profiles={W1221: {8: 1}})
    assert failure((2, 2)) == '{"kind": "cover", "m": [2, 2]}'


def test_two_representatives_in_word_order(monkeypatch):
    corrupt(monkeypatch, profiles={W2211: {9: -1}})
    assert failure((2, 2)) == '{"kind": "unique-representative", "m": [2, 2], "word": "1,2,2,1"}'


def test_identity_ascpp(monkeypatch):
    corrupt(monkeypatch, profiles={W1221: {10: 1}})
    assert failure((2, 2)) == '{"kind": "identity-ascpp", "m": [2, 2], "word": "1,2,2,1"}'


def test_identity_dasc(monkeypatch):
    # asc and dasc rise together, so asc - dasc still equals ascpp
    corrupt(monkeypatch, profiles={W1221: {0: 1, 7: 1}})
    assert failure((2, 2)) == '{"kind": "identity-dasc", "m": [2, 2], "word": "1,2,2,1"}'


def test_scan_failure_the_tables_pass_is_reported(monkeypatch):
    # letter 1 moves 12 <-> 21 but is classed FIXED at both: the toggle
    # holds, so the whole-table checks pass, while the representative 12
    # has no moving letter for its dasc of 1
    corrupt(monkeypatch, classes={(W12, 1): kernel.FIXED, (W21, 1): kernel.FIXED})
    assert action_tables_pass((1, 1))
    assert failure((1, 1)) == '{"kind": "orbit-size", "m": [1, 1], "word": "1,2"}'


@pytest.mark.parametrize("parts", [(1, 1), (2, 2), (2, 1, 1), (1, 2, 1, 1)])
def test_uncorrupted_tables_pass(monkeypatch, parts):
    corrupt(monkeypatch)
    assert verify.check_gfs(parts).passed
    assert action_tables_pass(parts)


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
    # classed FIXED stays put (test_scan_failure_the_tables_pass_is_reported)
    parts, phi, classes, profiles = case
    with pytest.MonkeyPatch.context() as monkeypatch:
        corrupt(monkeypatch, phi, classes, profiles)
        if kernel.gfs_scan(parts) is None:
            assert action_tables_pass(parts)


@given(corruptions())
@settings(max_examples=300, deadline=None)
def test_a_failing_scan_names_a_word_and_a_letter(case):
    parts, phi, classes, profiles = case
    with pytest.MonkeyPatch.context() as monkeypatch:
        corrupt(monkeypatch, phi, classes, profiles)
        found = kernel.gfs_scan(parts)
    if found is not None:
        check, word, letter = found
        if word is None:
            assert check == "cover"
        else:
            assert word in _pure.words_of(parts)
        assert letter in range(len(parts) + 1)
