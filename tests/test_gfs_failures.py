"""Every FAIL payload of the gfs-properties suite, pinned byte for byte.

Each test corrupts the per-word kernel answers (``phi_letter``,
``classify_letter``, ``profile12``) and feeds ``check_gfs`` a
``hop_tables`` built from the corrupted ``phi_letter`` and
``classify_letter``, so the suite sees one consistent wrong kernel.  The
expected strings are the reports of the per-word implementation of
``check_gfs`` that scanned words in sorted order, letters in increasing
order, under the same corruption: a failure is always the first failing
(word, letter) in that order, whichever whole-table check noticed it.
"""

import pytest

from stirlingperms import gfs, verify
from stirlingperms._backend import kernel

W1122, W1221, W2211 = b"\x01\x01\x02\x02", b"\x01\x02\x02\x01", b"\x02\x02\x01\x01"
W12, W21 = b"\x01\x02", b"\x02\x01"


def corrupt(monkeypatch, phi=None, classes=None, profiles=None):
    """Override ``phi_letter`` and ``classify_letter`` answers at given
    ``(word, letter)`` keys, and add ``{index: delta}`` to the profile of
    given words; ``hop_tables`` is rebuilt from the overridden functions.

    ``classify_letter`` is overridden only inside ``hop_tables``: the pure
    kernel's ``phi_letter`` reads its module's ``classify_letter``, so
    patching that would corrupt the hops as well."""
    phi, classes, profiles = phi or {}, classes or {}, profiles or {}
    real_phi, real_cls, real_prof = kernel.phi_letter, kernel.classify_letter, kernel.profile12

    def phi_letter(w, x):
        return phi.get((w, x), real_phi(w, x))

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

    monkeypatch.setattr(kernel, "phi_letter", phi_letter)
    monkeypatch.setattr(kernel, "profile12", profile12)
    monkeypatch.setattr(kernel, "hop_tables", hop_tables, raising=False)


def failure(parts):
    report = verify.check_gfs(parts)
    assert not report.passed
    assert report.line() == f"gfs-properties m={','.join(map(str, parts))} FAIL {report.counterexample}"
    return report.counterexample


def test_closure(monkeypatch):
    corrupt(monkeypatch, phi={(W2211, 1): b"\x01\x02\x01\x02"})
    assert failure((2, 2)) == (
        '{"image": "1,2,1,2", "kind": "closure", "letter": 1, "m": [2, 2], "word": "2,2,1,1"}'
    )


def test_involution(monkeypatch):
    corrupt(monkeypatch, phi={(W21, 1): W21})
    assert failure((1, 1)) == '{"kind": "involution", "letter": 1, "m": [1, 1], "word": "1,2"}'


def test_toggle_reports_the_first_failing_word(monkeypatch):
    # the corrupted class of 12 passes the toggle at 12 itself and breaks
    # it at its image 21
    corrupt(monkeypatch, classes={(W12, 1): kernel.FIXED})
    assert failure((1, 1)) == '{"kind": "toggle", "letter": 1, "m": [1, 1], "word": "2,1"}'


def test_mdup_invariance(monkeypatch):
    corrupt(monkeypatch, profiles={W2211: {11: 1}})
    assert failure((2, 2)) == (
        '{"kind": "mdup-invariance", "letter": 1, "m": [2, 2], "word": "1,2,2,1"}'
    )


def test_commutation_precedes_a_later_letter(monkeypatch):
    # phi_2(12) = 21 also breaks the involution at (12, 2), but the
    # commutation of letters 1 and 2 at word 12 comes first
    corrupt(monkeypatch, phi={(W12, 2): W21})
    assert failure((1, 1)) == '{"kind": "commutation", "letters": [1, 2], "m": [1, 1], "word": "1,2"}'


def test_orbit_size(monkeypatch):
    # commuting involutions only make power-of-two orbits, so no kernel
    # answer that passes the action checks reaches this; merge the orbits
    # {1122} and {1221, 2211} instead
    corrupt(monkeypatch)
    monkeypatch.setattr(gfs, "orbit_labels", lambda size, phis: [0] * size)
    assert failure((2, 2)) == '{"kind": "orbit-size", "m": [2, 2], "orbit_size": 3, "seed": "1,1,2,2"}'


def test_no_representative(monkeypatch):
    corrupt(monkeypatch, profiles={W1221: {8: 1}})
    assert failure((2, 2)) == (
        '{"kind": "unique-representative", "m": [2, 2], "representatives": [], "seed": "1,2,2,1"}'
    )


def test_two_representatives_in_word_order(monkeypatch):
    # the per-word check listed them in set order, which varied with the
    # hash seed; the tables list them in word order
    corrupt(monkeypatch, profiles={W2211: {9: -1}})
    assert failure((2, 2)) == (
        '{"kind": "unique-representative", "m": [2, 2], '
        '"representatives": ["1,2,2,1", "2,2,1,1"], "seed": "1,2,2,1"}'
    )


def test_identity_ascpp(monkeypatch):
    corrupt(monkeypatch, profiles={W1221: {10: 1}})
    assert failure((2, 2)) == (
        '{"kind": "identity-ascpp", "m": [2, 2], "representative": "1,2,2,1"}'
    )


def test_identity_dasc(monkeypatch):
    # asc and dasc rise together, so asc - dasc still equals ascpp
    corrupt(monkeypatch, profiles={W1221: {0: 1, 7: 1}})
    assert failure((2, 2)) == (
        '{"kind": "identity-dasc", "m": [2, 2], "representative": "1,2,2,1"}'
    )


@pytest.mark.parametrize("parts", [(1, 1), (2, 2), (2, 1, 1), (1, 2, 1, 1)])
def test_uncorrupted_tables_pass(monkeypatch, parts):
    corrupt(monkeypatch)
    assert verify.check_gfs(parts).passed
