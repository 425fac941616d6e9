"""The verify text report is byte-identical to the one recorded with the
benchmark (``perfbench/expected``), and the total-8 text and JSON to the
ones pinned beside these tests, except for the ``backend:`` note, which
names the kernel that ran rather than a result."""

import inspect
from pathlib import Path

import pytest

from stirlingperms import verify

EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected" / "verify-sweep-7.txt"
#: ``verify --max-total 8 --jobs 1`` as text and as JSON, without the
#: ``backend:`` note
PINNED_8 = Path(__file__).resolve().parent / "verify-total-8"


def test_report_at_total_7_matches_the_recorded_text():
    reports, notes = verify.verify_all(7, jobs=1)
    text = verify.render_text(reports, notes)
    got = [line for line in text.splitlines(keepends=True) if not line.startswith("backend:")]
    assert got == EXPECTED.read_bytes().decode().splitlines(keepends=True)


def test_report_at_total_8_matches_the_pinned_text_and_json():
    reports, notes = verify.verify_all(8, jobs=1)
    notes = [note for note in notes if not note.startswith("backend:")]
    assert verify.render_text(reports, notes) == PINNED_8.with_suffix(".txt").read_bytes().decode()
    assert verify.render_json(reports, notes) == PINNED_8.with_suffix(".json").read_bytes().decode()


def test_suite_names_keep_declaration_order():
    assert verify.SUITE_NAMES == (
        "counting",
        "lemma-equidistribution",
        "grammar-claim",
        "gfs-properties",
        "theorem",
        "jacobi",
        "realroot",
        "series",
    )


def test_verify_all_runs_a_check_patched_onto_the_module(monkeypatch):
    # the harness reads check_* from the module when each task runs, so a
    # test double or a tracing wrapper put there is the one that runs
    def stub(kind, n):
        return verify.VerifyReport("series", f"stub {kind} {n}", n != 2, None, 0.0)

    monkeypatch.setattr(verify, "check_series", stub)
    reports, _ = verify.verify_all(1, jobs=1, suites=["series"])
    assert [r.params for r in reports] == [
        f"stub {kind} {n}" for kind in ("eulerian", "second_order") for n in range(1, 5)
    ]
    assert [r.passed for r in reports] == [n != 2 for _ in range(2) for n in range(1, 5)]


def test_verify_all_rejects_a_total_below_one():
    with pytest.raises(ValueError, match="at least 1"):
        verify.verify_all(0)


def test_verify_all_rejects_an_unknown_suite():
    with pytest.raises(ValueError, match="^unknown suite 'nope'; choose from counting, "):
        verify.verify_all(3, suites=["counting", "nope"])


def test_verify_all_rejects_an_empty_suite_selection():
    # no reports would render as a pass that checked nothing
    with pytest.raises(ValueError, match="^no suite chosen; choose from counting, "):
        verify.verify_all(7, suites=[])


def test_verify_all_rejects_a_bare_suite_name():
    # a string is iterable, and would otherwise be read letter by letter
    with pytest.raises(TypeError, match="^suites must be a collection of suite names, not the string 'counting'$"):
        verify.verify_all(2, suites="counting")


@pytest.mark.parametrize(
    "name, params, args",
    [
        ("check_counting", ["parts"], ((2, 1),)),
        ("check_jacobi", ["n"], (1,)),
        ("check_series", ["kind", "n"], ("eulerian", 2)),
    ],
)
def test_checks_keep_their_names_and_signatures(name, params, args):
    check = getattr(verify, name)
    assert check.__name__ == name
    assert list(inspect.signature(check).parameters) == params
    report = check(*args)
    assert isinstance(report, verify.VerifyReport) and report.passed
