"""The verify text report is byte-identical to the one recorded with the
benchmark (``perfbench/expected``), except for the ``backend:`` note,
which names the kernel that ran rather than a result."""

from pathlib import Path

from stirlingperms import verify

EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected" / "verify-sweep-7.txt"


def test_report_at_total_7_matches_the_recorded_text():
    reports, notes = verify.verify_all(7, jobs=1)
    text = verify.render_text(reports, notes)
    got = [line for line in text.splitlines(keepends=True) if not line.startswith("backend:")]
    assert got == EXPECTED.read_bytes().decode().splitlines(keepends=True)
