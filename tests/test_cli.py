import json
import subprocess
import sys

import pytest

from stirlingperms import verify
from stirlingperms.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_enumerate_text(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--m", "2,2")
    assert code == 0
    assert out.splitlines() == ["1,1,2,2", "1,2,2,1", "2,2,1,1"]


def test_enumerate_json_and_count(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--m", "2,2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == "3"
    assert data["words"] == ["1,1,2,2", "1,2,2,1", "2,2,1,1"]
    code, out, _ = run_cli(capsys, "enumerate", "--m", "1,1,1,1", "--count-only")
    assert code == 0 and out.strip() == "24"


def test_poly_text(capsys):
    code, out, _ = run_cli(capsys, "poly", "--m", "1,1")
    assert code == 0 and out.strip() == "x^2*y + x*y^2"


def test_gamma_json_matches_table(capsys):
    code, out, _ = run_cli(capsys, "gamma", "--m", "2,2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["entries"] == [
        {"i": 1, "j": 2, "g": "1"},
        {"i": 2, "j": 1, "g": "1"},
    ]
    assert data["positive"] is True


def test_gamma_csv_and_combinatorial(capsys):
    code, out, _ = run_cli(capsys, "gamma", "--m", "2,2", "--format", "csv")
    assert code == 0 and out == "i,j,gamma\n1,2,1\n2,1,1\n"
    code, out2, _ = run_cli(capsys, "gamma", "--m", "2,2", "--combinatorial", "--format", "csv")
    assert code == 0 and out2 == out


def test_gamma_empty_m(capsys):
    code, out, err = run_cli(capsys, "gamma", "--m", "")
    assert code == 2 and out == ""
    assert "--m" in err and "nonempty" in err and "Traceback" not in err
    code, out, _ = run_cli(capsys, "gamma", "--m", "", "--combinatorial")
    assert code == 0 and out == "positive: true\n"


def test_grammar_dumont(capsys):
    code, out, _ = run_cli(capsys, "grammar", "--dumont", "3")
    assert code == 0
    assert out.strip() == "x^3*y + 4*x^2*y^2 + x*y^3"


def test_grammar_m(capsys):
    code, out, _ = run_cli(capsys, "grammar", "--m", "1")
    assert code == 0 and out.strip() == "x*z"


def test_gfs_commands(capsys):
    code, out, _ = run_cli(capsys, "gfs", "--word", "15565333124411", "--phi", "1")
    assert code == 0 and out.strip() == "5,5,6,5,3,3,3,1,1,2,4,4,1,1"
    code, out, _ = run_cli(capsys, "gfs", "--word", "15565333124411", "--phi-set", "1,3")
    assert code == 0 and out.strip() == "3,5,5,6,5,3,3,1,1,2,4,4,1,1"
    code, out, _ = run_cli(capsys, "gfs", "--word", "2,2,1,1", "--orbit")
    assert code == 0 and out.splitlines() == ["1,2,2,1", "2,2,1,1"]
    code, out, _ = run_cli(capsys, "gfs", "--word", "2211", "--rep")
    assert code == 0 and out.strip() == "1,2,2,1"
    code, out, _ = run_cli(capsys, "gfs", "--word", "1221", "--classify", "1")
    assert code == 0 and out.strip() == "DOUBLE_ASCENT"


@pytest.mark.parametrize(
    "word, reason",
    [("1,2,1,2", "not a generalized Stirling word"), ("1,3,3,1", "without gaps"),
     (",".join(map(str, range(1, 257))), "at most 255")],
)
def test_gfs_non_stirling_word_is_usage_error(capsys, word, reason):
    for op in (["--rep"], ["--orbit"], ["--phi", "1"], ["--classify", "1"]):
        code, out, err = run_cli(capsys, "gfs", "--word", word, *op)
        assert code == 2 and out == ""
        assert "--word" in err and reason in err and "Traceback" not in err


def test_gfs_empty_word(capsys):
    code, out, _ = run_cli(capsys, "gfs", "--word", "", "--rep")
    assert code == 0 and out == "\n"
    code, out, _ = run_cli(capsys, "gfs", "--word", "", "--format", "json", "--rep")
    assert code == 0 and json.loads(out) == {"word": "", "representative": ""}
    code, _, err = run_cli(capsys, "gfs", "--word", "", "--phi", "1")
    assert code == 2 and "--word/--phi" in err


def test_gfs_absent_letter_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "gfs", "--word", "1,1", "--phi", "3")
    assert code == 2 and "--word/--phi" in err


def test_jacobi_commands(capsys):
    code, out, _ = run_cli(capsys, "jacobi", "--n", "7", "--set", "1,2,5,7")
    assert code == 0
    assert out.splitlines()[0] == "m(S)=2,2,1,2,1,2,2,1,2,2"
    code, out, _ = run_cli(capsys, "jacobi", "--n", "1", "--set", "", "--words")
    assert code == 0 and out.splitlines() == ["1b,1,1", "1,1,1b"]
    code, out, _ = run_cli(capsys, "jacobi", "--n", "1", "--level", "0")
    assert code == 0 and out.strip() == "x^2*y*z + x*y^2*z"
    code, _, err = run_cli(capsys, "jacobi", "--n", "2", "--set", "5")
    assert code == 2 and "--set" in err


def test_realroot_command(capsys):
    code, out, _ = run_cli(capsys, "realroot", "--m", "2,2", "--i", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "polynomial: x + x^2"
    assert "real_rooted: true" in lines
    assert "palindromic: true" in lines
    assert any(line.startswith("sturm_chain_lengths:") for line in lines)


def test_realroot_prints_the_chain_of_p(capsys):
    # the chain of x^3 is x^3, x^2: it ends at gcd(p, p') = x^2, not at x
    code, out, _ = run_cli(capsys, "realroot", "--m", "2,2,2", "--i", "1")
    assert code == 0
    assert out.splitlines() == [
        "polynomial: x^3",
        "real_rooted: true",
        "palindromic: true",
        "distinct_real_roots: 1",
        "sturm_chain_lengths: [4, 3]",
    ]
    code, out, _ = run_cli(capsys, "realroot", "--m", "2,2,2", "--i", "1", "--format", "json")
    data = json.loads(out)
    assert data["sturm_chain_lengths"] == [4, 3]
    assert data["distinct_real_roots"] == 1 and data["real_rooted"] is True


def test_probe_command(capsys):
    code, out, _ = run_cli(capsys, "probe", "--m", "2,2", "--trials", "100", "--seed", "42")
    assert code == 0
    assert "counterexample: none" in out
    assert "disclaimer" in out
    code, out, _ = run_cli(
        capsys, "probe", "--m", "2,2", "--trials", "50", "--seed", "42", "--format", "json"
    )
    data = json.loads(out)
    assert data["counterexample"] is None and data["disclaimer"]


def test_verify_pass_and_note(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-total", "3", "--jobs", "1")
    assert code == 0
    assert out.splitlines()[-1].startswith("RESULT PASS")
    assert "ascpp=3" in out and "mdup=6" in out  # informational note surfaced


def test_verify_single_suite_json(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "theorem", "--max-total", "3", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert all(r["suite"] == "theorem" for r in data["reports"])
    assert all("wall_ms" not in r for r in data["reports"])


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records the worker count and
    runs the tasks in this process."""

    created: list[int] = []

    def __init__(self, max_workers):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize=1):
        return map(fn, tasks)


@pytest.mark.parametrize(
    "jobs, cpus, workers",
    [
        ("1000000", 64, [3]),  # clamped to the 3 jacobi tasks
        ("1000000", 2, [2]),  # clamped to the CPUs
        ("0", 64, [3]),  # 0 = machine parallelism, then clamped to the tasks
        ("1000000", 1, []),  # one worker runs in process, without a pool
    ],
)
def test_verify_jobs_clamped(capsys, monkeypatch, jobs, cpus, workers):
    monkeypatch.setattr(verify, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "created", [])
    monkeypatch.setattr(verify.os, "cpu_count", lambda: cpus)
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "jacobi", "--max-total", "1", "--jobs", jobs
    )
    assert code == 0 and out.splitlines()[-1] == "RESULT PASS (3 checks)"
    assert RecordingPool.created == workers


def test_usage_errors(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--m", "0,2")
    assert code == 2 and "--m" in err
    code, _, err = run_cli(capsys, "verify", "--max-total", "0")
    assert code == 2 and "--max-total" in err
    assert main(["enumerate"]) == 2  # missing required --m (argparse)
    assert main(["realroot", "--m", "2,2", "--i", "9"]) == 2


def test_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "stirlingperms.cli", "grammar", "--dumont", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "x^2*y + x*y^2"
