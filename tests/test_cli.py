import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from stirlingperms import __version__, _backend, jacobi, roots, verify
from stirlingperms.cli import MAX_WORDS, _check_budget, _level_word_count, main
from stirlingperms.poly import MultiPoly
from stirlingperms.words import compositions_up_to, count_words


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


#: Command lines with their exact stdout, stderr and exit code: every
#: subcommand in each of its formats, and each usage error.  The
#: ``backend:`` note of a verify report reads ``backend: *``.
CORPUS = json.loads((Path(__file__).parent / "cli_corpus.json").read_text())


@pytest.mark.parametrize("case", CORPUS, ids=lambda case: shlex.join(case["argv"]) or "(none)")
def test_cli_corpus(capsys, monkeypatch, case):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage lines to the terminal
    code, out, err = run_cli(capsys, *case["argv"])
    out = out.replace(f"backend: {_backend.backend_name()}", "backend: *")
    assert (code, out, err) == (case["code"], case["stdout"], case["stderr"])


def test_cli_corpus_on_the_pure_backend():
    # one fresh process in which the compiled kernel cannot import; it
    # prints the entries whose answer differs, with what it got
    code = """
import contextlib, io, json, sys
sys.modules["stirlingperms._core"] = None
from stirlingperms.cli import main
failed = []
for case in json.loads(open(sys.argv[1]).read()):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(case["argv"])
    got = [code, out.getvalue().replace("backend: pure", "backend: *"), err.getvalue()]
    if got != [case["code"], case["stdout"], case["stderr"]]:
        failed.append([case["argv"], got])
print(json.dumps(failed))
"""
    proc = subprocess.run(
        [sys.executable, "-c", code, str(Path(__file__).parent / "cli_corpus.json")],
        capture_output=True, text=True, env={**os.environ, "COLUMNS": "80"},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


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


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_grammar_prints_coefficients_past_the_int_str_limit(capsys, monkeypatch, fmt):
    # Python refuses to convert an int of more than 4,300 digits to str by
    # default; the CLI prints it whole and then restores that limit
    big, digits = 7 * 10**4999 + 1, "7" + "0" * 4998 + "1"
    monkeypatch.setattr("stirlingperms.cli.dumont_poly", lambda n: big * MultiPoly.var("x"))
    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli(capsys, "grammar", "--dumont", "1700", "--format", fmt)
    assert code == 0 and err == ""
    assert sys.get_int_max_str_digits() == limit
    if fmt == "json":
        assert json.loads(out)["terms"] == [{"e": [1], "c": digits}]
    else:
        assert out == digits + "*x\n"


def test_enumerate_count_past_the_int_str_limit(capsys):
    # 255 letters of multiplicity 10^100: a count of more than 4,300 digits
    code, out, err = run_cli(capsys, "enumerate", "--m", ",".join(["1" + "0" * 100] * 255), "--count-only")
    assert code == 0 and err == ""
    assert len(out.strip()) > 4300 and out.strip().isdigit()


def test_input_past_the_int_str_limit_is_refused(capsys):
    # the digit limit is lifted only while output renders, so input parsing keeps it
    code, out, err = run_cli(capsys, "grammar", "--m", "1" + "0" * 4999)
    assert code == 2 and out == ""
    assert err.startswith("error: --m: bad m-vector '1000") and err.endswith("': parts must be integers\n")


def test_grammar_m(capsys):
    code, out, _ = run_cli(capsys, "grammar", "--m", "1")
    assert code == 0 and out.strip() == "x*z"


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--m", "3,3,3,3,3,3,3,3"],
        ["enumerate", "--m", "3,3,3,3,3,3,3,3", "--format", "json"],
        ["poly", "--m", "3,3,3,3,3,3,3,3"],
        ["gamma", "--m", "3,3,3,3,3,3,3,3"],
        ["gamma", "--m", "3,3,3,3,3,3,3,3", "--combinatorial"],
        ["realroot", "--m", "3,3,3,3,3,3,3,3", "--i", "0"],
    ],
)
def test_oversized_word_set_is_refused_before_enumerating(capsys, monkeypatch, argv):
    def refuse(*args):
        raise AssertionError("enumerated a word set above the budget")

    for name in ("words_of", "enum_counts", "joint_hist", "gfs_scan"):
        monkeypatch.setattr(_backend.kernel, name, refuse)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == (
        "error: --m: 3,3,3,3,3,3,3,3 has 24344320 words, "
        f"more than the {MAX_WORDS} this command builds\n"
    )


def test_budget_admits_every_vector_of_total_10(capsys):
    # 1,...,1 is the largest vector of its total: T! words
    assert count_words((1,) * 10) <= MAX_WORDS
    code, out, _ = run_cli(capsys, "enumerate", "--m", "1,1,1,1,1,1,1,1,1,1,1", "--count-only")
    assert code == 0 and int(out) == 39916800 > MAX_WORDS


@pytest.mark.parametrize("argv", [["--max-total", "11"], ["--suite", "counting", "--max-total", str(10**18)]])
def test_verify_max_total_above_the_budget_is_refused(capsys, monkeypatch, argv):
    # 1,...,1 of total 11 has 11! words; a huge total stops at the same
    # composition instead of computing its own factorial
    def refuse(*args, **kwargs):
        raise AssertionError("built a task list above the budget")

    for name in ("words_of", "enum_counts", "joint_hist", "gfs_scan", "brute_count"):
        monkeypatch.setattr(_backend.kernel, name, refuse)
    monkeypatch.setattr(verify, "verify_all", refuse)
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert err == (
        f"error: --max-total: {argv[-1]} includes 1,1,1,1,1,1,1,1,1,1,1, which has "
        f"39916800 words, more than the {MAX_WORDS} this command builds\n"
    )


def test_verify_budget_admits_total_10(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(verify, "verify_all", lambda *args, **kwargs: calls.append(args) or ([], []))
    code, out, _ = run_cli(capsys, "verify", "--max-total", "10", "--jobs", "1")
    assert code == 0 and out == "RESULT PASS (0 checks)\n"
    assert calls == [(10,)]


def test_verify_fixed_size_suite_ignores_the_budget(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "series", "--max-total", "11", "--jobs", "1")
    assert code == 0 and out.splitlines()[-1] == "RESULT PASS (8 checks)"


@pytest.mark.parametrize(
    "argv, what",
    [
        (["poly", "--m", "99999999999999999999"], "99999999999999999999 has 1 words of 99999999999999999999"),
        (["poly", "--m", "1000,1000,1000"], "1000,1000,1000 has 2003001 words of 3000"),
        (["enumerate", "--m", "1000,1000,1000"], "1000,1000,1000 has 2003001 words of 3000"),
        (["gamma", "--m", "1000,1000,1000"], "1000,1000,1000 has 2003001 words of 3000"),
        (["gamma", "--m", "1000,1000,1000", "--combinatorial"], "1000,1000,1000 has 2003001 words of 3000"),
        (["realroot", "--m", "1000,1000,1000", "--i", "0"], "1000,1000,1000 has 2003001 words of 3000"),
    ],
)
def test_word_set_with_too_many_letters_is_refused_before_enumerating(capsys, monkeypatch, argv, what):
    # few enough words, but the kernel's sort buffers take a byte per letter
    def refuse(*args):
        raise AssertionError("enumerated a word set above the budget")

    for name in ("words_of", "enum_counts", "joint_hist", "gfs_scan", "profile12"):
        monkeypatch.setattr(_backend.kernel, name, refuse)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: --m: {what} letters, more than the {16 * MAX_WORDS} letters this command builds\n"


def test_letter_budget_admits_every_vector_of_total_10():
    for parts in compositions_up_to(10):
        _check_budget(parts)


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
    assert code == 2 and err.startswith("error: --phi: letter ")


def test_gfs_absent_letter_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "gfs", "--word", "1,1", "--phi", "3")
    assert code == 2 and err.startswith("error: --phi: letter ")


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
    code, out, err = run_cli(capsys, "jacobi", "--n", "2", "--set", "", "--words", "--poly")
    assert code == 2 and out == "" and err == "error: --poly: not allowed with --words\n"


@pytest.mark.parametrize(
    "argv, what",
    [
        (["--set", "", "--words"], "--set: m(S)=1,2,1,2,1,2,1,2,1,2 has 44844800"),
        (["--set", "", "--poly"], "--set: m(S)=1,2,1,2,1,2,1,2,1,2 has 44844800"),
        (["--set", "1", "--poly"], "--set: m(S)=2,1,2,1,2,1,2,1,2 has 7076160"),
        (["--level", "0"], "--level: level 0 of n=5 has 44844800"),
        (["--level", "1"], "--level: level 1 of n=5 has 22422400"),
    ],
)
def test_oversized_jacobi_word_set_is_refused_before_enumerating(capsys, monkeypatch, argv, what):
    def refuse(*args):
        raise AssertionError("enumerated a word set above the budget")

    for name in ("words_of", "enum_counts", "joint_hist", "gfs_scan", "profile12"):
        monkeypatch.setattr(_backend.kernel, name, refuse)
    code, out, err = run_cli(capsys, "jacobi", "--n", "5", *argv)
    assert code == 2 and out == ""
    assert err == f"error: {what} words, more than the {MAX_WORDS} this command builds\n"


def test_jacobi_budget_admits_what_fits(capsys, monkeypatch):
    # level 2 of n=5 sums to 4,804,800 words; the count alone needs no words
    calls = []
    monkeypatch.setattr(
        jacobi, "jsp_level_poly", lambda n, level: calls.append((n, level)) or MultiPoly.zero(("x", "y", "z"))
    )
    code, out, _ = run_cli(capsys, "jacobi", "--n", "5", "--level", "2")
    assert code == 0 and out == "0\n" and calls == [(5, 2)]
    code, out, _ = run_cli(capsys, "jacobi", "--n", "5", "--set", "")
    assert code == 0 and out.splitlines()[1] == "count=44844800"


def test_level_word_count_sums_the_subsets():
    for n in range(6):
        for level in range(n + 1):
            expected = sum(count_words(jacobi.m_of_s(n, s)) for s in jacobi.level_subsets(n, level))
            assert _level_word_count(n, level) == expected


def test_jacobi_n_must_fit_the_rank_bytes(capsys):
    code, _, err = run_cli(capsys, "jacobi", "--n", str(jacobi.MAX_N + 1), "--level", "0")
    assert code == 2 and err == f"error: --n: must lie in 0..{jacobi.MAX_N}\n"


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


def test_realroot_builds_one_chain(capsys, monkeypatch):
    calls = []
    chain = roots._sturm_chain
    monkeypatch.setattr(roots, "_sturm_chain", lambda c: calls.append(c) or chain(c))
    for fmt in ("text", "json"):
        calls.clear()
        code, _, _ = run_cli(capsys, "realroot", "--m", "1,2,1", "--i", "1", "--format", fmt)
        assert code == 0 and len(calls) == 1


def test_probe_command(capsys):
    # the float stability probe is gone: realroot is the exact certificate
    code, out, err = run_cli(capsys, "probe", "--m", "2,2")
    assert code == 2 and out == ""
    assert "invalid choice: 'probe'" in err


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
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "created", [])
    monkeypatch.setattr(verify.os, "cpu_count", lambda: cpus)
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "jacobi", "--max-total", "1", "--jobs", jobs
    )
    assert code == 0 and out.splitlines()[-1] == "RESULT PASS (3 checks)"
    assert RecordingPool.created == workers


def test_verify_negative_jobs_is_usage_error(capsys, monkeypatch):
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "created", [])
    code, out, err = run_cli(
        capsys, "verify", "--suite", "jacobi", "--max-total", "1", "--jobs", "-2"
    )
    assert code == 2 and out == ""
    assert err.startswith("error: --jobs:")
    assert RecordingPool.created == []


def test_usage_errors(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--m", "0,2")
    assert code == 2 and "--m" in err
    code, _, err = run_cli(capsys, "verify", "--max-total", "0")
    assert code == 2 and "--max-total" in err
    assert main(["enumerate"]) == 2  # missing required --m (argparse)
    assert main(["realroot", "--m", "2,2", "--i", "9"]) == 2


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_cli_examples():
    """The ``stirlingperms ...`` lines of the README's CLI block, each as
    (arguments, trailing comment)."""
    text = README.read_text()
    block = text[text.index("## CLI"):].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        command, _, comment = line.partition("  #")
        argv = shlex.split(command)
        assert argv[0] == "stirlingperms", line
        examples.append(pytest.param(argv[1:], comment.strip(), id=command.strip()))
    return examples


@pytest.mark.parametrize("argv, comment", readme_cli_examples())
def test_readme_cli_example_runs(capsys, argv, comment):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    if argv == ["grammar", "--dumont", "3"]:
        assert out == comment + "\n"


def test_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "stirlingperms.cli", "grammar", "--dumont", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "x^2*y + x*y^2"


def test_cli_import_leaves_the_process_pool_unloaded():
    # only verify --jobs > 1 needs multiprocessing; every other command skips it
    code = "import sys, stirlingperms.cli; print('concurrent.futures.process' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"



def fake_kernel(source_sha256):
    return SimpleNamespace(BACKEND_NAME="c", SOURCE_SHA256=source_sha256)


CURRENT_SHA256 = hashlib.sha256(_backend.CORE_SOURCE.read_bytes()).hexdigest()


def test_version_reports_the_kernel_that_runs(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0
    assert out.splitlines() == [
        f"stirlingperms {__version__}",
        f"backend: {_backend.backend_name()}",
        f"kernel source: {'match' if _backend.backend_name() == 'c' else 'n/a'}",
    ]


# The cases that carry the live hash get fixed ids: an id made from the hash
# would change with every edit of the kernel source.
@pytest.mark.parametrize(
    "source_sha256, source_name, status",
    [
        pytest.param(CURRENT_SHA256, "_core.c", "match", id="current-match"),
        ("0" * 64, "_core.c", "stale"),
        pytest.param(
            CURRENT_SHA256, "missing/_core.c", "source not found", id="current-missing"
        ),
    ],
)
def test_version_compares_the_kernel_with_its_source(
    capsys, monkeypatch, source_sha256, source_name, status
):
    monkeypatch.setattr(_backend, "kernel", fake_kernel(source_sha256))
    monkeypatch.setattr(_backend, "CORE_SOURCE", _backend.CORE_SOURCE.parent / source_name)
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0
    assert out.splitlines()[1:] == ["backend: c", f"kernel source: {status}"]
