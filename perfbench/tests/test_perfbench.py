"""Tests of the benchmark itself, at tiny scale.

Run from the root of a checkout: python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(root: Path, workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_workload_emits_every_metric(workload, trace):
    lines, result = run_bench(ROOT, workload, trace)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    assert any(line.startswith("env: backend=") for line in lines)
    assert any(line.startswith("fail_ratio 0 ") for line in lines)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_corrupted_expected_report_shows_in_fail_ratio(tmp_path):
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "setup.py", tmp_path)
    expected = tmp_path / "perfbench" / "expected" / "verify-sweep-3.txt"
    lines = expected.read_text().splitlines()
    lines[5] = lines[5].replace("PASS", "FAIL")
    expected.write_text("\n".join(lines) + "\n")
    out, result = run_bench(tmp_path, "verify-sweep", 0)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert any(line.startswith("fail_ratio ") and not line.startswith("fail_ratio 0 ") for line in out)


def test_corrupted_algebra_digest_is_a_failed_op():
    work = workloads.GrammarAlgebra(1, "tiny")
    _, _, outputs = work.block()
    assert work.check(outputs) == (8, 0)
    key = workloads.words.format_composition(work.comps[0])
    work.expected = dict(work.expected, **{key: "0" * 16})
    assert work.check(outputs) == (8, 1)


def test_failed_counting_check_is_a_failed_op():
    work = workloads.CountingCriterion(1, "tiny")
    _, _, outputs = work.block()
    assert work.check(outputs) == (16, 0)
    outputs[2] = workloads.verify.VerifyReport("counting", outputs[2].params, False, "{}", 0.0)
    assert work.check(outputs) == (16, 1)


def test_oracle_rejects_wrong_answers():
    oracle = workloads.Oracle()
    stream = workloads.query_stream(5, (3, 5), oracle)
    seen = set()
    for query in itertools.islice(stream, 400):
        kind, m, arg = query
        answer = workloads.answer(query)
        assert oracle.ok(query, answer), query
        if kind in seen:
            continue
        seen.add(kind)
        if kind == "canonical_rep":
            wrong = tuple(reversed(answer)) if answer != tuple(reversed(answer)) else arg[:-1]
        elif kind == "orbit":
            wrong = answer[:-1] or [tuple(reversed(arg))]
        elif kind == "is_stirling+profile":
            wrong = (not answer[0], answer[1])
        elif kind == "s_mi+is_real_rooted":
            wrong = (workloads.UniPoly.of(answer[0].coeffs + (1,)), True)
        elif kind == "partial_gamma(s_poly)":
            wrong = workloads.gamma.partial_gamma(workloads.gamma.s_poly(m + (1,)))
        else:
            wrong = answer * 2
        assert not oracle.ok(query, wrong), kind
        assert not oracle.ok(query, ValueError("raised")), kind
    assert seen == set(workloads.QUERY_KINDS)


def test_query_stream_depends_only_on_seed():
    def take(seed):
        return list(itertools.islice(workloads.query_stream(seed, (3, 7), workloads.Oracle()), 300))

    assert take(11) == take(11)
    assert take(11) != take(12)


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "api-queries", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
