#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of stirlingperms.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 28 --trace 0

Builds the package in place with the repository's ``setup.py`` (which
compiles the kernel extension only when its toolchain is present), then
times ``import stirlingperms`` in fresh interpreters for ``setup_s``, then
runs worker processes (``worker.py``) for ``--seconds``.  The sweep
workloads start one worker per pass, as a user runs one command; the
query workload keeps one worker, as one long-lived client.  Every output
is checked outside the timed region.

``--trace 0`` reports the end-to-end metrics, with times calibrated
against a reference loop run beside every block (see ``reference.py``);
``--trace 1`` alternates untraced and traced blocks and reports the
per-layer metrics plus ``trace_overhead_ratio``.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give the environment and every metric by name and unit.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

from reference import reference_times, speed_factor

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("verify-sweep", "counting", "grammar-algebra", "api-queries")
SETUP_SPAWNS = 11
CHILD_TIMEOUT_S = 150

SUITES = (
    "counting", "lemma-equidistribution", "grammar-claim", "gfs-properties",
    "theorem", "jacobi", "realroot", "series",
)
QUERY_SPANS = (
    "gfs.canonical_rep", "gfs.orbit", "words.is_stirling", "stats.profile",
    "gamma.s_poly", "gamma.partial_gamma", "roots.s_mi", "roots.is_real_rooted",
    "grammar.quintuple_poly",
)


class BenchError(RuntimeError):
    pass


def child_env(seed: int) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("STIRLINGPERMS_BACKEND", None)  # measure the default backend
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    return env


def run_checked(cmd, env, timeout) -> str:
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[1:3])} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return proc.stdout


def build(env) -> None:
    run_checked(
        [sys.executable, "setup.py", "build_ext", "--inplace",
         "--build-temp", str(ROOT / ".bench_build" / "temp")],
        env, timeout=600,
    )


def measure_setup(env) -> tuple[float, list[float]]:
    """Median wall time from starting a fresh interpreter to
    ``import stirlingperms`` done, after one untimed start that fills the
    bytecode cache; and the reference times measured around it."""
    cmd = [sys.executable, "-c", "import stirlingperms"]
    run_checked(cmd, env, CHILD_TIMEOUT_S)
    ref = reference_times()
    times = []
    for _ in range(SETUP_SPAWNS):
        t0 = perf_counter()
        run_checked(cmd, env, CHILD_TIMEOUT_S)
        times.append(perf_counter() - t0)
    ref += reference_times()
    return median(times), ref


def run_workers(workload, seed, scale, seconds, trace, env) -> list[dict]:
    """Start workers until the next one would not fit in ``seconds``;
    with tracing, until at least one untraced and one traced block ran."""
    workers: list[dict] = []
    start = perf_counter()
    while True:
        modes = ("ut" if len(workers) % 2 == 0 else "tu") if trace else "u"
        budget = max(seconds - (perf_counter() - start), 0.0)
        t0 = perf_counter()
        out = run_checked(
            [sys.executable, str(HERE / "worker.py"), workload, str(seed), scale, modes, f"{budget:.3f}"],
            env, CHILD_TIMEOUT_S,
        )
        record = json.loads(out.strip().splitlines()[-1])
        record["modes"], record["wall"] = modes, perf_counter() - t0
        workers.append(record)
        if trace and {b["mode"] for w in workers for b in w["blocks"]} != {"u", "t"}:
            continue
        nxt = ("ut" if len(workers) % 2 == 0 else "tu") if trace else "u"
        similar = [w["wall"] for w in workers if w["modes"] == nxt] or [w["wall"] for w in workers]
        if perf_counter() - start + median(similar) > seconds:
            return workers


def blocks_of(workers, mode) -> list[dict]:
    return [b for w in workers for b in w["blocks"] if b["mode"] == mode]


def run_speed(blocks) -> float:
    """Speed factor from every reference loop run beside these blocks."""
    return speed_factor([r for b in blocks for r in b["ref_s"]])


def end_to_end(workers, setup, calibrated=True) -> dict:
    """Times are calibrated by the reference loops run beside them (see
    ``reference.py``), or raw with ``calibrated=False``."""
    setup_s, setup_ref = setup
    blocks = blocks_of(workers, "u")
    k, k_setup = (run_speed(blocks), speed_factor(setup_ref)) if calibrated else (1.0, 1.0)
    lat = [x * k for b in blocks for x in b["latencies_us"]]
    cuts = quantiles(lat, n=100)
    return {
        "setup_s": (setup_s * k_setup, "s"),
        "wall_s": (median(b["s"] for b in blocks) * k, "s"),
        "peak_rss_mb": (median(w["rss_kb"] for w in workers) / 1024, "MB"),
        "ops_per_s": (len(lat) / sum(b["s"] * k for b in blocks), "1/s"),
        "op_p50_us": (cuts[49], "us"),
        "op_p99_us": (cuts[98], "us"),
    }


def per_layer(workers) -> dict:
    """Per-layer values per traced block (one pass, or one block of
    queries), in raw seconds, and the ratio of calibrated traced to
    untraced block times."""
    traced, untraced = blocks_of(workers, "t"), blocks_of(workers, "u")
    n = len(traced)

    def total(kind, key):
        return sum(b["layers"][kind].get(key, 0) for b in traced)

    def calls(name):
        return total("calls", name) / n

    def secs(name):
        return total("seconds", name) / n

    def counter(name):
        return total("counters", name) / n

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}

    def timed(name):
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.s"] = (secs(name), "s")

    timed("kernel.words_of")
    out["kernel.words_of.words"] = (counter("kernel.words_of.words"), "count")
    out["kernel.words_of.reuse_ratio"] = (
        ratio(counter("kernel.words_of.distinct"), calls("kernel.words_of")), "ratio")
    for name in ("kernel.profile12", "kernel.phi_letter", "kernel.classify_letter"):
        timed(name)
    out["kernel.brute_count.s"] = (secs("kernel.brute_count"), "s")
    out["kernel.brute_count.computed_perms_per_s"] = (
        ratio(counter("kernel.brute_count.perms"), secs("kernel.brute_count")), "1/s")
    out["kernel.brute_count.hit_ratio"] = (
        ratio(counter("kernel.brute_count.hits"), counter("kernel.brute_count.perms")), "ratio")
    out["kernel.enum_counts.s"] = (secs("kernel.enum_counts"), "s")
    for suite in SUITES:
        name = f"verify.{suite}"
        out[f"{name}.s"] = (secs(name), "s")
        out[f"{name}.self_s"] = (total("self_seconds", name) / n, "s")
        out[f"{name}.checks"] = (calls(name), "count")
    for name in ("poly.add", "poly.mul", "poly.evaluate", "grammar.derive"):
        timed(name)
    out["grammar.terms_out"] = (counter("grammar.terms_out"), "count")
    for name in ("gamma.gamma_expand", "roots.is_real_rooted", "roots.s_mi"):
        timed(name)
    out["roots.s_mi.words_scanned"] = (counter("roots.s_mi.words_scanned"), "count")
    for name in QUERY_SPANS:
        samples = [x for b in traced for x in b["layers"]["samples"][name]]
        out[f"{name}.p50_us"] = (median(samples) if samples else 0.0, "us")
    out["trace_overhead_ratio"] = (
        median(b["s"] for b in traced) * run_speed(traced)
        / (median(b["s"] for b in untraced) * run_speed(untraced)), "ratio")
    return out


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts and path.suffix != ".so":
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_revision() -> str | None:
    """The checkout's own revision; None when it is not a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: seconds-long smoke sizes for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "stirlingperms" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'stirlingperms'}", file=sys.stderr)
        return 2
    env = child_env(args.seed)
    try:
        build(env)
        setup = measure_setup(env)
        workers = run_workers(args.workload, args.seed, args.scale, args.seconds, args.trace, env)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    package = Path(workers[0]["env"]["package"]).resolve()
    if SRC.resolve() not in package.parents:
        print(f"error: measured {package}, not the checkout's package", file=sys.stderr)
        return 1
    metrics = per_layer(workers) if args.trace else end_to_end(workers, setup)
    blocks = [b for w in workers for b in w["blocks"]]
    attempted = sum(b["attempted"] for b in blocks)
    failed = sum(b["failed"] for b in blocks)
    env_info = dict(workers[0]["env"], nproc=len(os.sched_getaffinity(0)), git=git_revision(),
                    src_sha256=source_digest())
    del env_info["package"]

    print("env: " + " ".join(f"{k}={v}" for k, v in env_info.items()))
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} scale={args.scale} workers={len(workers)} "
          f"blocks: untraced={sum(b['mode'] == 'u' for b in blocks)} "
          f"traced={sum(b['mode'] == 't' for b in blocks)} "
          f"ops timed={sum(len(b['latencies_us']) for b in blocks if b['mode'] == 'u')}")
    print("block s: " + " ".join(f"{b['mode']}{b['s']:.4g}" for b in blocks))
    print("host speed factor per block: " + " ".join(f"{speed_factor(b['ref_s']):.3g}" for b in blocks)
          + f"; setup {speed_factor(setup[1]):.3g}")
    print(f"fail_ratio {failed / attempted:.6g} ({failed} failed of {attempted} attempted)")
    raw = {} if args.trace else end_to_end(workers, setup, calibrated=False)
    for name, (value, unit) in metrics.items():
        note = f"   (raw {raw[name][0]:.6g})" if name in raw else ""
        print(f"  {name:<44} {value:>16.6g} {unit}{note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
