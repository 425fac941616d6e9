"""One benchmark process: runs timed blocks of one workload, checks each
block's outputs outside its timed region, and prints one JSON record on
its last stdout line.

Usage: python3 perfbench/worker.py WORKLOAD SEED SCALE MODES BUDGET_S

``MODES`` is cycled over the blocks: ``u`` runs a block untraced, ``t``
runs it with the tracer installed.  Each block is bracketed by reference
loops (see ``reference.py``) whose times calibrate it.  Blocks continue while the next one
is expected to fit in ``BUDGET_S`` seconds (every mode in ``MODES`` runs
at least once), up to the workload's ``blocks_per_process``.  Run by
``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``.
"""

from __future__ import annotations

import importlib
import json
import platform
import resource
import sys
from statistics import median
from time import perf_counter

import stirlingperms

from reference import reference_times
from tracing import Tracer
from workloads import WORKLOADS


def _core_imports() -> bool:
    try:
        importlib.import_module("stirlingperms._core")
    except ImportError:
        return False
    return True


def main(argv: list[str]) -> int:
    name, seed, scale, modes, budget = argv[1], int(argv[2]), argv[3], argv[4], float(argv[5])
    work = WORKLOADS[name](seed, scale)
    start = perf_counter()
    blocks: list[dict] = []
    while True:
        mode = modes[len(blocks) % len(modes)]
        tracer = Tracer() if mode == "t" else None
        t0 = perf_counter()
        ref = reference_times()
        if tracer:
            tracer.install()
        try:
            seconds, latencies_us, outputs = work.block()
        finally:
            if tracer:
                tracer.uninstall()
        ref += reference_times()
        attempted, failed = work.check(outputs)
        blocks.append({
            "mode": mode,
            "s": seconds,
            "ref_s": ref,
            "wall": perf_counter() - t0,
            "latencies_us": latencies_us,
            "attempted": attempted,
            "failed": failed,
            "layers": tracer.layers() if tracer else None,
        })
        if work.blocks_per_process and len(blocks) >= work.blocks_per_process:
            break
        if set(modes) <= {b["mode"] for b in blocks}:
            nxt = modes[len(blocks) % len(modes)]
            est = median(b["wall"] for b in blocks if b["mode"] == nxt)
            if perf_counter() - start + est > budget:
                break
    print(json.dumps({
        "blocks": blocks,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "env": {
            "backend": stirlingperms.backend_name(),
            "core_imports": _core_imports(),
            "python": platform.python_version(),
            "package": stirlingperms.__file__,
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
