"""The compiled kernel passes the backend and action tests under
AddressSanitizer and UndefinedBehaviorSanitizer.

The kernel is built with both sanitizers from a copy of ``src`` in a
temporary directory, and the tests run in a fresh process that preloads
the two runtimes, so the interpreter need not be built with them.  Any
sanitizer report fails the test.
"""

import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# Python's own CFLAGS carry -fwrapv, which defines signed overflow and so
# hides it from UBSan; -fno-wrapv, later on the line, turns that back off
SANITIZE = "-fsanitize=address,undefined -fno-omit-frame-pointer -O1 -fno-wrapv"
# test_backends.py holds the boundary inputs: empty, oversized and
# malformed compositions, absent letters and letters outside a byte
TESTS = ["tests/test_backends.py", "tests/test_gfs.py"]
# the runs parametrized with the pure backend, and the warnings check,
# which only runs the compiler, reach no kernel code
DESELECT = "not pure and not compiles_without_warnings"


def runtime(cc, name):
    """The path of the shared library ``name`` that ``cc`` links, or None
    (``-print-file-name`` echoes a name it does not find)."""
    proc = subprocess.run(cc + [f"-print-file-name={name}"], capture_output=True, text=True)
    path = proc.stdout.strip()
    return path if proc.returncode == 0 and os.path.isabs(path) else None


def test_kernel_runs_clean_under_asan_and_ubsan(tmp_path):
    cc = shlex.split(sysconfig.get_config_var("CC") or "")
    if not cc or shutil.which(cc[0]) is None:
        pytest.skip(f"no C compiler {cc[:1]} on PATH")
    libs = {name: runtime(cc, name) for name in ("libasan.so", "libubsan.so")}
    missing = [name for name, path in libs.items() if path is None]
    if missing:
        pytest.skip(f"{cc[0]} finds no {' or '.join(missing)}")
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("*.so", "__pycache__"))
    shutil.copy(ROOT / "setup.py", tmp_path)
    build = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace"],
        cwd=tmp_path, env={**os.environ, "CFLAGS": SANITIZE}, capture_output=True, text=True,
    )
    # the extension is optional, so a failed compile still exits 0
    assert build.returncode == 0 and list((src / "stirlingperms").glob("_core.*")), build.stderr
    code = (
        "import sys, pytest, stirlingperms._core as core; "
        f"assert core.__file__.startswith({str(src)!r}), core.__file__; "
        f"sys.exit(pytest.main(['-q', '-s', '-p', 'no:cacheprovider', '-k', {DESELECT!r}, *{TESTS!r}]))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
        env={
            **os.environ,
            "PYTHONPATH": str(src),
            # every PyMem block from malloc, where ASan sees its bounds
            "PYTHONMALLOC": "malloc",
            "LD_PRELOAD": " ".join(libs.values()),
            # four frames of each allocation's stack reach the kernel call
            # that made it, at a fraction of the default's cost
            "ASAN_OPTIONS": "detect_leaks=0:malloc_context_size=4",
            "UBSAN_OPTIONS": "halt_on_error=1:print_stacktrace=1",
        },
    )
    report = proc.stdout[-2000:] + proc.stderr[-6000:]
    assert "Sanitizer" not in proc.stderr and "runtime error:" not in proc.stderr, report
    assert proc.returncode == 0, report
