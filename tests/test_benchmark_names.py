"""The benchmark's tracer wraps package names from outside ``src/``;
a name it lists that is gone breaks the traced runs, so Tier-1 checks
that every one still resolves."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_traced_name_resolves():
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    env = {**os.environ, "PYTHONPATH": path}
    code = "from tracing import Tracer; t = Tracer(); t.install(); t.uninstall()"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
