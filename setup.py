"""Build script for the optional compiled kernel.

The package works without the extension (a pure-Python fallback is
selected at import time), so a missing compiler only costs speed, not
functionality.  ``package_dir`` repeats the ``src`` layout that
``pyproject.toml`` declares, so ``build_ext --inplace`` also puts the
extension next to the sources in a checkout that has only this file and
``src/``.  The sha256 of the C source is compiled in as
``_core.SOURCE_SHA256``, so the tests can tell a stale extension.
"""

import hashlib
from pathlib import Path

from setuptools import setup
from setuptools.extension import Extension

CORE = "src/stirlingperms/_core.c"
digest = hashlib.sha256((Path(__file__).resolve().parent / CORE).read_bytes()).hexdigest()

setup(
    package_dir={"": "src"},
    ext_modules=[
        Extension(
            "stirlingperms._core",
            [CORE],
            define_macros=[("SOURCE_SHA256", f'"{digest}"')],
            optional=True,
        )
    ],
)
