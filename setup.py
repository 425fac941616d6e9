"""Build script for the optional compiled kernel.

The package works without the extension (a pure-Python fallback is
selected at import time), so a missing compiler only costs speed, not
functionality.  ``package_dir`` repeats the ``src`` layout that
``pyproject.toml`` declares, so ``build_ext --inplace`` also puts the
extension next to the sources in a checkout that has only this file and
``src/``.
"""

from setuptools import setup
from setuptools.extension import Extension

setup(
    package_dir={"": "src"},
    ext_modules=[Extension("stirlingperms._core", ["src/stirlingperms/_core.c"], optional=True)],
)
