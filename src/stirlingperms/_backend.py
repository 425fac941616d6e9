"""Kernel backend selection.

The compiled extension ``stirlingperms._core`` is used when it imports;
otherwise the pure-Python mirror ``stirlingperms._pure`` is.
"""

from __future__ import annotations

from pathlib import Path

try:
    from . import _core as kernel
except ImportError:
    from . import _pure as kernel  # type: ignore[no-redef]


def backend_name() -> str:
    """Active kernel backend, ``"c"`` or ``"pure"``."""
    return kernel.BACKEND_NAME


#: The C source of the compiled kernel, when it sits beside the package.
CORE_SOURCE = Path(__file__).with_name("_core.c")


def kernel_source_status() -> str:
    """Whether the compiled kernel was built from ``CORE_SOURCE``:
    ``match``, ``stale`` or ``source not found`` (``n/a`` on the pure
    backend, which compiles nothing)."""
    if kernel.BACKEND_NAME == "pure":
        return "n/a"
    import hashlib  # only ``--version`` asks

    try:
        digest = hashlib.sha256(CORE_SOURCE.read_bytes()).hexdigest()
    except OSError:
        return "source not found"
    return "match" if kernel.SOURCE_SHA256 == digest else "stale"
