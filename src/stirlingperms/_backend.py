"""Kernel backend selection.

The compiled extension ``stirlingperms._core`` is used when it imports;
otherwise the pure-Python mirror ``stirlingperms._pure`` is.
"""

from __future__ import annotations

try:
    from . import _core as kernel
except ImportError:
    from . import _pure as kernel  # type: ignore[no-redef]


def backend_name() -> str:
    """Active kernel backend, ``"c"`` or ``"pure"``."""
    return kernel.BACKEND_NAME
