"""``python -m stirlingperms``: the command line of :mod:`stirlingperms.cli`."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
