"""Every module of the package computes in exact integer arithmetic:
no module imports a float or rational number type, converts to one, or
divides with ``/`` (whose result is a float even for two ints)."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "stirlingperms").glob("*.py"))
INEXACT_MODULES = {"random", "fractions", "decimal", "cmath"}
INEXACT_CALLS = {"float", "complex"}


def inexact_uses(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] in INEXACT_MODULES:
                    yield node.lineno, f"import {alias.name}"
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module.split(".")[0] in INEXACT_MODULES:
                yield node.lineno, f"from {node.module} import"
        elif isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id in INEXACT_CALLS:
                yield node.lineno, f"{node.func.id}(...)"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield node.lineno, "true division /"


def test_sources_found():
    assert any(path.name == "roots.py" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_inexact_arithmetic(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert list(inexact_uses(tree)) == []


def test_detector_flags_each_kind():
    source = (
        "import random\nfrom fractions import Fraction\nimport decimal as d\nimport cmath\n"
        "float(1)\ncomplex(1, 2)\na = 1 / 2\na /= 2\nb = 7 // 2\nb //= 2\n"
    )
    # floor division stays exact, so lines 9 and 10 pass
    assert sorted(line for line, _ in inexact_uses(ast.parse(source))) == [1, 2, 3, 4, 5, 6, 7, 8]
