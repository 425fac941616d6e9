"""Record the expected outputs the benchmark's correctness gates compare
against: the verify text report (without the ``backend:`` note) at both
scales, and one digest per composition for the grammar-algebra workload.

Usage (from the root of a checkout):

    PYTHONPATH=src python3 perfbench/record.py

Re-record only when a change is meant to alter these outputs, and say so
in that change.
"""

from __future__ import annotations

import json

from stirlingperms import verify, words

from workloads import (
    SIZES,
    GrammarAlgebra,
    algebra_digest,
    expected_algebra_path,
    expected_sweep_path,
    report_lines,
)


def main() -> None:
    digests = {}
    for size in SIZES.values():
        max_total = size["sweep_max_total"]
        lines = report_lines(*verify.verify_all(max_total, jobs=1))
        expected_sweep_path(max_total).write_text("\n".join(lines) + "\n")
        for m in words.compositions_of(size["algebra_total"]):
            digests[words.format_composition(m)] = algebra_digest(*GrammarAlgebra.run_one(m))
    expected_algebra_path().write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
