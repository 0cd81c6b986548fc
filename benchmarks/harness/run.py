"""Run one workload once, in this process.

    python3 benchmarks/harness/run.py --workload cold-plan --seed 0 \
        --seconds 10 --trace 0

Prints a table, then, as the last line of standard output, one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the ``end_to_end`` metrics of
``BENCHMARK.json``, ``--trace 1`` its ``per_layer`` metrics.  The exit
code is 1 when any output was wrong.

The script measures the ``repro`` sources of the checkout it sits in
(``src/repro``); without them it exits with an error and prints no
result.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

if __name__ == "__main__":
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"run.py: no repro sources under {ROOT / 'src'}; run "
                 "from a full checkout of the repository")
    # Import the harness as a package from the repository root, not
    # its modules as top-level names from this directory.
    sys.path[0] = str(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    from benchmarks.harness.single import main

    sys.exit(main(sys.argv[1:]))
