"""Benchmark entry point for iterqa.

    python3 perfbench/run.py --workload oracle-chain --seed 13 --seconds 60 --trace 0

Run from the root of a checkout. With ``--trace 0`` it prints the
end-to-end metrics; with ``--trace 1`` the per-layer metrics of a traced
run. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See NOTES.md for the
workloads and what each metric should move.
"""

from __future__ import annotations

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

if __name__ == "__main__":
    # Refuse to run against anything but the sources next to the benchmark:
    # an installed copy of the package would be measured silently instead.
    if not (SRC / "iterqa" / "__init__.py").is_file():
        print(f"perfbench: no iterqa sources in {SRC}; run from the root of a full checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import harness

    sys.exit(harness.main())
