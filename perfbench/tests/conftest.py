"""Make the benchmark modules and the program importable in its tests.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
for path in (BENCH.parent / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
