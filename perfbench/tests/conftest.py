"""Put the repository's ``src`` and the benchmark's own package on the path."""

import pathlib
import sys

BENCH = pathlib.Path(__file__).resolve().parents[1]
ROOT = BENCH.parent

for entry in (str(ROOT / "src"), str(BENCH)):
    if entry not in sys.path:
        sys.path.insert(0, entry)
