"""The benchmark's own tests import the program from src/ and the benchmark
modules from perfbench/.  Run them with ``python3 -m pytest perfbench/tests``."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]
