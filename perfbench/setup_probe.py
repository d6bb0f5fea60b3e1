"""One run's set-up in a fresh process, for timing ``setup_s``.

    python3 perfbench/setup_probe.py <workload> <seed>

Imports the library, generates the workload's inputs in the seed's order
and loads the expected outcomes, then prints ``time.perf_counter()``.  On
Linux that clock is shared between processes, so the parent can subtract
the moment it started this process.
"""

import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

workloads.prepare(sys.argv[1], int(sys.argv[2]))
print(perf_counter())
