"""One set-up sample: a fresh interpreter's ``import spinfid`` plus the first
call of each library function the workload uses.  Prints the seconds taken as
the last line of stdout.

    PYTHONPATH=src python perfbench/setup_probe.py sweep
"""

import sys
import time

t0 = time.perf_counter()
import spinfid  # noqa: E402,F401

from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]].warmup()
print(repr(time.perf_counter() - t0))
