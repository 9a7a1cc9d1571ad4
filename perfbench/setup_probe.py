"""Time a fresh interpreter's set-up for one workload: package import plus
the first call of each request kind.  Prints the seconds taken.

Usage: python3 perfbench/setup_probe.py <workload>
"""

import time

START = time.perf_counter()

import sys  # noqa: E402

import checkout  # noqa: E402

checkout.use_checkout_package()
import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]]().warm_up()
print(time.perf_counter() - START)
