"""Set-up probe: a fresh process imports qexpfam and builds one workload's
inputs, then prints the seconds that took at the reference speed and on the
wall clock (see speed.py).  run.py starts it several times and reports the
median as setup_s.

    python3 perfbench/probe.py WORKLOAD SEED
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402

import bootstrap  # noqa: E402,F401  (caps BLAS threads before numpy loads)
import speed  # noqa: E402

with speed.SpeedProbe() as probe:
    import workloads

    workloads.build(sys.argv[1], int(sys.argv[2]))
    T1 = time.perf_counter()
print(repr(probe.scaled(T0, T1)), repr(probe.wall(T0, T1)))
