"""Set-up probe: a fresh process that imports weilmod, builds one
workload's fields, rings and contexts, and prints the monotonic clock when
it is done.  run.py starts it and takes the set-up time as that reading
minus the clock just before the start, so interpreter start-up counts too.

    python3 perfbench/probe.py <workload>
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]].setup()
print(repr(time.perf_counter()))
