"""Set-up step timed by run.py: a fresh interpreter imports densctl's
command line and writes one workload's configs.

Usage: python3 perfbench/setup_child.py <workload> <seed> <config dir>
"""
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import densctl.cli  # noqa: E402,F401 - the import is what is timed
from workloads import WORKLOADS, write_configs  # noqa: E402

if __name__ == "__main__":
    name, seed, directory = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    write_configs(WORKLOADS[name], seed, directory)
