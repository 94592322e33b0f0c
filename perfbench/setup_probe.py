"""Print the monotonic clock at a workload's first layer call.

run.py starts this script in a fresh interpreter, with ``src`` on
PYTHONPATH, and subtracts its own reading of the same clock taken just
before the start; the difference is the workload's set-up time. Set-up is
importing qkdtx and parsing the workload's command line, plus loading the
config for a sweep.

Usage: setup_probe.py <qkdtx command line...>
"""

import sys
import time

from qkdtx import cli, harness

args = cli.build_parser().parse_args(sys.argv[1:])
if args.command == "sweep":
    harness.load_config(args.config)
print(repr(time.perf_counter()))
