"""One benchmark set-up in a fresh interpreter, timed from outside by run.py.

Usage: python3 bench/setup_probe.py WORKLOAD SEED WORKDIR

Imports the package, builds the workload's ops (references included) and
prints "ready"; the parent's clock stops when that line arrives.
"""

import sys

import checkout

checkout.use_checkout_src()

import workloads  # noqa: E402  (needs the checkout's src/ on the path)

workloads.build(sys.argv[1], int(sys.argv[2]), sys.argv[3])
print("ready", flush=True)
