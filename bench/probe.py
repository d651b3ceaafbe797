"""Set-up probe: import coarselab, parse the workload's configs and build its
schemes, then print `ready`.  bench/run.py starts this in a fresh
interpreter and times it from process start to that line.

Usage: python3 bench/probe.py <workload> <seed>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from coarselab import cli  # noqa: E402

import workloads  # noqa: E402

for kind, config in workloads.jobs_for(sys.argv[1], int(sys.argv[2])):
    if kind == "verify-cover":
        space = cli.parse_space(config["space"])
        cli.build_construction(config["construction"], space)
        cli.parse_window(config["window"])
print("ready", flush=True)
