"""Time a fresh interpreter becoming ready for one workload.

Run by run.py in a new process:  python3 perfbench/setup_probe.py WORKLOAD
It imports reflect_lab.cli, then the workload's modules, makes one tiny
warm-up call, and prints {"import_s": ..., "ready_s": ...} as its last line.
"""

import json
import os
import sys
import time

START = time.perf_counter()

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import reflect_lab.cli  # noqa: E402,F401

IMPORTED = time.perf_counter()

import workloads  # noqa: E402

workloads.make(sys.argv[1], "smoke").warmup()
print(json.dumps({"import_s": IMPORTED - START, "ready_s": time.perf_counter() - START}))
