"""Smoke run of the benchmark at tiny sizes.

    python3 perfbench/smoke.py

Runs every workload run.py knows (those of BENCHMARK.json and mc_deep,
which is kept out of it) through run.py with --size smoke,
once untraced and once traced, and checks that each run exits 0, passes
its own output checks, and prints as its last line exactly the result keys
with every metric of BENCHMARK.json under its unit.  Then checks that
run.py refuses to run, without printing a result, in a directory holding
only BENCHMARK.json and perfbench/.  Not part of the tier-1 tests; takes
about a minute.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd, workload, trace, size="smoke"):
    command = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
               "--seed", "7", "--seconds", "0", "--trace", str(trace), "--size", size]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_result(done, wanted):
    problems = []
    if done.returncode != 0:
        return [f"exit code {done.returncode}: {done.stderr.strip()[-500:]}"]
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"checks failed: {report['failures']}")
    expected = {m["name"]: m["unit"] for m in wanted}
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    if got != expected:
        problems.append(f"metric names or units differ: {set(got.items()) ^ set(expected.items())}")
    for name, metric in result["metrics"].items():
        value = metric["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name} = {value!r}")
    if not report["digests"]["round_0"] or "nproc" not in report["provenance"]:
        problems.append("report lacks digests or provenance")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    problems = []
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    from workloads import WORKLOADS

    for name in WORKLOADS:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            found = check_result(run(ROOT, name, trace), wanted)
            print(f"{name} trace={trace}: {'ok' if not found else found}")
            problems += found

    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="bare-", dir=os.path.join(ROOT, ".perfbench")) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = run(bare, spec["workloads"][0]["name"], 0, size="full")
        refused = done.returncode != 0 and '"correct"' not in done.stdout
        print(f"without sources: {'refused' if refused else 'NOT refused'}")
        if not refused:
            problems.append("run.py printed a result without the library sources")

    print("smoke: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
