"""The benchmark's smoke rounds: each workload runs, checks its own outputs
and reproduces its pinned round-0 digest.

A digest hashes everything a round computes, so a change that keeps these
fixed keeps every workload's numbers and bytes.  Each run works on a copy of
src/, perfbench/ and BENCHMARK.json, so its reports land in the copy."""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

ROUND_0_DIGESTS = {
    "mc_grid": "269d56db9aafd8cf295f00c8a3cab649c9a79dd3eee434e268509f28e6da3e75",
    "sudoku_rollouts": "f27a7ecb67298940b0a860f060a9889f35ded8c9a26bd9784b4f5e5c3ea54b4d",
    "corpus_mult": "06519ab7c6c7765f445e00213e893125c1474eea0a278e81c1046512e04fcd4a",
    "mc_deep": "77d867bc6ad869b3b82b01faaa009d2fc693c88a061dc7f5b0893ced5b1a10a8",
}


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    root = tmp_path_factory.mktemp("checkout")
    skip = shutil.ignore_patterns("__pycache__", ".perfbench")
    for folder in ("src", "perfbench"):
        shutil.copytree(os.path.join(ROOT, folder), root / folder, ignore=skip)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), root)
    return root


@pytest.mark.parametrize("workload", sorted(ROUND_0_DIGESTS))
def test_smoke_round_reproduces_its_digest(checkout, workload):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", "0", "--size", "smoke"],
        cwd=checkout, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    *_, report_line, result_line = done.stdout.splitlines()
    assert json.loads(result_line)["correct"] is True, result_line
    digests = json.loads(report_line)["report"]["digests"]
    assert digests["round_0"] == ROUND_0_DIGESTS[workload]


def test_a_traced_smoke_round_measures_every_layer(checkout):
    # The traced loop wraps package functions by name, so a rename in the
    # package shows up here as a failure or a missing layer.
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sudoku_rollouts", "--seed", "7",
         "--seconds", "0", "--trace", "1", "--size", "smoke"],
        cwd=checkout, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True, result
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        wanted = [metric["name"] for metric in json.load(handle)["per_layer"]]
    assert [name for name in wanted if result["metrics"][name]["value"] is None] == []


# Installs and removes every workload's traced wrappers without running one.
_HOOK_SCRIPT = """
import sys
sys.path[:0] = ["perfbench", "src"]
import workloads
from tracing import Tracer
for name in sys.argv[1:]:
    tracer = Tracer()
    workloads.make(name, "smoke").hooks(tracer)
    tracer.restore()
    print(name)
"""


def test_every_workload_finds_the_package_names_it_traces(checkout):
    # Each workload wraps package functions by name (metrics.rho_*,
    # theory.posterior_*, corpus.make_noisy_policy, ...), so a rename in
    # the package fails here, not only in a traced run of that workload.
    names = sorted(ROUND_0_DIGESTS)
    done = subprocess.run(
        [sys.executable, "-c", _HOOK_SCRIPT, *names],
        cwd=checkout, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == names
