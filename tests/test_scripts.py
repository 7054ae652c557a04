"""Smoke runs of the scripts under scripts/: each must still import the
package names it uses and finish at a tiny size."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SMOKE_RUNS = [
    ["crossover_scan.py", "--episodes", "200", "--n-max", "30"],
]


def test_every_script_has_a_smoke_run():
    scripts = {name for name in os.listdir(os.path.join(ROOT, "scripts"))
               if name.endswith(".py")}
    assert scripts == {args[0] for args in SMOKE_RUNS}


@pytest.mark.parametrize("args", SMOKE_RUNS, ids=lambda args: args[0])
def test_script_runs(args):
    script, *flags = args
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), *flags],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
