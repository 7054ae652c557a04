"""Smoke runs of the scripts under scripts/: each must still import the
package names it uses and finish at a tiny size."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize(
    "args",
    [
        ["error_recovery.py", "--episodes", "20"],
        pytest.param(["error_recovery.py", "--episodes", "20", "--noise", "0"],
                     id="error_recovery.py --noise 0"),
        ["accuracy_curves.py", "--episodes", "200", "--n-max", "6", "--m", "1", "4",
         "--out", "{tmp}/curves.csv"],
        ["crossover_scan.py", "--episodes", "200", "--n-max", "30"],
    ],
    ids=lambda args: args[0],
)
def test_script_runs(tmp_path, args):
    script, *flags = args
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script),
         *(flag.format(tmp=tmp_path) for flag in flags)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
