"""Compare two checkouts' Monte-Carlo engines on criterion 01's grid, in one process.

Loads each checkout's `src/reflect_lab` as its own package, then runs every
point of criterion 01's grid (REF rates, seed 1, n = 1..K, modes none, rmtp
and rtbs at widths 1, 2, 4, 16 and 64) on both, one thread each, alternating
which side runs a point first.  Prints the CPU time of each side
(`time.process_time`), their ratio, and whether every point's (successes,
mean correct length, exhausted) is identical; each point that differs is
printed and the exit status is 1.  Interleaving point by point cancels most
of the drift of a shared host, which separate wall-clock runs do not.

    python3 tools/engine_ab.py PARENT CHANGE [--episodes N] [--n-max K]

PARENT and CHANGE are checkout roots (each holds `src/reflect_lab`).
"""

import argparse
import importlib
import importlib.util
import os
import sys
import time

# Criterion 01's grid (tests/test_acceptance.py).
PARAMS = (0.8, 0.3, 0.2, 0.8)
SEED = 1
MODES = ("none", "rmtp", "rtbs")
WIDTHS = (1, 2, 4, 16, 64)


def load(checkout: str, name: str):
    """The `sim` and `rng` modules of a checkout's package, imported as `name`."""
    path = os.path.join(checkout, "src", "reflect_lab")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(path, "__init__.py"), submodule_search_locations=[path]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.sim"), importlib.import_module(f"{name}.rng")


def grid(n_max: int) -> list[tuple[int, int, str, int | None]]:
    """(index, n, mode, m) of each point, in `metrics.theory_vs_sim_rows` order."""
    points = []
    for n in range(1, n_max + 1):
        for mode in MODES:
            for m in WIDTHS if mode == "rtbs" else (None,):
                points.append((len(points), n, mode, m))
    return points


def run_point(side, index: int, n: int, mode: str, m, episodes: int):
    """(outcome, CPU seconds) of one grid point on one side."""
    sim, rng = side
    seed = rng.derive_key(SEED, index)[1]
    start = time.process_time()
    r = sim.simulate_accuracy(
        sim.SimplifiedParams(*PARAMS), n, mode, episodes, seed, m=m, threads=1
    )
    cpu = time.process_time() - start
    return (r.successes, r.mean_length_correct, r.budget_exhausted), cpu


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--episodes", type=int, default=200_000)
    parser.add_argument("--n-max", type=int, default=30)
    args = parser.parse_args(argv)
    if args.episodes < 1 or args.n_max < 1:
        parser.error("--episodes and --n-max must be >= 1")
    sides = (load(args.parent, "_ab_parent"), load(args.change, "_ab_change"))
    cpu = [0.0, 0.0]
    points = grid(args.n_max)
    differ = 0
    for index, n, mode, m in points:
        got = [None, None]
        for side in (0, 1) if index % 2 == 0 else (1, 0):
            got[side], seconds = run_point(sides[side], index, n, mode, m, args.episodes)
            cpu[side] += seconds
        if got[0] != got[1]:
            differ += 1
            print(f"differs: n={n} mode={mode} m={m} parent {got[0]} change {got[1]}")
    print(f"criterion-01 grid: {len(points)} points, {args.episodes} episodes each, one thread")
    print(f"cpu s: parent {cpu[0]:.3f}, change {cpu[1]:.3f}, change/parent {cpu[1] / cpu[0]:.4f}")
    print(f"identical: {len(points) - differ} of {len(points)} points")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
