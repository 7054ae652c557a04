"""Where does width-m backtracking overtake retry-in-place?

Scans problem scale for the first n where the backtracking curve pulls
ahead, across a range of verifier informativeness values f, confirming
each crossover by Monte-Carlo.  Backtracking pays a constant-factor tax at
small n and wins asymptotically only when f is large enough; this makes
the trade visible.

    python3 scripts/crossover_scan.py --m 4
"""

import argparse

from reflect_lab.sim import simulate_accuracy
from reflect_lab.theory import (
    SimplifiedParams,
    crossover_scan,
    rtbs_asymptotically_beats_rmtp,
)


def main():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--mu", type=float, default=0.8)
    p.add_argument("--e-minus", dest="e_minus", type=float, default=0.3)
    p.add_argument("--e-plus", dest="e_plus", type=float, default=0.2)
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--f-values", type=float, nargs="+",
                   default=[0.3, 0.5, 0.7, 0.8, 0.9])
    p.add_argument("--n-max", type=int, default=200)
    p.add_argument("--episodes", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args()

    print(f"width m={args.m}, scanning n=1..{args.n_max}")
    for f in args.f_values:
        params = SimplifiedParams(
            mu=args.mu, e_minus=args.e_minus, e_plus=args.e_plus, f=f
        )
        alpha = params.alpha
        wins = rtbs_asymptotically_beats_rmtp(params, args.m)
        n_star = crossover_scan(params, args.m, args.n_max)
        if n_star is None:
            print(
                f"  f={f:.2f} alpha={alpha:.3f} predicted win={wins}: "
                f"no crossover by n={args.n_max}"
            )
            continue
        confirm = ""
        if args.episodes > 0:
            # Confirm the ordering a little past the crossover.
            n = min(n_star + 5, args.n_max)
            rtbs = simulate_accuracy(params, n, "rtbs", args.episodes, args.seed, m=args.m)
            rmtp = simulate_accuracy(params, n, "rmtp", args.episodes, args.seed + 1)
            confirmed = rtbs.accuracy_hat > rmtp.accuracy_hat
            confirm = (
                f"; MC at n={n} "
                f"({'confirmed' if confirmed else 'NOT confirmed'}): "
                f"backtracking {rtbs.accuracy_hat:.4f} "
                f"vs retry {rmtp.accuracy_hat:.4f}"
            )
        print(
            f"  f={f:.2f} alpha={alpha:.3f} predicted win={wins}: "
            f"crossover at n={n_star}{confirm}"
        )


if __name__ == "__main__":
    main()
