"""Accuracy vs problem scale for the three executor modes, at one
parameter point, with a Monte-Carlo overlay.

Writes a CSV with one row per (n, mode, width) and prints the worst
theory/simulation z-score so a bad run is obvious at a glance.

    python3 scripts/accuracy_curves.py --out curves.csv --episodes 50000
"""

import argparse

from reflect_lab.metrics import report_to_csv, theory_vs_sim_rows
from reflect_lab.theory import SimplifiedParams


def parse_args():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--mu", type=float, default=0.8)
    p.add_argument("--e-minus", dest="e_minus", type=float, default=0.3)
    p.add_argument("--e-plus", dest="e_plus", type=float, default=0.2)
    p.add_argument("--f", type=float, default=0.8)
    p.add_argument("--n-max", type=int, default=30)
    p.add_argument("--m", type=int, nargs="+", default=[1, 2, 4, 16, 64])
    p.add_argument("--episodes", type=int, default=50_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="accuracy_curves.csv")
    return p.parse_args()


def main():
    args = parse_args()
    params = SimplifiedParams(
        mu=args.mu, e_minus=args.e_minus, e_plus=args.e_plus, f=args.f
    )
    rows = theory_vs_sim_rows(
        params,
        modes=("none", "rmtp", "rtbs"),
        n_values=range(1, args.n_max + 1),
        m_list=tuple(args.m),
        episodes=args.episodes,
        seed=args.seed,
    )
    with open(args.out, "w") as fh:
        fh.write(report_to_csv(rows))
    worst = max(rows, key=lambda r: abs(r.zscore))
    print(f"wrote {len(rows)} rows to {args.out}")
    print(
        f"worst |z| = {abs(worst.zscore):.2f} at n={worst.result.n} "
        f"mode={worst.result.law.mode} m={worst.result.law.m}"
    )
    for mode, m in (("none", None), ("rmtp", None), ("rtbs", max(args.m))):
        tail = [
            r for r in rows
            if (r.result.law.mode, r.result.law.m, r.result.n) == (mode, m, args.n_max)
        ]
        if tail:
            r = tail[0]
            label = mode if m is None else f"{mode} m={m}"
            print(
                f"  {label:12s} acc at n={args.n_max}: "
                f"{r.result.accuracy_hat:.4f}"
            )


if __name__ == "__main__":
    main()
