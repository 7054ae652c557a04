"""Inject known verifier error rates on the long-multiplication task and
estimate them back from episode records.

For each (e-, e+) pair on a small grid: run noisy-policy episodes in
retry-in-place (rmtp) mode with a verifier that flips verdicts at the
injected rates, then compare first-attempt verdicts against the clean rule
verifier.

    python3 scripts/error_recovery.py --episodes 2000
"""

import argparse

from reflect_lab import rng as rng_mod
from reflect_lab.engines import mode_config, run_rtbs
from reflect_lab.metrics import estimate_verification_errors
from reflect_lab.mtp import DifficultyTier, SelfVerifying, TaskName
from reflect_lab.tasks import (
    binary_verifier,
    expert_policy,
    gen_query,
    make_noisy_policy,
    make_noisy_verifier,
    step_passes_rule,
    transition_for,
)

GRID = ((0.05, 0.05), (0.2, 0.1), (0.1, 0.3), (0.4, 0.2))


def recover(e_minus, e_plus, episodes, noise, seed):
    policy = make_noisy_policy(expert_policy(TaskName.MULT), noise)
    verifier = make_noisy_verifier(binary_verifier(TaskName.MULT), e_minus, e_plus)
    bundle = SelfVerifying(policy, verifier)
    transition = transition_for(TaskName.MULT)
    config = mode_config("rmtp", None, 512, 512)
    records = []
    for i in range(episodes):
        rng = rng_mod.stream(seed, i)
        tier = (DifficultyTier.ID_EASY, DifficultyTier.ID_HARD)[i % 2]
        q = gen_query(TaskName.MULT, tier, rng)
        records.append(run_rtbs(bundle, transition, q, config, rng))
    return estimate_verification_errors(records, step_passes_rule)


def _rate(value):
    # None when no first attempt had that oracle verdict: a clean policy
    # makes no oracle-negative first attempts, so e+ has nothing to count.
    return "n/a" if value is None else f"{value:.4f}"


def main():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--episodes", type=int, default=2000)
    p.add_argument("--noise", type=float, default=0.3,
                   help="policy corruption probability")
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args()

    print(f"{'injected':>14s} {'estimated':>17s} {'first attempts':>15s}")
    for gi, (e_minus, e_plus) in enumerate(GRID):
        est = recover(
            e_minus, e_plus, args.episodes, args.noise,
            rng_mod.derive_key(args.seed, gi)[1],
        )
        print(
            f"  ({e_minus:.2f}, {e_plus:.2f}) -> "
            f"({_rate(est.e_minus_hat)}, {_rate(est.e_plus_hat)}) "
            f"{est.n_first_attempts:>12d}"
        )


if __name__ == "__main__":
    main()
