"""Command-line front end for reproducible desk-scale experiments.

Every command writes its output file and drops a `<out>.manifest.json` next
to it holding the command name, the package version and every parsed flag,
with the defaults a command resolves itself (gen-data's count and noise)
replaced by the values it used.  Re-running a command with the flags recorded
in a manifest reproduces the output byte for byte.

Exit codes: 0 on success, 3 when a result is statistically degenerate
(budget exhaustion above one episode in a thousand), and click's usage
errors otherwise.
"""

from __future__ import annotations

import json
import os
import platform
import sys

import click
import numpy as np

from . import __version__
from . import rng as rng_mod
from .corpus import (
    DEFAULT_EXAMPLE_COUNTS,
    CorpusFormatError,
    CorpusSpec,
    CotStyle,
    generate_corpus,
    write_examples,
    write_records,
    read_records,
)
from .engines import MODES, mode_config, run_rtbs
from .metrics import (
    AccuracyTally,
    estimate_verification_errors,
    report_row,
    report_to_csv,
    theory_vs_sim_rows,
)
from .mtp import (
    DifficultyTier,
    SelfVerifying,
    TaskName,
    task_hooks,
)
from .sim import Law, simulate_accuracy
from .tasks import (
    OracleVerifier,
    binary_verifier,
    detailed_verifier,
    expert_policy,
    gen_query,
    make_noisy_policy,
    make_noisy_verifier,
    step_leads_positive,
    step_passes_rule,
    transition_for,
)
from .theory import SimplifiedParams, curve_table

_TIER_CHOICES = [t.value for t in DifficultyTier]
_TASK_CHOICES = [t.value for t in TaskName if task_hooks(t).gen_query is not None]
_STYLE_CHOICES = [s.value for s in CotStyle]

_PROB = click.FloatRange(0.0, 1.0)

_params_options = [
    click.option("--mu", type=_PROB, required=True, help="On-track proposal rate."),
    click.option("--e-minus", type=_PROB, required=True, help="False rejection rate."),
    click.option("--e-plus", type=_PROB, required=True, help="False acceptance rate."),
    click.option("--f", type=_PROB, required=True, help="Rejection rate at derailed states."),
]


def _existing_folder(ctx, param, path: str) -> str:
    """Refuse an output path whose directory does not exist, before any work."""
    folder = os.path.dirname(path) or os.curdir
    if not os.path.isdir(folder):
        raise click.BadParameter(f"directory {folder!r} does not exist", ctx, param)
    return path


_out_option = click.option(
    "--out", required=True, type=click.Path(dir_okay=False), callback=_existing_folder
)


def _with_options(options):
    def wrap(fn):
        for option in reversed(options):
            fn = option(fn)
        return fn

    return wrap


def _write_manifest(**resolved) -> None:
    """Write `<out>.manifest.json` for the running command: its name, the
    versions of the package, numpy (whose Philox draws every random output)
    and Python, and every parsed flag, overridden by `resolved`."""
    ctx = click.get_current_context()
    manifest = {
        "command": ctx.info_name,
        "version": __version__,
        "numpy_version": np.__version__,
        "python_version": platform.python_version(),
        **ctx.params,
        **resolved,
    }
    with open(f"{ctx.params['out']}.manifest.json", "w", encoding="utf-8") as fh:
        fh.write(json.dumps(manifest, sort_keys=True, indent=2))
        fh.write("\n")


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _parse_tier_mix(text: str) -> tuple[tuple[DifficultyTier, float], ...]:
    mix = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        name, sep, value = part.partition("=")
        if not sep:
            raise ValueError(f"tier mix entries look like id_easy=0.5, got {part!r}")
        mix.append((DifficultyTier(name.strip()), float(value)))
    return tuple(mix)


@click.group()
@click.version_option(version=__version__)
def main() -> None:
    """Desk-scale experiments on reflective step-wise reasoning."""


@main.command("theory-curve")
@_with_options(_params_options)
@click.option("--m", type=click.IntRange(min=1), multiple=True,
              default=(1, 2, 4, 16, 64), show_default=True,
              help="Backtracking widths, one column each.")
@click.option("--n", type=click.IntRange(min=0), default=30, show_default=True,
              help="Largest scale tabulated.")
@_out_option
def cmd_theory_curve(mu, e_minus, e_plus, f, m, n, out) -> None:
    """Tabulate the closed-form accuracy curves to CSV."""
    params = SimplifiedParams(mu=mu, e_minus=e_minus, e_plus=e_plus, f=f)
    _write_text(out, curve_table(params, m, n))
    _write_manifest()


@main.command("simulate")
@_with_options(_params_options)
@click.option("--mode", type=click.Choice(MODES), required=True)
@click.option("--m", type=click.IntRange(min=1), default=None,
              help="Backtracking width (rtbs only).")
@click.option("--n", type=click.IntRange(min=0), required=True, help="Problem scale.")
@click.option("--episodes", type=click.IntRange(min=1), default=200_000, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--budget", type=click.IntRange(min=1), default=None,
              help="Proposal budget per episode; default scales with the rates.")
@click.option("--threads", type=click.IntRange(min=1), default=None,
              help="Worker threads; all cores by default.")
@click.option("--engine", type=click.Choice(["vector", "episode"]), default="vector",
              show_default=True)
@click.option("--root-unlimited", is_flag=True, default=False,
              help="Give the backtracking root unlimited attempts (deployed "
                   "behavior; the closed forms assume a capped root).")
@_out_option
def cmd_simulate(mu, e_minus, e_plus, f, mode, m, n, episodes, seed, budget,
                 threads, engine, root_unlimited, out) -> None:
    """Monte-Carlo estimate of one (params, n, mode) point, with theory."""
    params = SimplifiedParams(mu=mu, e_minus=e_minus, e_plus=e_plus, f=f)
    try:
        Law(params, mode, m)
    except ValueError as exc:
        raise click.BadParameter(str(exc), param_hint="'--m'") from exc
    result = simulate_accuracy(
        params, n, mode, episodes, seed, m=m, budget=budget, threads=threads,
        engine=engine, root_unlimited=root_unlimited,
    )
    _write_text(out, report_to_csv([report_row(result)]))
    _write_manifest()
    if result.budget_dominated:
        click.echo(
            f"warning: {result.budget_exhausted} of {episodes} episodes hit "
            "the proposal budget; estimate is budget-dominated", err=True,
        )
        sys.exit(3)


@main.command("gen-data")
@click.option("--task", type=click.Choice(_TASK_CHOICES), required=True)
@click.option("--style", type=click.Choice(_STYLE_CHOICES), default="binary",
              show_default=True)
@click.option("--count", type=click.IntRange(min=0), default=None,
              help="Examples to generate; defaults to the task's training size.")
@click.option("--noise", type=_PROB, default=None,
              help="Chance a step is corrupted; default 0.2 (0 for style none).")
@click.option("--tier-mix", default="id_easy=0.5,id_hard=0.5", show_default=True,
              help="Comma list of tier=weight pairs over the training tiers.")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@_out_option
def cmd_gen_data(task, style, count, noise, tier_mix, seed, out) -> None:
    """Generate a labeled chain-of-thought corpus as JSONL (gzip by .gz)."""
    task_name = TaskName(task)
    try:
        spec = CorpusSpec(
            task=task_name,
            example_count=count if count is not None else DEFAULT_EXAMPLE_COUNTS[task_name],
            tier_mix=_parse_tier_mix(tier_mix),
            style=CotStyle(style),
            proposal_noise=noise,
            seed=seed,
        )
    except ValueError as exc:
        # Click range-checks each flag alone; the spec refuses the rest: noise
        # with style none, and a mix that is malformed or cannot be apportioned.
        flag = "--noise" if "proposal_noise" in str(exc) else "--tier-mix"
        raise click.BadParameter(str(exc), param_hint=f"'{flag}'") from exc
    written = write_examples(generate_corpus(spec), out)
    _write_manifest(count=spec.example_count, noise=spec.proposal_noise)
    click.echo(f"wrote {written} examples to {out}")


@main.command("run-task")
@click.option("--task", type=click.Choice(_TASK_CHOICES), required=True)
@click.option("--tier", type=click.Choice(_TIER_CHOICES), required=True)
@click.option("--mode", type=click.Choice(MODES), default="rmtp", show_default=True)
@click.option("--m", type=click.IntRange(min=1), default=4, show_default=True,
              help="Backtracking width (rtbs mode).")
@click.option("--episodes", type=click.IntRange(min=1), default=1000, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--noise", type=_PROB, default=0.0, show_default=True,
              help="Policy corruption probability.")
@click.option("--e-minus", type=_PROB, default=0.0, show_default=True,
              help="Injected false rejection rate on the verifier.")
@click.option("--e-plus", type=_PROB, default=0.0, show_default=True,
              help="Injected false acceptance rate on the verifier.")
@click.option("--verifier", type=click.Choice(["binary", "detailed", "oracle"]),
              default="binary", show_default=True)
@click.option("--reflective-budget", type=click.IntRange(min=0), default=64,
              show_default=True,
              help="Verified proposals before reverting to non-reflective.")
@click.option("--budget", type=click.IntRange(min=1), default=96, show_default=True,
              help="Total proposals per episode.")
@_out_option
def cmd_run_task(task, tier, mode, m, episodes, seed, noise, e_minus, e_plus,
                 verifier, reflective_budget, budget, out) -> None:
    """Run task episodes, write the records as JSONL, print the accuracy."""
    task_name = TaskName(task)
    tier_enum = DifficultyTier(tier)
    transition = transition_for(task_name)
    policy = make_noisy_policy(expert_policy(task_name), noise)
    config = mode_config(mode, m, reflective_budget, budget)
    tally = AccuracyTally()

    def episode(index: int):
        erng = rng_mod.stream(seed, index)
        query = gen_query(task_name, tier_enum, erng)
        if verifier == "oracle":
            base_verifier = OracleVerifier(query)
        elif verifier == "detailed":
            base_verifier = detailed_verifier(task_name)
        else:
            base_verifier = binary_verifier(task_name)
        sv = SelfVerifying(policy, make_noisy_verifier(base_verifier, e_minus, e_plus))
        record = run_rtbs(sv, transition, query, config, erng)
        tally.add(record)
        return record

    # Each record is written as soon as it is run, so memory stays flat in
    # --episodes.
    write_records(map(episode, range(episodes)), out)
    _write_manifest()
    click.echo(tally.to_csv(), nl=False)


def _rule_oracle(query, state, step) -> bool:
    """step_passes_rule, with a task that has no rule as a usage error."""
    if task_hooks(query.task).binary_rule is None:
        raise click.BadParameter(
            f"task {query.task.value!r} has no rule verifier; --oracle truth works for it",
            param_hint="'--oracle'",
        )
    return step_passes_rule(query, state, step)


@main.command("estimate-errors")
@click.option("--records", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Episode records written by run-task.")
@click.option("--oracle", type=click.Choice(["rule", "truth"]), default="rule",
              show_default=True,
              help="rule: the task's exact rule verifier; truth: solvability "
                   "of the state the step leads to.")
@_out_option
def cmd_estimate_errors(records, oracle, out) -> None:
    """Measure first-attempt verifier error rates from episode records."""
    oracle_fn = step_leads_positive if oracle == "truth" else _rule_oracle
    try:
        estimate = estimate_verification_errors(read_records(records), oracle_fn)
    except CorpusFormatError as exc:
        raise click.BadParameter(str(exc), param_hint="'--records'") from exc
    lines = [
        "e_minus_hat,e_plus_hat,n_first_attempts,n_oracle_positive,n_oracle_negative",
        ",".join([
            "" if estimate.e_minus_hat is None else repr(estimate.e_minus_hat),
            "" if estimate.e_plus_hat is None else repr(estimate.e_plus_hat),
            str(estimate.n_first_attempts),
            str(estimate.n_oracle_positive),
            str(estimate.n_oracle_negative),
        ]),
    ]
    _write_text(out, "\n".join(lines) + "\n")
    _write_manifest()


@main.command("report")
@_with_options(_params_options)
@click.option("--mode", type=click.Choice(MODES), multiple=True, default=MODES,
              show_default=True)
@click.option("--m", type=click.IntRange(min=1), multiple=True, default=(4,),
              show_default=True, help="Backtracking widths (rtbs rows).")
@click.option("--n", type=click.IntRange(min=0), multiple=True, required=True,
              help="Scales, one row set each.")
@click.option("--episodes", type=click.IntRange(min=1), default=200_000, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--threads", type=click.IntRange(min=1), default=None)
@_out_option
def cmd_report(mu, e_minus, e_plus, f, mode, m, n, episodes, seed, threads,
               out) -> None:
    """Theory-vs-Monte-Carlo comparison table over (n, mode, width)."""
    params = SimplifiedParams(mu=mu, e_minus=e_minus, e_plus=e_plus, f=f)
    rows = theory_vs_sim_rows(params, mode, n, m, episodes, seed, threads=threads)
    _write_text(out, report_to_csv(rows))
    _write_manifest()
    degenerate = [r for r in rows if r.result.budget_dominated]
    if degenerate:
        click.echo(
            f"warning: {len(degenerate)} of {len(rows)} points are "
            "budget-dominated", err=True,
        )
        sys.exit(3)


if __name__ == "__main__":
    main()
