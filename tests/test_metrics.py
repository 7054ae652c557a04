"""Measurement layer: error-rate estimation, frequency grids, accuracy
tables, and theory-vs-simulation reports."""

import math

import pytest

from reflect_lab import rng as rng_mod
from reflect_lab.engines import mode_config, run_rtbs
from reflect_lab.metrics import (
    ErrorEstimate,
    binomial_zscore,
    AccuracyTally,
    estimate_verification_errors,
    reflection_frequency,
    report_row,
    report_to_csv,
    theory_vs_sim_rows,
)
from reflect_lab.mtp import (
    DifficultyTier,
    Disposition,
    EpisodeRecord,
    Event,
    Outcome,
    Query,
    SelfVerifying,
    Step,
    TaskName,
    Verification,
    VerifiedStep,
)
from reflect_lab.sim import SyntheticState, simulate_accuracy
from reflect_lab.tasks import (
    binary_verifier,
    expert_policy,
    gen_query,
    make_noisy_policy,
    make_noisy_verifier,
    transition_for,
)
from reflect_lab.theory import (
    PosteriorParams,
    SimplifiedParams,
    rho_nonreflective,
    rho_rmtp,
    rho_rtbs,
    rtbs_table,
)

A, R, T = Disposition.ACCEPTED, Disposition.REJECTED, Disposition.TRACEBACK


def ev(scale, step_content, labels, disp, is_answer=False):
    step = Step(step_content, is_answer=is_answer)
    return Event(
        SyntheticState(scale, True),
        VerifiedStep(step, Verification(labels)),
        disp,
    )


def record_of(events, outcome=Outcome.CORRECT, answer=None):
    return EpisodeRecord(
        query=Query(TaskName.SYNTHETIC, 3),
        events=tuple(events),
        answer=answer,
        outcome=outcome,
    )


def truth_by_step_content(query, state, step):
    return bool(step.content)


# --- error estimation on hand-built logs ---


def test_retries_at_one_state_count_once():
    events = [
        ev(3, True, (False,), R),
        ev(3, True, (True,), A),
        ev(2, True, (True,), A),
    ]
    est = estimate_verification_errors([record_of(events)], truth_by_step_content)
    assert est.n_first_attempts == 2
    assert est.n_oracle_positive == 2
    # first attempt at scale 3 was rejected although true
    assert est.e_minus_hat == 0.5
    assert est.e_plus_hat is None


def test_traceback_returns_to_earlier_depth():
    events = [
        ev(3, True, (True,), A),  # depth 0 -> 1, counted
        ev(2, True, (False,), R),  # depth 1, counted
        ev(3, True, (), T),  # back to depth 0, ignored
        ev(3, True, (True,), A),  # depth 0 revisit of the same state: skipped
        ev(1, True, (False,), R),  # depth 1, different rendering: counted
    ]
    est = estimate_verification_errors([record_of(events)], truth_by_step_content)
    assert est.n_first_attempts == 3
    assert est.e_minus_hat == pytest.approx(2 / 3)


def test_unverified_events_do_not_count():
    events = [ev(3, True, (), A), ev(2, True, (), A)]
    est = estimate_verification_errors([record_of(events)], truth_by_step_content)
    assert est == ErrorEstimate(None, None, 0, 0, 0)


def test_zero_rate_is_a_measurement_none_is_absence():
    # an oracle-negative step that was (correctly) rejected measures e+ = 0
    events = [ev(3, False, (False,), R), ev(3, True, (True,), A)]
    est = estimate_verification_errors([record_of(events)], truth_by_step_content)
    assert est.e_plus_hat == 0.0
    assert est.n_oracle_negative == 1
    # no negative-truth attempts at all leaves e+ unmeasured
    only_pos = [ev(3, True, (True,), A)]
    est2 = estimate_verification_errors([record_of(only_pos)], truth_by_step_content)
    assert est2.e_plus_hat is None and est2.e_minus_hat == 0.0


def test_answer_acceptance_does_not_deepen_the_chain():
    events = [
        ev(3, True, (True,), A),  # depth 0 -> 1
        ev(2, True, (True,), A, is_answer=True),  # counted at depth 1, no push
    ]
    est = estimate_verification_errors(
        [record_of(events, answer=events[-1].verified.step)], truth_by_step_content
    )
    assert est.n_first_attempts == 2


def test_error_recovery_from_noisy_episodes():
    # Ground truth is the uncorrupted rule itself: the estimator measures how
    # far the noisy verdicts drift from what the clean verifier would say.
    e_minus, e_plus = 0.2, 0.1
    policy = make_noisy_policy(expert_policy(TaskName.MULT), 0.3)
    rule = binary_verifier(TaskName.MULT).rule
    verifier = make_noisy_verifier(binary_verifier(TaskName.MULT), e_minus, e_plus)
    bundle = SelfVerifying(policy, verifier)
    transition = transition_for(TaskName.MULT)
    config = mode_config("rmtp", None, 512, 512)
    records = []
    for i in range(400):
        rng = rng_mod.stream(77, i)
        query = gen_query(TaskName.MULT, DifficultyTier.ID_EASY, rng)
        records.append(run_rtbs(bundle, transition, query, config, rng))

    def clean_verdict(query, state, step):
        return not rule(state, step).rejected

    est = estimate_verification_errors(records, clean_verdict)
    assert est.n_first_attempts > 800
    assert abs(est.e_minus_hat - e_minus) < 0.05
    assert abs(est.e_plus_hat - e_plus) < 0.05


# --- reflection frequency grids ---


def mult_record(x, y, labeled_steps, bare_steps):
    events = [ev(3, True, (True,), A) for _ in range(labeled_steps)]
    events += [ev(3, True, (), A) for _ in range(bare_steps)]
    events.append(ev(2, True, (), T))  # tracebacks never count toward totals
    return EpisodeRecord(
        query=Query(TaskName.MULT, (x, y)),
        events=tuple(events),
        answer=None,
        outcome=Outcome.BUDGET_EXHAUSTED,
    )


def test_frequency_grid_mult_axes_and_counts():
    records = [
        mult_record(123, 45, labeled_steps=3, bare_steps=1),
        mult_record(999, 44, labeled_steps=1, bare_steps=1),
        mult_record(7, 1234, labeled_steps=0, bare_steps=2),
    ]
    grid = reflection_frequency(records)
    assert grid.task is TaskName.MULT
    assert grid.cells[(2, 3)].verified == 4
    assert grid.cells[(2, 3)].total == 6
    assert grid.cells[(4, 1)].ratio == 0.0
    text = grid.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "y_digits,x_digits,verified,total,pct,ratio"
    assert lines[1].startswith("2,3,4,6,66.7,")


def test_frequency_grid_rejects_mixed_tasks_and_empty_input():
    with pytest.raises(ValueError):
        reflection_frequency([])
    mixed = [mult_record(1, 2, 1, 0), record_of([ev(3, True, (True,), A)])]
    with pytest.raises(ValueError):
        reflection_frequency(mixed)


def test_frequency_grid_synthetic_keys_on_payload():
    records = [record_of([ev(3, True, (True,), A), ev(2, True, (), A)])]
    grid = reflection_frequency(records)
    assert grid.cells[(3,)].verified == 1
    assert grid.cells[(3,)].total == 2
    assert "key,verified,total" in grid.to_csv().splitlines()[0]


# --- accuracy table ---


def test_accuracy_table_layout():
    def tiered(tier, outcome):
        return EpisodeRecord(
            query=Query(TaskName.SYNTHETIC, 2, tier),
            events=(ev(2, True, (True,), A, is_answer=True),),
            answer=Step(True, is_answer=True),
            outcome=outcome,
        )

    records = [
        tiered(DifficultyTier.ID_EASY, Outcome.CORRECT),
        tiered(DifficultyTier.ID_EASY, Outcome.INCORRECT),
        tiered(DifficultyTier.ID_HARD, Outcome.CORRECT),
        tiered(None, Outcome.CORRECT),
    ]
    tally = AccuracyTally()
    for record in records:
        tally.add(record)
    text = tally.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "tier,episodes,correct,accuracy,ci_lo,ci_hi"
    assert lines[1].startswith("id_easy,2,1,0.5,")
    assert lines[2].startswith("id_hard,1,1,1.0,")
    assert lines[3].startswith("untiered,1,1,")
    lo, hi = (float(v) for v in lines[1].split(",")[4:6])
    assert 0.0 <= lo < 0.5 < hi <= 1.0


# --- z-scores ---


def test_binomial_zscore_values():
    assert binomial_zscore(55, 100, 0.5) == pytest.approx(1.0)
    assert binomial_zscore(50, 100, 0.5) == 0.0
    assert binomial_zscore(0, 50, 0.0) == 0.0
    assert binomial_zscore(1, 50, 0.0) == math.inf
    assert binomial_zscore(50, 50, 1.0) == 0.0
    assert binomial_zscore(49, 50, 1.0) == math.inf


# --- theory vs simulation reports ---


def test_report_rows_cover_the_grid(ref_params):
    rows = theory_vs_sim_rows(
        ref_params,
        modes=("none", "rmtp", "rtbs"),
        n_values=(1, 3),
        m_list=(1, 2),
        episodes=4000,
        seed=10,
        threads=1,
    )
    assert len(rows) == 2 * (1 + 1 + 2)
    shape = [(r.result.n, r.result.law.mode, r.result.law.m) for r in rows]
    assert shape == [
        (1, "none", None),
        (1, "rmtp", None),
        (1, "rtbs", 1),
        (1, "rtbs", 2),
        (3, "none", None),
        (3, "rmtp", None),
        (3, "rtbs", 1),
        (3, "rtbs", 2),
    ]
    for row in rows:
        assert abs(row.zscore) < 4.5
        assert row.result.episodes == 4000
    rmtp_rows = [r for r in rows if r.result.law.mode == "rmtp"]
    assert rmtp_rows[1].theory == pytest.approx(rho_rmtp(ref_params, 3))


def test_report_csv_layout_and_determinism(ref_params):
    kwargs = dict(
        modes=("rmtp",), n_values=(2,), m_list=(), episodes=1000, seed=3, threads=1
    )
    text = report_to_csv(theory_vs_sim_rows(ref_params, **kwargs))
    again = report_to_csv(theory_vs_sim_rows(ref_params, **kwargs))
    assert text == again
    lines = text.strip().split("\n")
    assert lines[0] == "n,mode,m,episodes,acc_hat,ci_lo,ci_hi,theory,zscore"
    fields = lines[1].split(",")
    assert fields[0] == "2" and fields[1] == "rmtp" and fields[2] == ""
    assert float(fields[7]) == pytest.approx(rho_rmtp(ref_params, 2))


def _report(params, mode, m=None, **options):
    return report_row(simulate_accuracy(params, 4, mode, 2000, 5, m=m, threads=1, **options))


def test_report_rows_at_a_capped_root_are_the_closed_forms(ref_params):
    for mode, m, theory in (
        ("none", None, rho_nonreflective(ref_params, 4)),
        ("rmtp", None, rho_rmtp(ref_params, 4)),
        ("rtbs", 2, rho_rtbs(ref_params, 2, 4)),
    ):
        row = _report(ref_params, mode, m)
        assert row.theory == theory, mode  # bit for bit
        assert row.zscore == binomial_zscore(row.result.successes, 2000, theory), mode
        if mode != "rtbs":
            # Only an rtbs root runs out of attempts, so only there does an
            # unlimited root change the law.
            assert _report(ref_params, mode, root_unlimited=True) == row, mode


def test_laws_without_a_closed_form_are_left_unpriced(ref_params):
    # The capped-root curve misprices an unlimited root.
    row = _report(ref_params, "rtbs", 2, root_unlimited=True)
    assert (row.theory, row.zscore) == (None, None), row.result.law
    line = report_to_csv([row]).strip().split("\n")[1]
    assert line.endswith(",,") and line.count(",") == 8, line


def test_report_rows_of_a_per_attempt_table_are_its_closed_forms():
    # The table, not the params beside it, is the law that ran and is priced.
    table = PosteriorParams(mu=(0.8, 0.5), e_minus=(0.3, 0.3), e_plus=(0.2, 0.2), f=0.8)
    for mode, m, theory in (
        ("none", None, 0.8**4),
        ("rmtp", None, rho_rmtp(table, 4)),
        ("rtbs", 2, float(rtbs_table(table, 2, 4).rho[4])),
    ):
        row = _report(SimplifiedParams(0.6, 0.1, 0.1, 0.5), mode, m, posterior=table)
        if mode == "none":
            accept_all = PosteriorParams(mu=(0.8,), e_minus=(0.0,), e_plus=(1.0,), f=0.0)
            assert row.result.law.table == accept_all
        else:
            assert row.result.law.table is table
        assert row.theory == theory, mode
        assert row.zscore == binomial_zscore(row.result.successes, 2000, theory), mode
        assert abs(row.zscore) < 4.0, mode
