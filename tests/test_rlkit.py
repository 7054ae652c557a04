"""Group-relative advantages, rejected-step masking, early truncation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reflect_lab.mtp import (
    Disposition,
    EpisodeRecord,
    Event,
    Outcome,
    Query,
    Step,
    TaskName,
    Verification,
    VerifiedStep,
)
from reflect_lab.rlkit import (
    AdvantageTable,
    TrajectoryGroup,
    early_truncate,
    group_from_records,
    grpo_group_advantages,
    mask_rejected_advantages,
)
from reflect_lab.sim import SyntheticState

QUERY = Query(TaskName.SYNTHETIC, 3)


def synthetic_record(dispositions, outcome=Outcome.CORRECT, final_answer=True):
    """A hand-built episode over the synthetic countdown task.

    Accepted non-answer steps walk the scale down; the last accepted step is
    the answer when final_answer is set.
    """
    events = []
    scale = QUERY.payload
    accepted_positions = [i for i, d in enumerate(dispositions) if d is Disposition.ACCEPTED]
    last = accepted_positions[-1] if accepted_positions else None
    answer_step = None
    for i, disp in enumerate(dispositions):
        state = SyntheticState(scale, True)
        is_answer = final_answer and i == last
        step = Step(True, is_answer=is_answer)
        labels = Verification((disp is not Disposition.REJECTED,))
        if disp is Disposition.TRACEBACK:
            labels = Verification()
        events.append(Event(state, VerifiedStep(step, labels), disp))
        if disp is Disposition.ACCEPTED and not is_answer:
            scale = max(scale - 1, 0)
        if is_answer:
            answer_step = step
    return EpisodeRecord(
        query=QUERY,
        events=tuple(events),
        answer=answer_step,
        outcome=outcome,
    )


A, R, T = Disposition.ACCEPTED, Disposition.REJECTED, Disposition.TRACEBACK


def simple_group(outcomes):
    records = tuple(
        synthetic_record(
            [A, A],
            outcome=Outcome.CORRECT if good else Outcome.INCORRECT,
        )
        for good in outcomes
    )
    return group_from_records(records)


# --- group construction ---


def test_group_from_records_rewards():
    group = simple_group([1, 0, 0, 1])
    assert group.outcome_rewards == (1.0, 0.0, 0.0, 1.0)
    assert all(row == (0.0, 0.0) for row in group.process_rewards)
    assert group.query == QUERY


def test_group_validation():
    solo = synthetic_record([A])
    with pytest.raises(ValueError):
        TrajectoryGroup((solo,), (1.0,), ((0.0,),))
    pair = (synthetic_record([A]), synthetic_record([A]))
    with pytest.raises(ValueError):
        TrajectoryGroup(pair, (1.0,), ((0.0,), (0.0,)))
    with pytest.raises(ValueError):
        TrajectoryGroup(pair, (1.0, 0.0), ((0.0, 0.0), (0.0,)))
    other_query = EpisodeRecord(
        query=Query(TaskName.SYNTHETIC, 9),
        events=pair[0].events,
        answer=pair[0].answer,
        outcome=pair[0].outcome,
    )
    with pytest.raises(ValueError):
        TrajectoryGroup((pair[0], other_query), (1.0, 0.0), ((0.0,), (0.0,)))


# --- normalized outcome advantages ---


def test_reference_group_normalizes_to_unit_signs():
    table = grpo_group_advantages(simple_group([1, 0, 0, 1]))
    per_trajectory = [row.advantages for row in table.rows]
    assert per_trajectory == [(1.0, 1.0), (-1.0, -1.0), (-1.0, -1.0), (1.0, 1.0)]


def test_uniform_rewards_carry_no_signal():
    for outcomes in ([1, 1, 1], [0, 0, 0, 0]):
        table = grpo_group_advantages(simple_group(outcomes))
        for row in table.rows:
            assert row.advantages == (0.0,) * len(row.advantages)


@given(st.lists(st.integers(0, 1), min_size=2, max_size=12))
@settings(max_examples=300, deadline=None)
def test_group_outcome_advantages_sum_to_zero(outcomes):
    table = grpo_group_advantages(simple_group(outcomes))
    total = sum(row.advantages[0] for row in table.rows)
    assert abs(total) < 1e-12


def test_process_rewards_enter_as_suffix_sums():
    records = (synthetic_record([A, A]), synthetic_record([A, A]))
    group = group_from_records(records, process_rewards=[[1.0, 2.0], [3.0, 4.0]])
    flat = [1.0, 2.0, 3.0, 4.0]
    mean = sum(flat) / 4
    std = math.sqrt(sum((v - mean) ** 2 for v in flat) / 4)
    norm = [(v - mean) / std for v in flat]
    table = grpo_group_advantages(group)
    # outcome rewards are uniform (all correct) so contribute 0
    assert table.rows[0].advantages == pytest.approx((norm[0] + norm[1], norm[1]))
    assert table.rows[1].advantages == pytest.approx((norm[2] + norm[3], norm[3]))


def test_default_rows_are_unmasked_and_live():
    table = grpo_group_advantages(simple_group([1, 0]))
    for row in table.rows:
        assert row.step_masked == (False,) * len(row.advantages)


# --- masking ---


def test_masking_targets_rejected_events_only():
    records = (
        synthetic_record([A, R, R, A]),
        synthetic_record([A, T, A, A]),
    )
    group = group_from_records(records)
    table = grpo_group_advantages(group)
    table = mask_rejected_advantages(records[0], table)
    table = mask_rejected_advantages(records[1], table)
    assert table.rows[0].step_masked == (False, True, True, False)
    assert table.rows[1].step_masked == (False, False, False, False)


@given(
    st.lists(
        st.lists(st.sampled_from(["a", "r", "t"]), min_size=1, max_size=6).filter(
            lambda chain: "a" in chain
        ),
        min_size=2,
        max_size=5,
    )
)
@settings(max_examples=120, deadline=None)
def test_masking_is_idempotent(chains):
    code = {"a": A, "r": R, "t": T}
    records = tuple(synthetic_record([code[c] for c in chain]) for chain in chains)
    table = grpo_group_advantages(group_from_records(records))
    once = table
    for record in records:
        once = mask_rejected_advantages(record, once)
    twice = once
    for record in records:
        twice = mask_rejected_advantages(record, twice)
    assert twice == once
    for record, row in zip(records, once.rows):
        for event, bit in zip(record.events, row.step_masked):
            assert bit == (event.disposition is Disposition.REJECTED)


def test_masking_rejects_foreign_record():
    group = simple_group([1, 0])
    table = grpo_group_advantages(group)
    stranger = synthetic_record([A, A, A])
    with pytest.raises(ValueError):
        mask_rejected_advantages(stranger, table)


# --- early truncation ---


def on_track_oracle(query, state, step):
    return bool(step.content)


def test_truncation_cuts_after_first_accepted_bad_step():
    record = synthetic_record([A, A, A, A])
    # poison the second accepted step
    events = list(record.events)
    bad = events[1]
    events[1] = Event(
        bad.state,
        VerifiedStep(Step(False), bad.verified.verification),
        Disposition.ACCEPTED,
    )
    record = EpisodeRecord(record.query, tuple(events), record.answer, record.outcome)
    cut = early_truncate(record, on_track_oracle)
    assert len(cut.events) == 2
    assert cut.outcome is Outcome.INCORRECT
    assert cut.answer is None
    assert len(cut.events) == 2


def test_truncation_skips_rejected_bad_steps():
    record = synthetic_record([A, R, A])
    events = list(record.events)
    bad = events[1]
    events[1] = Event(
        bad.state, VerifiedStep(Step(False), bad.verified.verification), Disposition.REJECTED
    )
    record = EpisodeRecord(record.query, tuple(events), record.answer, record.outcome)
    assert early_truncate(record, on_track_oracle) is record


def test_truncation_at_answer_step_keeps_answer():
    record = synthetic_record([A, A], outcome=Outcome.CORRECT)
    events = list(record.events)
    wrong_answer = Step(False, is_answer=True)
    events[1] = Event(events[1].state, VerifiedStep(wrong_answer), Disposition.ACCEPTED)
    record = EpisodeRecord(record.query, tuple(events), wrong_answer, Outcome.INCORRECT)
    cut = early_truncate(record, on_track_oracle)
    assert cut.answer == wrong_answer
    assert cut.outcome is Outcome.INCORRECT
    assert len(cut.events) == 2


def test_clean_record_passes_through_unchanged():
    record = synthetic_record([A, R, A, A])
    assert early_truncate(record, on_track_oracle) is record


@given(
    st.lists(st.sampled_from(["good", "bad"]), min_size=1, max_size=8),
    st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_truncation_is_idempotent(quality, final_answer):
    record = synthetic_record([A] * len(quality), final_answer=final_answer)
    events = []
    for event, label in zip(record.events, quality):
        step = event.verified.step
        if label == "bad":
            step = Step(False, is_answer=step.is_answer)
        events.append(Event(event.state, VerifiedStep(step, event.verified.verification), A))
    answer = record.answer
    if answer is not None and quality[-1] == "bad":
        answer = Step(False, is_answer=True)
    record = EpisodeRecord(record.query, tuple(events), answer, record.outcome)
    once = early_truncate(record, on_track_oracle)
    twice = early_truncate(once, on_track_oracle)
    assert twice == once
    if "bad" in quality:
        assert once.outcome is Outcome.INCORRECT
        assert len(once.events) == quality.index("bad") + 1


def test_row_index_prefers_identity():
    group = simple_group([1, 0])
    table = grpo_group_advantages(group)
    assert table.row_index(group.trajectories[1]) == 1
    clone = EpisodeRecord(
        group.trajectories[0].query,
        group.trajectories[0].events,
        group.trajectories[0].answer,
        group.trajectories[0].outcome,
    )
    assert table.row_index(clone) == 0
