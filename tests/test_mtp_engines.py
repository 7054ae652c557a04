"""Exact bookkeeping tests for the episode executors, driven by scripted
policies and verifiers so every disposition is forced."""

import dataclasses

import pytest

from reflect_lab import rng as rng_mod
from reflect_lab.engines import ReflectConfig, run_rmtp, run_rtbs
from reflect_lab.mtp import (
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
    reflective_transition,
    run_nonreflective,
)
from reflect_lab.sim import (
    SimplifiedParams,
    SyntheticState,
    SyntheticTransition,
    synthetic_self_verifying,
)


class ScriptedPolicy:
    """Emits preplanned (content, is_answer) pairs in order."""

    def __init__(self, steps):
        self._steps = list(steps)

    def sample(self, state, rng):
        content, is_answer = self._steps.pop(0)
        return Step(content=content, is_answer=is_answer)


class ScriptedVerifier:
    """Emits preplanned single-label verdicts in order; True accepts."""

    def __init__(self, verdicts):
        self._verdicts = list(verdicts)

    def verify(self, state, step, rng):
        return Verification((self._verdicts.pop(0),))


def scripted(steps, verdicts) -> SelfVerifying:
    return SelfVerifying(ScriptedPolicy(steps), ScriptedVerifier(verdicts))


def query(scale: int) -> Query:
    return Query(task=TaskName.SYNTHETIC, payload=scale)


ADVANCE = (True, False)
ANSWER = (True, True)
WRONG_ANSWER = (False, True)


# --- data model ---


def test_verification_rejected_flag():
    assert not Verification(()).rejected
    assert not Verification((True, True)).rejected
    assert Verification((True, False, True)).rejected
    assert Verification((False,)).rejected


def test_episode_record_validates_event_count():
    q = query(1)
    ev = Event(SyntheticState(1, True), VerifiedStep(Step(True, True)), Disposition.ACCEPTED)
    with pytest.raises(ValueError):
        EpisodeRecord(q, (ev,), Step(True, True), 2, Outcome.CORRECT)


def test_reflect_config_validation():
    with pytest.raises(ValueError):
        ReflectConfig(total_budget=0)
    with pytest.raises(ValueError):
        ReflectConfig(rtbs_width=0)
    with pytest.raises(ValueError):
        ReflectConfig(reflective_budget=-1)


def test_reflective_transition_keeps_state_on_rejection():
    state = SyntheticState(3, True)
    trans = SyntheticTransition()
    rejected = VerifiedStep(Step(True, False), Verification((False,)))
    accepted = VerifiedStep(Step(True, False), Verification((True,)))
    assert reflective_transition(state, rejected, trans) is state
    assert reflective_transition(state, accepted, trans) == SyntheticState(2, True)


def test_synthetic_query_validation():
    with pytest.raises(ValueError):
        run_nonreflective(
            ScriptedPolicy([ANSWER]), SyntheticTransition(), Query(TaskName.SYNTHETIC, -1), 4, rng_mod.stream(0)
        )
    with pytest.raises(ValueError):
        run_nonreflective(
            ScriptedPolicy([ANSWER]), SyntheticTransition(), Query(TaskName.SYNTHETIC, "3"), 4, rng_mod.stream(0)
        )


# --- plain chain ---


def test_nonreflective_accepts_everything():
    record = run_nonreflective(
        ScriptedPolicy([ADVANCE, ANSWER]),
        SyntheticTransition(),
        query(2),
        budget=10,
        rng=rng_mod.stream(0),
    )
    assert record.outcome is Outcome.CORRECT
    assert record.steps_used == 2
    assert [e.disposition for e in record.events] == [Disposition.ACCEPTED] * 2
    assert all(e.verified.verification.labels == () for e in record.events)


def test_nonreflective_wrong_answer_is_incorrect():
    record = run_nonreflective(
        ScriptedPolicy([(False, False), WRONG_ANSWER]),
        SyntheticTransition(),
        query(2),
        budget=10,
        rng=rng_mod.stream(0),
    )
    assert record.outcome is Outcome.INCORRECT
    assert record.answer is not None


def test_nonreflective_budget_exhaustion():
    record = run_nonreflective(
        ScriptedPolicy([ADVANCE] * 3),
        SyntheticTransition(),
        query(9),
        budget=3,
        rng=rng_mod.stream(0),
    )
    assert record.outcome is Outcome.BUDGET_EXHAUSTED
    assert record.answer is None
    assert record.steps_used == 3
    with pytest.raises(ValueError):
        run_nonreflective(
            ScriptedPolicy([]), SyntheticTransition(), query(1), budget=0, rng=rng_mod.stream(0)
        )


# --- retry-in-place engine ---


def test_rmtp_rejection_retries_in_place():
    sv = scripted([ADVANCE, ADVANCE, ANSWER], [False, True, True])
    record = run_rmtp(sv, SyntheticTransition(), query(2), ReflectConfig(), rng_mod.stream(0))
    assert record.outcome is Outcome.CORRECT
    assert [e.disposition for e in record.events] == [
        Disposition.REJECTED,
        Disposition.ACCEPTED,
        Disposition.ACCEPTED,
    ]
    # The rejected attempt was retried at the same state.
    assert record.events[0].state == record.events[1].state == SyntheticState(2, True)
    assert record.events[2].state == SyntheticState(1, True)
    assert record.steps_used == 3


def test_rmtp_total_budget_exhaustion():
    sv = scripted([ADVANCE] * 4, [False] * 4)
    record = run_rmtp(
        sv, SyntheticTransition(), query(1), ReflectConfig(total_budget=4), rng_mod.stream(0)
    )
    assert record.outcome is Outcome.BUDGET_EXHAUSTED
    assert record.steps_used == 4


def test_rmtp_stops_verifying_after_reflective_budget():
    sv = scripted([ADVANCE, ADVANCE, (False, False), WRONG_ANSWER], [False, True])
    cfg = ReflectConfig(reflective_budget=2, total_budget=10)
    record = run_rmtp(sv, SyntheticTransition(), query(3), cfg, rng_mod.stream(0))
    # First two proposals verified, the rest carry empty label lists and
    # are accepted unconditionally (a derailing step slips through).
    labels = [e.verified.verification.labels for e in record.events]
    assert labels[0] == (False,) and labels[1] == (True,)
    assert labels[2] == () and labels[3] == ()
    assert record.outcome is Outcome.INCORRECT  # derailed chain answered wrong


def test_rmtp_rejected_answer_step_does_not_terminate():
    sv = scripted([ANSWER, ANSWER], [False, True])
    record = run_rmtp(sv, SyntheticTransition(), query(1), ReflectConfig(), rng_mod.stream(0))
    assert record.outcome is Outcome.CORRECT
    assert record.steps_used == 2
    assert record.events[0].disposition is Disposition.REJECTED
    assert record.events[0].verified.step.is_answer


# --- backtracking engine ---


def test_rtbs_traceback_restores_parent_and_recounts():
    # Scale 3, width 2: advance, then two rejections at the child trigger
    # one traceback, then the search succeeds on the retried branch.
    sv = scripted(
        [ADVANCE, ADVANCE, ADVANCE, ADVANCE, ADVANCE, ANSWER],
        [True, False, False, True, True, True],
    )
    cfg = ReflectConfig(rtbs_width=2, total_budget=20)
    record = run_rtbs(sv, SyntheticTransition(), query(3), cfg, rng_mod.stream(0))
    dispositions = [e.disposition for e in record.events]
    assert dispositions == [
        Disposition.ACCEPTED,
        Disposition.REJECTED,
        Disposition.REJECTED,
        Disposition.TRACEBACK,
        Disposition.ACCEPTED,
        Disposition.ACCEPTED,
        Disposition.ACCEPTED,
    ]
    assert record.outcome is Outcome.CORRECT
    # Traceback carries the popped parent state and its accepted step,
    # with no verification labels of its own.
    tb = record.events[3]
    assert tb.state == SyntheticState(3, True)
    assert tb.verified.step.content is True and not tb.verified.step.is_answer
    assert tb.verified.verification.labels == ()
    # The retry after the traceback happens back at the root state.
    assert record.events[4].state == SyntheticState(3, True)
    assert record.steps_used == 7  # six proposals plus one traceback event


def test_rtbs_width_one_cascades_to_root():
    sv = scripted(
        [ADVANCE, ADVANCE, ADVANCE, ADVANCE, ADVANCE, ANSWER],
        [True, True, False, True, True, True],
    )
    cfg = ReflectConfig(rtbs_width=1, total_budget=20)
    record = run_rtbs(sv, SyntheticTransition(), query(3), cfg, rng_mod.stream(0))
    dispositions = [e.disposition for e in record.events]
    # One rejection at scale 1 pops both ancestors in order.
    assert dispositions == [
        Disposition.ACCEPTED,
        Disposition.ACCEPTED,
        Disposition.REJECTED,
        Disposition.TRACEBACK,
        Disposition.TRACEBACK,
        Disposition.ACCEPTED,
        Disposition.ACCEPTED,
        Disposition.ACCEPTED,
    ]
    assert record.events[3].state == SyntheticState(2, True)
    assert record.events[4].state == SyntheticState(3, True)
    assert record.outcome is Outcome.CORRECT


def test_rtbs_capped_root_dies_without_exhausting_budget():
    sv = scripted([ANSWER, ANSWER], [False, False])
    cfg = ReflectConfig(rtbs_width=2, total_budget=50, root_unlimited=False)
    record = run_rtbs(sv, SyntheticTransition(), query(1), cfg, rng_mod.stream(0))
    assert record.outcome is Outcome.INCORRECT  # dead search, not budget
    assert record.answer is None
    assert record.steps_used == 2


def test_rtbs_unlimited_root_keeps_retrying():
    sv = scripted([ANSWER] * 5, [False, False, False, False, True])
    cfg = ReflectConfig(rtbs_width=2, total_budget=50, root_unlimited=True)
    record = run_rtbs(sv, SyntheticTransition(), query(1), cfg, rng_mod.stream(0))
    assert record.outcome is Outcome.CORRECT
    assert record.steps_used == 5


def test_rtbs_capped_root_counts_failed_subtrees():
    # Width 2, capped root: an accepted advance whose subtree fails spends
    # one root attempt; the follow-up rejection spends the second.
    sv = scripted(
        [ADVANCE, ADVANCE, ADVANCE, ADVANCE],
        [True, False, False, False],
    )
    cfg = ReflectConfig(rtbs_width=2, total_budget=50, root_unlimited=False)
    record = run_rtbs(sv, SyntheticTransition(), query(2), cfg, rng_mod.stream(0))
    assert [e.disposition for e in record.events] == [
        Disposition.ACCEPTED,
        Disposition.REJECTED,
        Disposition.REJECTED,
        Disposition.TRACEBACK,
        Disposition.REJECTED,
    ]
    assert record.outcome is Outcome.INCORRECT
    assert record.answer is None


def test_rtbs_budget_counts_proposals_not_tracebacks():
    # Exactly 4 proposals allowed; the traceback event is free.
    sv = scripted(
        [ADVANCE, ADVANCE, ADVANCE, ADVANCE],
        [True, False, False, True],
    )
    cfg = ReflectConfig(rtbs_width=2, total_budget=4)
    record = run_rtbs(sv, SyntheticTransition(), query(3), cfg, rng_mod.stream(0))
    assert record.outcome is Outcome.BUDGET_EXHAUSTED
    proposals = [e for e in record.events if e.disposition is not Disposition.TRACEBACK]
    assert len(proposals) == 4
    assert len(record.events) == 5


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 17])
def test_rtbs_with_wide_cap_is_event_identical_to_rmtp(seed, ref_params):
    # With the width beyond the proposal budget no traceback can ever fire,
    # and both engines consume the random stream in the same order.
    sv = synthetic_self_verifying(ref_params)
    trans = SyntheticTransition()
    q = query(8)
    budget = 60
    rmtp_cfg = ReflectConfig(reflective_budget=budget, total_budget=budget)
    rtbs_cfg = ReflectConfig(
        reflective_budget=budget, total_budget=budget, rtbs_width=budget + 1
    )
    a = run_rmtp(sv, trans, q, rmtp_cfg, rng_mod.stream(seed, 1))
    b = run_rtbs(sv, trans, q, rtbs_cfg, rng_mod.stream(seed, 1))
    assert a.events == b.events
    assert a.outcome == b.outcome
    assert a.answer == b.answer


def test_rtbs_stops_verifying_after_reflective_budget():
    sv = scripted([ADVANCE, ADVANCE, (False, False), ANSWER], [False, True])
    cfg = ReflectConfig(reflective_budget=2, total_budget=10, rtbs_width=3)
    record = run_rtbs(sv, SyntheticTransition(), query(3), cfg, rng_mod.stream(0))
    labels = [e.verified.verification.labels for e in record.events]
    assert labels[:2] == [(False,), (True,)]
    assert labels[2] == () and labels[3] == ()


def test_records_are_immutable():
    sv = scripted([ANSWER], [True])
    record = run_rmtp(sv, SyntheticTransition(), query(1), ReflectConfig(), rng_mod.stream(0))
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.outcome = Outcome.INCORRECT
