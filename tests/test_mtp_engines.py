"""Exact bookkeeping tests for the episode executor in each mode, driven by
scripted policies and verifiers so every disposition is forced."""

import dataclasses
import hashlib
import itertools

import pytest

from reflect_lab import rng as rng_mod
from reflect_lab.corpus import dumps_json_line, record_to_json
from reflect_lab.engines import MODES, ReflectConfig, mode_config, run_rtbs
from reflect_lab.mtp import (
    DifficultyTier,
    Disposition,
    Outcome,
    Query,
    SelfVerifying,
    Step,
    TaskName,
    Verification,
)
from reflect_lab.sim import (
    Law,
    SimplifiedParams,
    SyntheticSelfVerifier,
    SyntheticState,
    SyntheticTransition,
)
from reflect_lab.tasks import (
    binary_verifier,
    detailed_verifier,
    expert_policy,
    gen_query,
    make_noisy_policy,
    make_noisy_verifier,
    transition_for,
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
    for length in range(5):
        for labels in itertools.product((False, True), repeat=length):
            assert Verification(labels).rejected == any(not ok for ok in labels)


def test_reflect_config_validation():
    # Each field's least legal value passes and the one below it is refused.
    assert ReflectConfig(0, 1, 1).root_unlimited
    with pytest.raises(ValueError, match="total_budget must be >= 1"):
        ReflectConfig(reflective_budget=0, total_budget=0, rtbs_width=1)
    with pytest.raises(ValueError, match="rtbs_width must be >= 1"):
        ReflectConfig(reflective_budget=0, total_budget=1, rtbs_width=0)
    with pytest.raises(ValueError, match="reflective_budget must be >= 0"):
        ReflectConfig(reflective_budget=-1, total_budget=1, rtbs_width=1)


def test_mode_config_sets_up_each_mode():
    assert MODES == ("none", "rmtp", "rtbs")
    assert mode_config("none", None, 64, 96) == ReflectConfig(0, 96, 97, True)
    assert mode_config("rmtp", 4, 64, 96, False) == ReflectConfig(64, 96, 97, False)
    assert mode_config("rtbs", 4, 64, 96) == ReflectConfig(64, 96, 4, True)
    for mode, m in (("bogus", 4), ("rtbs", None), ("rtbs", 0)):
        with pytest.raises(ValueError):
            mode_config(mode, m, 64, 96)


def test_synthetic_query_validation():
    with pytest.raises(ValueError):
        run_rtbs(
            scripted([ANSWER], []), SyntheticTransition(), Query(TaskName.SYNTHETIC, -1),
            mode_config("none", None, 0, 4), rng_mod.stream(0)
        )
    with pytest.raises(ValueError):
        run_rtbs(
            scripted([ANSWER], []), SyntheticTransition(), Query(TaskName.SYNTHETIC, "3"),
            mode_config("none", None, 0, 4), rng_mod.stream(0)
        )


# --- plain chain (mode none) ---


def test_nonreflective_accepts_everything():
    # The verifier has no verdicts to give: mode none must never ask it.
    record = run_rtbs(
        scripted([ADVANCE, ANSWER], []),
        SyntheticTransition(),
        query(2),
        mode_config("none", None, 10, 10),
        rng_mod.stream(0),
    )
    assert record.outcome is Outcome.CORRECT
    assert len(record.events) == 2
    assert [e.disposition for e in record.events] == [Disposition.ACCEPTED] * 2
    assert all(e.verified.verification.labels == () for e in record.events)


def test_nonreflective_wrong_answer_is_incorrect():
    record = run_rtbs(
        scripted([(False, False), WRONG_ANSWER], []),
        SyntheticTransition(),
        query(2),
        mode_config("none", None, 0, 10),
        rng_mod.stream(0),
    )
    assert record.outcome is Outcome.INCORRECT
    assert record.answer is not None


def test_nonreflective_budget_exhaustion():
    record = run_rtbs(
        scripted([ADVANCE] * 3, []),
        SyntheticTransition(),
        query(9),
        mode_config("none", None, 0, 3),
        rng_mod.stream(0),
    )
    assert record.outcome is Outcome.BUDGET_EXHAUSTED
    assert record.answer is None
    assert len(record.events) == 3
    with pytest.raises(ValueError):
        run_rtbs(
            scripted([], []), SyntheticTransition(), query(1),
            mode_config("none", None, 0, 0), rng_mod.stream(0)
        )


# --- retry in place (mode rmtp) ---


def test_rmtp_rejection_retries_in_place():
    sv = scripted([ADVANCE, ADVANCE, ANSWER], [False, True, True])
    record = run_rtbs(
        sv, SyntheticTransition(), query(2), mode_config("rmtp", None, 64, 96), rng_mod.stream(0)
    )
    assert record.outcome is Outcome.CORRECT
    assert [e.disposition for e in record.events] == [
        Disposition.REJECTED,
        Disposition.ACCEPTED,
        Disposition.ACCEPTED,
    ]
    # The rejected attempt was retried at the same state.
    assert record.events[0].state == record.events[1].state == SyntheticState(2, True)
    assert record.events[2].state == SyntheticState(1, True)
    assert len(record.events) == 3


def test_rmtp_total_budget_exhaustion():
    sv = scripted([ADVANCE] * 4, [False] * 4)
    record = run_rtbs(
        sv, SyntheticTransition(), query(1), mode_config("rmtp", None, 64, 4), rng_mod.stream(0)
    )
    assert record.outcome is Outcome.BUDGET_EXHAUSTED
    assert len(record.events) == 4


def test_rmtp_stops_verifying_after_reflective_budget():
    sv = scripted([ADVANCE, ADVANCE, (False, False), WRONG_ANSWER], [False, True])
    cfg = mode_config("rmtp", None, 2, 10)
    record = run_rtbs(sv, SyntheticTransition(), query(3), cfg, rng_mod.stream(0))
    # First two proposals verified, the rest carry empty label lists and
    # are accepted unconditionally (a derailing step slips through).
    labels = [e.verified.verification.labels for e in record.events]
    assert labels[0] == (False,) and labels[1] == (True,)
    assert labels[2] == () and labels[3] == ()
    assert record.outcome is Outcome.INCORRECT  # derailed chain answered wrong


def test_rmtp_rejected_answer_step_does_not_terminate():
    sv = scripted([ANSWER, ANSWER], [False, True])
    record = run_rtbs(
        sv, SyntheticTransition(), query(1), mode_config("rmtp", None, 64, 96), rng_mod.stream(0)
    )
    assert record.outcome is Outcome.CORRECT
    assert len(record.events) == 2
    assert record.events[0].disposition is Disposition.REJECTED
    assert record.events[0].verified.step.is_answer


# --- backtracking (mode rtbs) ---


def test_rtbs_traceback_restores_parent_and_recounts():
    # Scale 3, width 2: advance, then two rejections at the child trigger
    # one traceback, then the search succeeds on the retried branch.
    sv = scripted(
        [ADVANCE, ADVANCE, ADVANCE, ADVANCE, ADVANCE, ANSWER],
        [True, False, False, True, True, True],
    )
    cfg = mode_config("rtbs", 2, 64, 20)
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
    assert len(record.events) == 7  # six proposals plus one traceback event


def test_rtbs_width_one_cascades_to_root():
    sv = scripted(
        [ADVANCE, ADVANCE, ADVANCE, ADVANCE, ADVANCE, ANSWER],
        [True, True, False, True, True, True],
    )
    cfg = mode_config("rtbs", 1, 64, 20)
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
    cfg = mode_config("rtbs", 2, 64, 50, root_unlimited=False)
    record = run_rtbs(sv, SyntheticTransition(), query(1), cfg, rng_mod.stream(0))
    assert record.outcome is Outcome.INCORRECT  # dead search, not budget
    assert record.answer is None
    assert len(record.events) == 2


def test_rtbs_unlimited_root_keeps_retrying():
    sv = scripted([ANSWER] * 5, [False, False, False, False, True])
    cfg = mode_config("rtbs", 2, 64, 50, root_unlimited=True)
    record = run_rtbs(sv, SyntheticTransition(), query(1), cfg, rng_mod.stream(0))
    assert record.outcome is Outcome.CORRECT
    assert len(record.events) == 5


def test_rtbs_capped_root_counts_failed_subtrees():
    # Width 2, capped root: an accepted advance whose subtree fails spends
    # one root attempt; the follow-up rejection spends the second.
    sv = scripted(
        [ADVANCE, ADVANCE, ADVANCE, ADVANCE],
        [True, False, False, False],
    )
    cfg = mode_config("rtbs", 2, 64, 50, root_unlimited=False)
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
    cfg = mode_config("rtbs", 2, 64, 4)
    record = run_rtbs(sv, SyntheticTransition(), query(3), cfg, rng_mod.stream(0))
    assert record.outcome is Outcome.BUDGET_EXHAUSTED
    proposals = [e for e in record.events if e.disposition is not Disposition.TRACEBACK]
    assert len(proposals) == 4
    assert len(record.events) == 5


# sha256 per seed over the JSON lines of the records of _executor_records.
# The Mult, Sudoku and mode-none synthetic records are those the separate
# retry-in-place and plain-chain executors wrote before run_rtbs replaced
# them; the synthetic rmtp records are those of the one-draw synthetic
# self-verifier, which replaced a policy and a verifier that drew apart.
PINNED_RMTP_AND_NONE_DIGESTS = {
    0: "93f112e4400ecc1af886f3849f59d3bfa2c935d0a9ae49a639eb74604978aeb4",
    1: "06bedd8507ffe7e256bfa4c89c7d27990da5246300795ada1efb09d35522d58c",
    2: "83470daae4268de1026169415a940cb8754184d3a64adde129200e451f9b3303",
    3: "8609283cfa1fac59d69ff1e29ecd63047b29b70f2650ebd4946e8f663e5d6b7c",
    17: "34c9d054dd346b89e3b81882da16f2b3805689588994a991bb9e73f0c60f3113",
}


def _bundle(task, noisy, ref_params, mode):
    if task is TaskName.SYNTHETIC:
        clean = SimplifiedParams(1.0, 0.0, 0.0, 1.0)
        law = Law(ref_params if noisy else clean, mode)
        return SyntheticSelfVerifier(law), SyntheticTransition()
    if noisy:
        policy = make_noisy_policy(expert_policy(task), 0.3)
        verifier = make_noisy_verifier(detailed_verifier(task), 0.2, 0.2)
    else:
        policy, verifier = expert_policy(task), binary_verifier(task)
    return SelfVerifying(policy, verifier), transition_for(task)


def _executor_records(seed, root_unlimited, ref_params):
    """Four rmtp and four none episodes for each task, clean and noisy
    bundle and (reflective, total) budget pair: 192 records."""
    tiers = (DifficultyTier.ID_EASY, DifficultyTier.ID_HARD)
    index = 0
    for task in (TaskName.SYNTHETIC, TaskName.MULT, TaskName.SUDOKU):
        for noisy in (False, True):
            for reflective, total in ((64, 96), (0, 40), (5, 12), (3, 3)):
                for mode in ("rmtp", "none"):
                    sv, transition = _bundle(task, noisy, ref_params, mode)
                    config = mode_config(mode, None, reflective, total, root_unlimited)
                    for _ in range(4):
                        erng = rng_mod.stream(seed, index)
                        if task is TaskName.SYNTHETIC:
                            q = query(8)
                        else:
                            q = gen_query(task, tiers[index % 2], erng)
                        index += 1
                        yield run_rtbs(sv, transition, q, config, erng)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 17])
def test_rtbs_with_wide_cap_is_event_identical_to_rmtp(seed, ref_params):
    # With the width beyond the proposal budget no traceback can ever fire,
    # so the root's cap does not matter either, and with reflective budget 0
    # nothing is verified: the records equal those of the deleted executors.
    for root_unlimited in (True, False):
        lines = "\n".join(
            dumps_json_line(record_to_json(record))
            for record in _executor_records(seed, root_unlimited, ref_params)
        )
        digest = hashlib.sha256(lines.encode("utf-8")).hexdigest()
        assert digest == PINNED_RMTP_AND_NONE_DIGESTS[seed], root_unlimited


def test_rtbs_stops_verifying_after_reflective_budget():
    sv = scripted([ADVANCE, ADVANCE, (False, False), ANSWER], [False, True])
    cfg = mode_config("rtbs", 3, 2, 10)
    record = run_rtbs(sv, SyntheticTransition(), query(3), cfg, rng_mod.stream(0))
    labels = [e.verified.verification.labels for e in record.events]
    assert labels[:2] == [(False,), (True,)]
    assert labels[2] == () and labels[3] == ()


class AttemptRecorder:
    """A scripted self-verifier that records the attempt index run_rtbs
    passes with each proposal."""

    def __init__(self, steps, verdicts):
        self._scripted = scripted(steps, verdicts)
        self.attempts = []

    def sample(self, state, rng, attempt):
        self.attempts.append(attempt)
        return self._scripted.sample(state, rng, attempt)

    def verify(self, state, step, rng):
        return self._scripted.verify(state, step, rng)


def test_rtbs_passes_each_proposal_its_attempt_index():
    # Width 3 at an unlimited root, scale 3.  A fresh state starts at 0 and
    # each rejection adds one; the depth-2 state spends its three, so a
    # traceback restores depth 1 at its stored 2, which then spends its
    # last and hands back the root's stored 1.  The root goes on past the
    # width to 4 before the chain finishes.
    reject = (False, False)
    steps = [ADVANCE, reject, ADVANCE, reject, reject, reject, reject,
             reject, reject, reject, ADVANCE, ADVANCE, ANSWER]
    verdicts = [True, False, True, False, False, False, False,
                False, False, False, True, True, True]
    sv = AttemptRecorder(steps, verdicts)
    record = run_rtbs(
        sv, SyntheticTransition(), query(3), mode_config("rtbs", 3, 64, 96), rng_mod.stream(0)
    )
    assert sv.attempts == [0, 0, 1, 0, 1, 2, 2, 1, 2, 3, 4, 0, 0]
    tracebacks = [i for i, e in enumerate(record.events) if e.disposition is Disposition.TRACEBACK]
    assert tracebacks == [6, 8]
    assert record.outcome is Outcome.CORRECT


def test_records_are_immutable():
    sv = scripted([ANSWER], [True])
    record = run_rtbs(
        sv, SyntheticTransition(), query(1), mode_config("rmtp", None, 64, 96), rng_mod.stream(0)
    )
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.outcome = Outcome.INCORRECT
