"""Long-multiplication task: expert policy, move legality, verifiers, and
controlled corruptions.  Python's big-int multiply is the external oracle."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from reflect_lab import rng as rng_mod
from reflect_lab.engines import mode_config, run_rtbs
from reflect_lab.mtp import (
    Disposition,
    Outcome,
    Query,
    SelfVerifying,
    Step,
    TaskName,
    task_hooks,
)
from reflect_lab.tasks import binary_verifier
from reflect_lab.tasks.mult import (
    MultExpertPolicy,
    MultState,
    MultTransition,
    make_move,
    mult_expert_step,
    nonzero_digits,
    perturb_contribution,
    verify_binary_mult,
    verify_detailed_mult,
)

operands = st.integers(min_value=1, max_value=10**8 - 1)


def run_expert(x: int, y: int):
    query = Query(task=TaskName.MULT, payload=(x, y))
    return run_rtbs(
        SelfVerifying(MultExpertPolicy(), binary_verifier(TaskName.MULT)),
        MultTransition(),
        query,
        mode_config("none", None, 0, 200),
        rng_mod.stream(0),
    )


# --- state and digit helpers ---


def test_state_invariant_value():
    s = MultState(x=123, y=45, z=0)
    assert s.value() == 123 * 45
    assert not s.terminal
    assert MultState(x=123, y=0, z=5535).terminal


def test_state_validation():
    with pytest.raises(ValueError):
        MultState(x=-1, y=2, z=0)
    # Values that are not plain ints skip the quick check and get the full one.
    for field in ("x", "y", "z"):
        for bad in (True, -1, 1.0, np.int64(3)):
            with pytest.raises(ValueError, match=f"^{field} must be a nonnegative int$"):
                MultState(**{"x": 2, "y": 3, "z": 0, field: bad})

    class Count(int):
        pass

    assert MultState(Count(3), 4, Count(0)).value() == 12


def test_digit_helpers():
    assert nonzero_digits(4096) == {6: [0], 9: [1], 4: [3]}
    assert nonzero_digits(777) == {7: [0, 1, 2]}


# --- moves ---


def test_make_move_clears_digit_and_preserves_value():
    s = MultState(x=321, y=4052, z=0)
    move = make_move(s, 5)
    assert move.side == "y"
    assert move.digit == 5
    assert move.positions == (1,)
    assert move.delta == 5 * 321
    assert move.contributions == (5 * 10 * 321,)
    assert move.new_state == MultState(x=321, y=4002, z=5 * 10 * 321)
    assert move.new_state.value() == s.value()


def test_make_move_multiple_positions():
    s = MultState(x=7, y=313, z=10)
    move = make_move(s, 3)
    assert move.positions == (0, 2)
    assert move.contributions == (3 * 1 * 7, 3 * 100 * 7)
    assert move.new_state == MultState(7, 10, 10 + 21 * 101)


def test_make_move_on_x_side():
    s = MultState(x=44, y=9, z=0)
    move = make_move(s, 4, side="x")
    assert move.side == "x"
    assert move.new_state == MultState(0, 9, 44 * 9)
    assert move.new_state.value() == s.value()


def test_make_move_rejects_absent_digit():
    with pytest.raises(ValueError):
        make_move(MultState(3, 12, 0), 5)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: make_move(MultState(0, 12, 5), 1), "terminal"),
        (lambda: make_move(MultState(3, 12, 0), 1, side="z"), "side must be"),
        (lambda: MultTransition().apply(MultState(3, 12, 0), Step(36)), "non-move"),
    ],
    ids=["terminal-state", "unknown-side", "transition-of-a-non-move"],
)
def test_mult_refuses_moves_that_do_not_exist(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# --- expert policy ---


def test_expert_step_picks_smallest_digit():
    step = mult_expert_step(MultState(x=9, y=352, z=0))
    assert not step.is_answer
    assert step.content.digit == 2


def test_expert_answers_on_terminal_state():
    step = mult_expert_step(MultState(x=9, y=0, z=63))
    assert step.is_answer
    assert step.content == 63


@given(
    st.integers(0, 10**10 - 1), st.integers(0, 10**10 - 1), st.integers(0, 10**21)
)
def test_expert_step_is_the_move_of_its_smallest_digit(x, y, z):
    state = MultState(x, y, z)
    step = mult_expert_step(state)
    if state.terminal:
        assert step == Step(z, is_answer=True)
    else:
        assert step.content == make_move(state, min(nonzero_digits(y)))


@given(operands, operands)
def test_expert_is_always_correct(x, y):
    record = run_expert(x, y)
    assert record.outcome is Outcome.CORRECT
    assert record.answer.content == x * y


def test_expert_episode_length():
    # One move per distinct nonzero digit of y, plus the answer step.
    record = run_expert(123456789, 977)
    assert len(record.events) == len(nonzero_digits(977)) + 1


# --- transition ---


def test_transition_applies_claimed_state():
    s = MultState(5, 31, 0)
    move = make_move(s, 1)
    assert MultTransition().apply(s, Step(move)) == move.new_state


def test_transition_keeps_the_state_on_an_answer_step():
    s = MultState(5, 31, 0)
    assert MultTransition().apply(s, Step(155, is_answer=True)) is s


# --- verifiers ---


@given(operands, st.integers(min_value=1, max_value=9999))
def test_binary_verifier_accepts_honest_runs(x, y):
    s = MultState(x, y, 0)
    while not s.terminal:
        step = mult_expert_step(s)
        assert not verify_binary_mult(s, step).rejected
        assert not verify_detailed_mult(s, step).rejected
        s = step.content.new_state
    answer = mult_expert_step(s)
    assert not verify_binary_mult(s, answer).rejected
    assert verify_binary_mult(s, answer).labels == (True,)


def test_binary_verifier_rejects_wrong_answer():
    s = MultState(0, 0, 42)
    assert verify_binary_mult(s, Step(41, is_answer=True)).rejected
    assert not verify_binary_mult(s, Step(42, is_answer=True)).rejected


def test_binary_verifier_rejects_answer_before_terminal():
    s = MultState(6, 7, 0)
    assert verify_binary_mult(s, Step(42, is_answer=True)).rejected


def test_binary_verifier_rejects_value_change():
    s = MultState(7, 13, 0)
    move = make_move(s, 3)
    broken = Step(
        type(move)(
            side=move.side,
            digit=move.digit,
            positions=move.positions,
            delta=move.delta,
            contributions=move.contributions,
            new_state=MultState(7, 10, move.new_state.z + 7),
        )
    )
    assert verify_binary_mult(s, broken).rejected


def test_detailed_verifier_label_layout():
    s = MultState(321, 4052, 0)
    step = Step(make_move(s, 4))
    labels = verify_detailed_mult(s, step).labels
    # One delta check, one per cleared position, one accumulation check.
    assert labels == (True, True, True)
    multi = Step(make_move(MultState(7, 313, 0), 3))
    assert verify_detailed_mult(MultState(7, 313, 0), multi).labels == (True,) * 4


def test_detailed_verifier_rejects_malformed_content():
    assert verify_detailed_mult(MultState(3, 4, 0), Step("garbage")).labels == (False,)


@pytest.mark.parametrize("content", ["garbage", 12, MultState(3, 4, 0)])
def test_binary_verifier_rejects_content_that_is_not_a_move(content):
    assert verify_binary_mult(MultState(3, 4, 0), Step(content)).labels == (False,)


@given(operands, st.integers(min_value=1, max_value=9999), st.integers(min_value=0, max_value=2**32 - 1))
def test_perturbation_always_caught_and_localized(x, y, seed):
    s = MultState(x, y, 0)
    move = mult_expert_step(s).content
    corrupted, label_index = perturb_contribution(s, move, rng_mod.stream(seed))
    binary = verify_binary_mult(s, Step(corrupted))
    assert binary.rejected
    detailed = verify_detailed_mult(s, Step(corrupted)).labels
    # Exactly one negative label, exactly where claimed.
    assert detailed[label_index] is False
    assert sum(1 for v in detailed if not v) == 1


class ScriptedDraws:
    """Stands in for a generator: integers(n) returns the scripted draws."""

    def __init__(self, *draws):
        self._draws = list(draws)

    def integers(self, n):
        draw = self._draws.pop(0)
        assert 0 <= draw < n
        return draw


@pytest.mark.parametrize("old_digit", range(10))
def test_perturbation_picks_the_drawn_digit_among_the_other_nine(old_digit):
    # One contribution, 10 + old_digit, with old_digit in the units place.
    state = MultState(10 + old_digit, 1, 0)
    move = make_move(state, 1)
    for draw in range(9):
        corrupted, _ = perturb_contribution(state, move, ScriptedDraws(0, 0, draw))
        new_digit = [d for d in range(10) if d != old_digit][draw]
        assert corrupted.contributions == (10 + new_digit,)


def test_perturbation_changes_one_contribution():
    s = MultState(321, 4052, 0)
    move = make_move(s, 4)
    corrupted, _ = perturb_contribution(s, move, rng_mod.stream(3))
    assert corrupted.digit == move.digit
    assert corrupted.positions == move.positions
    diffs = [
        i
        for i, (a, b) in enumerate(zip(corrupted.contributions, move.contributions))
        if a != b
    ]
    assert len(diffs) == 1
    # The claimed running total propagates the corrupted contribution.
    delta_change = corrupted.contributions[diffs[0]] - move.contributions[diffs[0]]
    assert corrupted.new_state.z == move.new_state.z + delta_change


# --- task hooks ---


def test_mult_hooks_roundtrip():
    hooks = task_hooks(TaskName.MULT)
    q = Query(TaskName.MULT, (12, 34))
    state = hooks.initial_state(q)
    assert state == MultState(12, 34, 0)
    assert hooks.check_answer(q, Step(408, is_answer=True))
    assert not hooks.check_answer(q, Step(407, is_answer=True))
    with pytest.raises(ValueError):
        hooks.validate(Query(TaskName.MULT, (3, -1)))
    with pytest.raises(ValueError):
        hooks.validate(Query(TaskName.MULT, [3, 4]))
    hooks.validate(Query(TaskName.MULT, (0, 3)))  # zero operands are legal
