"""Shared task layer: query generation by tier, noisy wrappers, ground-truth
polarity, and state rendering."""

import numpy as np
import pytest

from reflect_lab import rng as rng_mod
from reflect_lab.mtp import (
    DifficultyTier,
    Query,
    Step,
    TaskName,
    Verification,
    task_hooks,
    verdict,
)
from reflect_lab.tasks import (
    MULT_TIER_DIGITS,
    SUDOKU_TIER_BLANKS,
    NoisyPolicy,
    NoisyVerifier,
    OracleVerifier,
    binary_verifier,
    detailed_verifier,
    expert_policy,
    gen_query,
    make_noisy_policy,
    make_noisy_verifier,
    parse_mult_state,
    state_polarity,
    step_leads_positive,
    step_passes_rule,
    transition_for,
)
from reflect_lab.tasks.mult import MultState, mult_expert_step
from reflect_lab.tasks.sudoku import SudokuBoard, generate_full_board, make_puzzle, solve
from reflect_lab.sim import (
    Law,
    SimplifiedParams,
    SyntheticSelfVerifier,
    SyntheticState,
    SyntheticTransition,
)


# --- tier-disciplined query generation ---


def test_mult_tier_digit_ranges():
    for tier, (lo, hi) in MULT_TIER_DIGITS.items():
        for i in range(40):
            q = gen_query(TaskName.MULT, tier, rng_mod.stream(1, i, int(lo)))
            x, y = q.payload
            big = max(len(str(x)), len(str(y)))
            assert lo <= big <= hi, (tier, q.payload)
            assert q.tier is tier
            assert min(x, y) >= 0


def test_mult_small_operand_no_bigger_than_large():
    for i in range(40):
        q = gen_query(TaskName.MULT, DifficultyTier.ID_HARD, rng_mod.stream(2, i))
        x, y = q.payload
        assert min(x, y) <= max(x, y)


def test_sudoku_tier_blank_ranges():
    for tier, (lo, hi) in SUDOKU_TIER_BLANKS.items():
        q = gen_query(TaskName.SUDOKU, tier, rng_mod.stream(3, int(lo)))
        assert lo <= q.payload.blank_count <= hi
        assert q.tier is tier


def test_gen_query_deterministic():
    a = gen_query(TaskName.MULT, DifficultyTier.ID_EASY, rng_mod.stream(4, 0))
    b = gen_query(TaskName.MULT, DifficultyTier.ID_EASY, rng_mod.stream(4, 0))
    assert a == b


def test_gen_query_rejects_synthetic():
    with pytest.raises(ValueError):
        gen_query(TaskName.SYNTHETIC, DifficultyTier.ID_EASY, rng_mod.stream(0))


# --- factories ---


def test_factories_cover_both_tasks():
    for task in (TaskName.MULT, TaskName.SUDOKU):
        assert expert_policy(task) is not None
        assert transition_for(task) is not None
        assert binary_verifier(task) is not None
        assert detailed_verifier(task) is not None
    assert isinstance(transition_for(TaskName.SYNTHETIC), SyntheticTransition)
    for factory in (expert_policy, binary_verifier, detailed_verifier):
        with pytest.raises(ValueError):
            factory(TaskName.SYNTHETIC)


# --- noisy policy ---


def test_zero_noise_policy_is_transparent():
    base = expert_policy(TaskName.MULT)
    wrapped = make_noisy_policy(base, 0.0)
    state = MultState(123, 456, 0)
    a = base.sample(state, rng_mod.stream(5, 0))
    b = wrapped.sample(state, rng_mod.stream(5, 0))
    assert a == b  # no extra draws, identical stream consumption


def test_noisy_policy_corrupts_at_requested_rate():
    wrapped = make_noisy_policy(expert_policy(TaskName.MULT), 0.3)
    state = MultState(987, 654, 0)
    honest = mult_expert_step(state)
    rng = rng_mod.stream(6, 0)
    corrupted = sum(
        1 for _ in range(2000) if wrapped.sample(state, rng) != honest
    )
    assert 0.3 * 2000 - 3 * np.sqrt(2000 * 0.21) <= corrupted <= 0.3 * 2000 + 3 * np.sqrt(2000 * 0.21)


def test_noisy_policy_never_corrupts_answers():
    wrapped = make_noisy_policy(expert_policy(TaskName.MULT), 1.0)
    terminal = MultState(0, 5, 42)
    rng = rng_mod.stream(7, 0)
    for _ in range(20):
        step = wrapped.sample(terminal, rng)
        assert step.is_answer and step.content == 42


def test_noisy_policy_leaves_a_task_without_corruption_alone():
    # The synthetic task's record has no corrupt: at rate 1 the wrapper draws
    # its one uniform and hands back the base step.
    class OnTrack:
        def sample(self, state, rng):
            return Step(True)

    rng = rng_mod.stream(5, 1)
    step = make_noisy_policy(OnTrack(), 1.0).sample(SyntheticState(3, True), rng)
    assert step == Step(True)
    after_one = rng_mod.stream(5, 1)
    after_one.random()
    assert repr(rng.bit_generator.state) == repr(after_one.bit_generator.state)


def test_noisy_policy_validation():
    with pytest.raises(ValueError):
        make_noisy_policy(expert_policy(TaskName.MULT), 1.5)


@pytest.mark.parametrize("rate", [1.5, -0.1, float("nan")])
def test_noisy_wrappers_built_directly_check_their_rates(rate):
    with pytest.raises(ValueError, match="error_prob must be in"):
        NoisyPolicy(expert_policy(TaskName.MULT), rate)
    base = binary_verifier(TaskName.MULT)
    for e_minus, e_plus in ((rate, 0.1), (0.1, rate)):
        with pytest.raises(ValueError, match="error rates must be in"):
            NoisyVerifier(base, e_minus, e_plus)


def test_noisy_sudoku_policy_produces_bad_fills():
    puzzle = gen_query(TaskName.SUDOKU, DifficultyTier.ID_EASY, rng_mod.stream(8, 0)).payload
    wrapped = make_noisy_policy(expert_policy(TaskName.SUDOKU), 1.0)
    honest = expert_policy(TaskName.SUDOKU).sample(puzzle, rng_mod.stream(8, 1))
    rng = rng_mod.stream(8, 2)
    diffs = sum(1 for _ in range(30) if wrapped.sample(puzzle, rng) != honest)
    assert diffs > 0


# --- noisy verifier ---


def test_noisy_verifier_flip_rates():
    q = Query(TaskName.MULT, (321, 4052))
    state = MultState(321, 4052, 0)
    good = mult_expert_step(state)
    base = binary_verifier(TaskName.MULT)
    noisy = make_noisy_verifier(base, e_minus=0.25, e_plus=0.0)
    rng = rng_mod.stream(9, 0)
    rejections = sum(
        1 for _ in range(2000) if noisy.verify(state, good, rng).rejected
    )
    sd = np.sqrt(2000 * 0.25 * 0.75)
    assert abs(rejections - 500) <= 3 * sd

    bad = Step(424242, is_answer=True)
    noisy_fp = make_noisy_verifier(base, e_minus=0.0, e_plus=0.4)
    acceptances = sum(
        1 for _ in range(2000) if not noisy_fp.verify(state, bad, rng).rejected
    )
    sd = np.sqrt(2000 * 0.4 * 0.6)
    assert abs(acceptances - 800) <= 3 * sd


def test_noisy_verifier_flips_exactly_one_label_on_false_negative():
    state = MultState(7, 313, 0)
    step = mult_expert_step(state)
    noisy = make_noisy_verifier(detailed_verifier(TaskName.MULT), 1.0, 0.0)
    labels = noisy.verify(state, step, rng_mod.stream(10, 0)).labels
    assert sum(1 for v in labels if not v) == 1
    assert len(labels) == len(
        detailed_verifier(TaskName.MULT).verify(state, step, rng_mod.stream(10, 1)).labels
    )


def test_noisy_verifier_zero_rates_draw_nothing():
    state = MultState(7, 313, 0)
    step = mult_expert_step(state)
    noisy = make_noisy_verifier(binary_verifier(TaskName.MULT), 0.0, 0.0)
    rng = rng_mod.stream(11, 0)
    before = repr(rng.bit_generator.state)
    noisy.verify(state, step, rng)
    assert repr(rng.bit_generator.state) == before


def test_noisy_verifier_passes_an_empty_verification_through():
    class Silent:
        def verify(self, state, step, rng):
            return empty

    empty = Verification()
    noisy = make_noisy_verifier(Silent(), 1.0, 1.0)
    rng = rng_mod.stream(11, 1)
    before = repr(rng.bit_generator.state)
    assert noisy.verify(MultState(7, 313, 0), Step(5, is_answer=True), rng) is empty
    assert repr(rng.bit_generator.state) == before


def test_noisy_verifier_validation():
    with pytest.raises(ValueError):
        make_noisy_verifier(binary_verifier(TaskName.MULT), -0.1, 0.0)


# --- shared verdicts ---


def _one_label_verdicts():
    """(verification, expected label) from every one-label producer."""
    rng = rng_mod.stream(16, 0)
    mult = MultState(321, 4052, 0)
    mult_query = Query(TaskName.MULT, (321, 4052))
    good = mult_expert_step(mult)
    bad = Step(MultState(0, 0, 0))
    done = MultState(321, 0, 321 * 4052)
    right, wrong = Step(321 * 4052, is_answer=True), Step(5, is_answer=True)
    full = generate_full_board(rng_mod.stream(16, 1))
    puzzle = make_puzzle(full, 30, rng_mod.stream(16, 2))
    move = expert_policy(TaskName.SUDOKU).sample(puzzle, rng)
    solved = Step(full, is_answer=True)
    mult_binary = binary_verifier(TaskName.MULT)
    sudoku_binary = binary_verifier(TaskName.SUDOKU)
    yield mult_binary.verify(mult, good, rng), True
    yield mult_binary.verify(mult, bad, rng), False
    yield mult_binary.verify(done, right, rng), True
    yield mult_binary.verify(done, wrong, rng), False
    yield detailed_verifier(TaskName.MULT).verify(mult, bad, rng), False
    yield sudoku_binary.verify(puzzle, move, rng), True
    yield sudoku_binary.verify(puzzle, Step(3), rng), False
    yield sudoku_binary.verify(full, solved, rng), True
    yield detailed_verifier(TaskName.SUDOKU).verify(puzzle, Step(3), rng), False
    yield OracleVerifier(mult_query).verify(mult, good, rng), True
    yield OracleVerifier(mult_query).verify(done, wrong, rng), False
    # Every flip of a one-label verdict, both ways.
    yield NoisyVerifier(mult_binary, 0.0, 1.0).verify(done, wrong, rng), True
    yield NoisyVerifier(mult_binary, 1.0, 0.0).verify(done, right, rng), False
    synthetic = SyntheticSelfVerifier(Law(SimplifiedParams(0.8, 0.3, 0.2, 0.8), "rtbs", 2))
    state = SyntheticState(3, True)
    for _ in range(20):
        step = synthetic.sample(state, rng, 0)
        verification = synthetic.verify(state, step, rng)
        yield verification, not verification.rejected


def test_every_one_label_verdict_is_one_of_two_shared_objects():
    accept, reject = verdict(True), verdict(False)
    assert (accept.labels, reject.labels) == ((True,), (False,))
    seen = set()
    for verification, ok in _one_label_verdicts():
        assert verification is (accept if ok else reject)
        seen.add(ok)
    assert seen == {True, False}


def test_a_multi_label_verdict_is_a_fresh_object():
    state = MultState(7, 313, 0)
    step = mult_expert_step(state)
    detailed = detailed_verifier(TaskName.MULT)
    labels = detailed.verify(state, step, rng_mod.stream(17, 0))
    again = detailed.verify(state, step, rng_mod.stream(17, 0))
    assert len(labels.labels) > 1 and all(labels.labels)
    assert labels == again and labels is not again
    flipped = NoisyVerifier(detailed, 1.0, 0.0).verify(state, step, rng_mod.stream(17, 1))
    assert flipped.labels.count(False) == 1
    wrong = Step(task_hooks(TaskName.MULT).corrupt(state, step.content, rng_mod.stream(17, 2)))
    assert detailed.verify(state, wrong, rng_mod.stream(17, 3)).rejected
    passed = NoisyVerifier(detailed, 0.0, 1.0).verify(state, wrong, rng_mod.stream(17, 4))
    assert passed.labels == (True,) * len(labels.labels)


# --- ground-truth polarity ---


def test_mult_polarity():
    q = Query(TaskName.MULT, (12, 34))
    assert state_polarity(q, MultState(12, 34, 0))
    assert state_polarity(q, MultState(12, 30, 48))
    assert not state_polarity(q, MultState(12, 30, 50))


def test_sudoku_polarity():
    full = generate_full_board(rng_mod.stream(12, 0))
    qial = full.cells
    puzzle = SudokuBoard(tuple(0 if i % 3 == 0 else c for i, c in enumerate(qial)))
    q = Query(TaskName.SUDOKU, puzzle)
    assert state_polarity(q, puzzle)
    assert state_polarity(q, full)
    # A fill that contradicts the solution kills solvable-extends.
    blank = next(i for i, c in enumerate(puzzle.cells) if c == 0)
    wrong_value = next(
        v for v in range(1, 10) if v != full.cells[blank]
    )
    r, c = divmod(blank, 9)
    bad = puzzle.with_fills(((r, c, wrong_value),))
    assert state_polarity(q, bad) == (solve(bad) is not None)


def test_synthetic_polarity_uses_flag():
    q = Query(TaskName.SYNTHETIC, 5)
    assert state_polarity(q, SyntheticState(3, True))
    assert not state_polarity(q, SyntheticState(3, False))


def test_step_leads_positive_and_oracle_verifier():
    q = Query(TaskName.MULT, (321, 4052))
    state = MultState(321, 4052, 0)
    good = mult_expert_step(state)
    assert step_leads_positive(q, state, good)
    oracle = OracleVerifier(q)
    assert not oracle.verify(state, good, rng_mod.stream(13, 0)).rejected
    wrong_answer = Step(5, is_answer=True)
    assert oracle.verify(state, wrong_answer, rng_mod.stream(13, 1)).rejected
    right_answer = Step(321 * 4052, is_answer=True)
    assert not oracle.verify(state, right_answer, rng_mod.stream(13, 2)).rejected


def test_step_passes_rule_is_the_binary_rule():
    q = Query(TaskName.MULT, (321, 4052))
    state = MultState(321, 4052, 0)
    rule = binary_verifier(TaskName.MULT)
    for step in (mult_expert_step(state), Step(5, is_answer=True)):
        expected = not rule.verify(state, step, rng_mod.stream(0)).rejected
        assert step_passes_rule(q, state, step) is expected
    assert not step_passes_rule(q, state, Step(5, is_answer=True))
    with pytest.raises(ValueError):
        step_passes_rule(Query(TaskName.SYNTHETIC, 1), SyntheticState(1, True), Step(True))


def test_an_unregistered_task_is_named_in_the_error():
    with pytest.raises(KeyError, match="no hooks registered for task 'nope'"):
        task_hooks("nope")


# --- rendering ---


def test_render_and_parse_mult_state():
    s = MultState(321, 4052, 77)
    render_state = task_hooks(TaskName.MULT).render_state
    assert render_state(s) == "321*4052+77"
    assert parse_mult_state(render_state(s)) == s


@pytest.mark.parametrize(
    "text",
    ["1_0*2+3", "+12*3+0", " 12*3+0", "12*3+0 ", "\uff11\uff12*3+0", "12*\u00b3+0",
     "12*-3+0", "12*3", "12+3*0", "12*3+0+1", "*3+0", ""],
)
def test_parse_mult_state_refuses_what_render_never_writes(text):
    with pytest.raises(ValueError, match="digits 0-9") as refused:
        parse_mult_state(text)
    assert str(refused.value).endswith(repr(text))


def test_render_sudoku_and_synthetic():
    board = generate_full_board(rng_mod.stream(14, 0))
    assert task_hooks(TaskName.SUDOKU).render_state(board) == board.render()
    render_state = task_hooks(TaskName.SYNTHETIC).render_state
    assert render_state(SyntheticState(4, True)) == "scale 4+"
    assert render_state(SyntheticState(0, False)) == "scale 0-"
