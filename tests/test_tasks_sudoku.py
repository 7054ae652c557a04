"""Sudoku task: board model, solver, expert policy, verifiers, corruptions.

The oracles here are deliberately naive set-based checkers and a first-blank
backtracking solver from tests/helpers.py, independent of the package's
bitmask machinery.
"""

import copy
import dataclasses
import enum
import gc
import itertools
import json
import pickle
import sys
import weakref
from functools import lru_cache

import numpy as np
import pytest

from helpers import (
    solve_sudoku_reference,
    sudoku_detailed_labels_reference,
    sudoku_expert_step_reference,
    sudoku_is_complete_valid,
    sudoku_no_duplicates,
)
from reflect_lab import rng as rng_mod
from reflect_lab.engines import mode_config, run_rtbs
from reflect_lab.mtp import Outcome, Query, SelfVerifying, Step, TaskName, task_hooks
from reflect_lab.tasks import (
    OracleVerifier,
    binary_verifier,
    expert_policy,
    make_noisy_policy,
    make_noisy_verifier,
    state_polarity,
)
from reflect_lab.tasks import sudoku as sudoku_module
from reflect_lab.tasks.sudoku import (
    DeadEndError,
    SudokuBoard,
    SudokuExpertPolicy,
    SudokuMove,
    SudokuTransition,
    _masks,
    _with_cell,
    board_extends,
    consistent,
    generate_full_board,
    make_puzzle,
    misfill,
    solve,
    sorted_fills,
    sudoku_expert_step,
    verify_binary_sudoku,
    verify_detailed_sudoku,
)

EMPTY = SudokuBoard(cells=(0,) * 81)


def board_from_rows(rows: list[str]) -> SudokuBoard:
    cells = tuple(int(ch) for row in rows for ch in row)
    return SudokuBoard(cells=cells)


# A well-known easy puzzle and a near-full board for deterministic checks.
PUZZLE = board_from_rows(
    [
        "530070000",
        "600195000",
        "098000060",
        "800060003",
        "400803001",
        "700020006",
        "060000280",
        "000419005",
        "000080079",
    ]
)


# --- board model ---


def test_board_validation():
    with pytest.raises(ValueError):
        SudokuBoard(cells=(0,) * 80)
    with pytest.raises(ValueError):
        SudokuBoard(cells=(0,) * 80 + (10,))
    cells = tuple(PUZZLE.cells)
    for bad in (True, np.int64(3), -1):
        with pytest.raises(ValueError, match="cell values"):
            SudokuBoard(cells=cells[:40] + (bad,) + cells[41:])
    # int subclasses other than bool are cells like any int.
    Digit = enum.IntEnum("Digit", [("FIVE", 5)])
    board = SudokuBoard(cells=(Digit.FIVE,) + cells[1:])
    assert board == PUZZLE
    assert board.render() == PUZZLE.render()


def test_every_kind_of_cells_makes_the_same_bytes_board():
    parsed = SudokuBoard.parse(PUZZLE.render())
    cells = tuple(parsed.cells)
    Digit = enum.IntEnum("Digit", [("FIVE", 5)])
    assert cells[0] == Digit.FIVE
    for given in (cells, list(cells), bytes(cells), bytearray(cells),
                  (Digit.FIVE,) + cells[1:]):
        board = SudokuBoard(given)
        assert type(board.cells) is bytes
        assert board == parsed and hash(board) == hash(parsed)
        assert board.render() == parsed.render()


def test_bytes_cells_are_checked_like_any_cells():
    cells = PUZZLE.cells
    for kind in (bytes, bytearray):
        for value in (10, 255):
            with pytest.raises(ValueError, match="cell values"):
                SudokuBoard(kind(cells[:40]) + bytes((value,)) + kind(cells[41:]))
        with pytest.raises(ValueError, match="81 cells"):
            SudokuBoard(kind(cells[:80]))
    # A fill gets the per-cell check that test_board_validation's cells get.
    for bad in (True, np.int64(3), -1, 10):
        with pytest.raises(ValueError, match="cell values"):
            PUZZLE.with_fills(((4, 4, bad),))


def test_every_builder_makes_bytes_cells():
    rng = rng_mod.stream(28, 0)
    full = generate_full_board(rng)
    puzzle = make_puzzle(full, 50, rng)
    forced = sudoku_expert_step(PUZZLE, rng)
    guess = sudoku_expert_step(EMPTY, rng)
    dead_fill = SudokuExpertPolicy().sample(PUZZLE.with_fills(((0, 2, 5),)), rng)
    assert not forced.content.guess and guess.content.guess and dead_fill.content.guess
    corrupted, _ = misfill(forced.content, rng)
    boards = [
        SudokuBoard.parse(PUZZLE.render()),
        SudokuBoard.parse(" " + PUZZLE.render()),
        _with_cell(PUZZLE, 2, 4),
        solve(PUZZLE),
        solve(puzzle, rng=rng),
        full,
        puzzle,
        PUZZLE.with_fills(((0, 2, 4),)),
        forced.content.new_board,
        guess.content.new_board,
        dead_fill.content.new_board,
        corrupted.new_board,
    ]
    for board in boards:
        assert type(board.cells) is bytes and len(board.cells) == 81
        assert board == SudokuBoard(tuple(board.cells))


def _filled_slots(board: SudokuBoard) -> dict[str, object]:
    """The board's slots that hold a value, read without filling any."""
    filled = {}
    for name in SudokuBoard.__slots__:
        try:
            filled[name] = getattr(SudokuBoard, name).__get__(board)
        except AttributeError:
            pass
    return filled


def _clear_slot(board: SudokuBoard, name: str) -> None:
    """Empty one of the board's lazy slots, so that its next read fills it
    from scratch: one board per value leaves no cold copy to build."""
    if name in _filled_slots(board):
        getattr(SudokuBoard, name).__delete__(board)


def test_a_used_board_survives_pickle_and_deepcopy():
    # While a board lives its copies are the board itself (see
    # test_copy_deepcopy_and_pickle_return_the_live_board); once it is gone,
    # its pickle loads as a new board that rebuilds its slots from the cells.
    rng = rng_mod.stream(28, 1)
    board = make_puzzle(generate_full_board(rng), 50, rng)
    board.render()
    child = sudoku_expert_step(board, rng).content.new_board
    assert {"masks", "_text", "_expert"} <= set(_filled_slots(board))
    saved = [(pickle.dumps(used), used.cells, used.render(), used.masks, hash(used))
             for used in (board, child)]
    gone = weakref.ref(board), weakref.ref(child)
    del board, child
    gc.collect()
    assert [ref() for ref in gone] == [None, None]
    for dumped, cells, text, masks, hashed in saved:
        copied = pickle.loads(dumped)
        assert not {"masks", "_text", "_expert"} & set(_filled_slots(copied))
        assert type(copied.cells) is bytes and copied.cells == cells
        assert hash(copied) == hashed
        assert copied.render() == text
        assert copied.masks == masks
        assert copy.deepcopy(copied) is copied


def test_solve_leaves_no_reference_cycle():
    puzzle = make_puzzle(generate_full_board(rng_mod.stream(28, 2)), 50,
                         rng_mod.stream(28, 3))
    rngs = [rng_mod.stream(28, 4, k) for k in range(10)]
    gc.collect()
    gc.disable()
    try:
        for _ in range(100):
            assert solve(puzzle) is not None
        for rng in rngs:
            generate_full_board(rng)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_non_canonical_text_parses_to_the_same_board():
    rows = PUZZLE.render().splitlines()
    indented = "\n\n  " + "\n\t".join(rows) + "  \n\n"
    spaced = "\n\n".join(f" {row} " for row in rows)
    assert SudokuBoard.parse(indented) == PUZZLE
    assert SudokuBoard.parse(spaced) == PUZZLE
    with pytest.raises(ValueError, match="9 lines"):
        SudokuBoard.parse("\n".join(rows[:8]))
    with pytest.raises(ValueError):
        SudokuBoard.parse("\n".join(rows[:8] + ["00008007x"]))
    # Near-canonical layouts read like any other text.
    text = PUZZLE.render()
    assert SudokuBoard.parse("\r\n".join(rows)) == PUZZLE
    assert SudokuBoard.parse("\r\n".join(rows) + "\r\n") == PUZZLE
    assert SudokuBoard.parse("\n\n" + text + "\n\n") == PUZZLE
    assert SudokuBoard.parse(text + "\n") == PUZZLE
    assert SudokuBoard.parse("\n".join(f"  {row}\t" for row in rows)) == PUZZLE
    with pytest.raises(ValueError, match="9 lines"):
        SudokuBoard.parse(text + "\n000000000")
    # Canonical length and row ends, but not nine digits per row.
    for char in "x+ ":
        with pytest.raises(ValueError):
            SudokuBoard.parse(text[:40] + char + text[41:])
    with pytest.raises(ValueError, match="9 lines"):
        SudokuBoard.parse(text[:9] + text[10] + "\n" + text[11:])
    # Only the digits 0-9 are cells, though int() reads other digits too.
    arabic_three = text[:40] + "\u0663" + text[41:]
    with pytest.raises(ValueError, match="digits 0-9") as refused:
        SudokuBoard.parse(arabic_three)
    assert str(refused.value).endswith(repr(arabic_three))


@pytest.mark.parametrize("digit", ["\uff11", "\u0661", "\u00b9", "\u2460"])
def test_parse_refuses_any_digit_but_0_to_9(digit):
    # Full-width and Arabic-Indic 1 are digits int() reads; superscript and
    # circled 1 are digits it does not.  None of them is a cell.
    block = "\n".join([digit * 9] * 9)
    spaced = PUZZLE.render().replace("1", digit, 1).replace("\n", " \n ")
    for text in (block, spaced, "\n" + block + "\n"):
        with pytest.raises(ValueError, match="digits 0-9") as refused:
            SudokuBoard.parse(text)
        assert str(refused.value).endswith(repr(text))


def test_solver_and_expert_leave_the_cached_masks_alone():
    for board in (PUZZLE, make_puzzle(generate_full_board(rng_mod.stream(8, 0)), 50,
                                      rng_mod.stream(8, 1))):
        masks = board.masks
        assert consistent(board)
        solve(board)
        sudoku_expert_step(board, rng_mod.stream(8, 2))
        assert board.masks == masks
        # The masks computed afresh from the cells agree with the cached value.
        assert _masks(board.cells) == masks
        assert consistent(board)


def test_boards_carry_the_masks_and_text_of_their_cells():
    """Boards built by the expert step and by parse come with derived data;
    it must be what the cells alone give."""

    def check(board: SudokuBoard) -> None:
        assert board.masks == _masks(board.cells)
        digits = "".join(map(str, board.cells))
        assert board.render() == "\n".join(digits[r : r + 9] for r in range(0, 81, 9))

    boards = []
    saw_guess = False
    for seed, puzzle in enumerate((PUZZLE, make_puzzle(
            generate_full_board(rng_mod.stream(21, 0)), 58, rng_mod.stream(21, 1)))):
        rng = rng_mod.stream(21, 2, seed)
        board = puzzle
        while True:
            try:
                step = sudoku_expert_step(board, rng)
            except DeadEndError:
                break
            if step.is_answer:
                break
            saw_guess = saw_guess or step.content.guess
            board = step.content.new_board
            boards.append(board)
    assert saw_guess and len(boards) > 4
    # Boards derived by setting one cell: misfills of each expert move, with
    # and without a forced clash, and dead-end fills, from consistent boards
    # and from illegal ones.
    derived = []
    rng = rng_mod.stream(21, 3)
    for board, state in _noisy_expert_inputs()[::3]:
        step = SudokuExpertPolicy().sample(board, rng)
        if step.is_answer:
            continue
        move = step.content
        if _kind(_outcome(sudoku_expert_step, board, state)[0]) == "dead":
            derived.append(move.new_board)
            assert move.new_board == board.with_fills(move.fills)
        for require_conflict in (False, True):
            result = misfill(move, rng, require_conflict=require_conflict)
            if result is not None:
                corrupted = result[0]
                assert corrupted.new_board == board.with_fills(corrupted.fills)
                derived.append(corrupted.new_board)
    kinds = {(consistent(board), _masks(board.cells) is None) for board in derived}
    assert kinds == {(True, False), (False, True)}
    assert len(derived) > 100
    clash = PUZZLE.with_fills(((0, 2, 5),))
    for board in boards + derived + [PUZZLE, clash]:
        check(board)
        parsed = SudokuBoard.parse(board.render())
        assert parsed == board
        check(parsed)
        check(SudokuBoard.parse("\r\n".join(board.render().splitlines())))


@lru_cache(maxsize=None)
def _noisy_expert_inputs() -> list[tuple[SudokuBoard, dict]]:
    """(board, rng state) at every expert call of noisy rtbs rollouts, as in
    RL rollout groups: 4 rollouts from each of 6 id_hard puzzles, with a
    noisy policy (0.3) and a noisy oracle verifier (0.1, 0.1), so illegal
    and dead-ended boards occur as well as forced and guessed steps."""
    calls: list[tuple[SudokuBoard, dict]] = []

    class Recording:
        def sample(self, state, rng):
            calls.append((state, rng.bit_generator.state))
            return SudokuExpertPolicy().sample(state, rng)

    policy = make_noisy_policy(Recording(), 0.3)
    config = mode_config("rtbs", 4, 64, 96)
    for q, blanks in enumerate((36, 40, 44, 47, 50, 53)):
        qrng = rng_mod.stream(24, q)
        query = Query(TaskName.SUDOKU, make_puzzle(generate_full_board(qrng), blanks, qrng))
        verifier = make_noisy_verifier(OracleVerifier(query), 0.1, 0.1)
        for k in range(4):
            run_rtbs(SelfVerifying(policy, verifier), SudokuTransition(), query, config,
                     rng_mod.stream(24, q, k))
    return calls


def _outcome(step_fn, board: SudokuBoard, state) -> tuple:
    """What step_fn does on the board from an rng in the given state: its
    step or its dead cell, and the rng's state afterwards."""
    rng = np.random.Generator(np.random.Philox())
    rng.bit_generator.state = state
    try:
        result = ("step", step_fn(board, rng))
    except DeadEndError as dead:
        result = ("dead", (dead.row, dead.col))
    after = rng.bit_generator.state
    return result, repr({key: after[key] for key in sorted(after)})


def _kind(result: tuple) -> str:
    kind, value = result
    if kind == "dead":
        return kind
    return "answer" if value.is_answer else "guess" if value.content.guess else "forced"


def test_expert_step_equals_the_sweep_on_every_call_of_a_board():
    """A board's first expert call and every later one give the step, dead
    cell and rng state that sweeping its cells from scratch gives."""
    kinds = []
    for board, state in _noisy_expert_inputs():
        expected = _outcome(sudoku_expert_step_reference, board, state)
        _clear_slot(board, "_expert")
        for _ in range(3):
            assert _outcome(sudoku_expert_step, board, state) == expected
        kinds.append((_kind(expected[0]), _masks(board.cells) is None))
    # Illegal boards dead-end at once; legal ones reach every outcome.
    assert set(kinds) == {("dead", True)} | {
        (kind, False) for kind in ("answer", "forced", "guess", "dead")
    }
    assert len(kinds) > 300


def _boards_held(board: SudokuBoard) -> list[SudokuBoard]:
    """The boards a board's cells and cached values refer to.  A weak
    reference (the live-board registry's, in the weakref slot) holds
    nothing alive, and a puzzle's facts hold ints."""
    held: list[SudokuBoard] = []

    def walk(obj) -> None:
        if isinstance(obj, weakref.ref):
            return
        if isinstance(obj, SudokuBoard):
            held.append(obj)
        elif isinstance(obj, (tuple, list, set)):
            for item in obj:
                walk(item)
        elif isinstance(obj, (Step, SudokuMove)):
            for field in dataclasses.fields(obj):
                walk(getattr(obj, field.name))
        else:
            assert obj is None or type(obj) in (int, bool, str, bytes), type(obj)

    for value in _filled_slots(board).values():
        walk(value)
    return held


def test_a_board_keeps_at_most_one_other_board_alive():
    """A forced step's board holds exactly its successor, whose decision is
    a guess that holds no board."""
    forced = 0
    for board, state in _noisy_expert_inputs():
        board.render()
        result, _ = _outcome(sudoku_expert_step, board, state)
        kind = _kind(result)
        if kind != "forced":
            assert _boards_held(board) == [], kind
            continue
        successor = result[1].content.new_board
        held = _boards_held(board)
        assert len(held) == 1 and held[0] is successor
        if successor.full:
            continue
        sudoku_expert_step(successor, rng_mod.stream(25, 0))
        successor.render()
        assert isinstance(successor._expert, list)
        assert _boards_held(successor) == []
        forced += 1
    assert forced > 50


def _polarity_reference(puzzle: SudokuBoard, state: SudokuBoard) -> bool:
    """The oracle's definition, from the state's cells and none of the
    oracle's facts."""
    keeps_givens = all(g == 0 or g == c for g, c in zip(puzzle.cells, state.cells))
    return _masks(state.cells) is not None and keeps_givens and solve(state) is not None


def _check_polarity(query: Query, states: list[SudokuBoard]) -> None:
    """The oracle equals its definition on a cold cache, and again on a warm
    one in reverse order."""
    puzzle = query.payload
    expected = [_polarity_reference(puzzle, s) for s in states]
    _clear_slot(puzzle, "_facts")
    assert [state_polarity(query, s) for s in states] == expected
    warm = [state_polarity(query, s) for s in reversed(states)]
    assert warm[::-1] == expected


def test_polarity_oracle_matches_its_definition_on_noisy_rollouts():
    policy = make_noisy_policy(expert_policy(TaskName.SUDOKU), 0.3)
    transition = SudokuTransition()
    seen = []
    for seed, blanks in enumerate((44, 48, 50, 53)):
        full = generate_full_board(rng_mod.stream(22, seed))
        query = Query(TaskName.SUDOKU, make_puzzle(full, blanks, rng_mod.stream(22, seed, 1)))
        rng = rng_mod.stream(22, seed, 2)
        # Like a verified rollout: every proposal is asked about, and only
        # states that can still be solved are kept.
        state = query.payload
        states = [state]
        for _ in range(60):
            step = policy.sample(state, rng)
            if step.is_answer:
                break
            proposed = transition.apply(state, step)
            states.append(proposed)
            if _polarity_reference(query.payload, proposed):
                state = proposed
        seen += [(consistent(s), _polarity_reference(query.payload, s)) for s in states]
        _check_polarity(query, states)
    # Solvable, inconsistent and consistent-but-dead states all occurred.
    assert {(True, True), (False, False), (True, False)} <= set(seen)


def _many_solution_case() -> tuple[Query, list[SudokuBoard]]:
    """A 64-blank puzzle and states that follow two of its completions, drop
    or change a given, clash, or fill a value neither completion has."""
    full = generate_full_board(rng_mod.stream(23, 0))
    puzzle = make_puzzle(full, 64, rng_mod.stream(23, 1))
    first = solve(puzzle)
    second = next(
        board for k in range(50)
        if (board := solve(puzzle, rng=rng_mod.stream(23, 2, k))) != first
    )
    blanks = [i for i, v in enumerate(puzzle.cells) if v == 0]
    order = [blanks[int(i)] for i in rng_mod.stream(23, 3).permutation(len(blanks))]

    def following(completion: SudokuBoard) -> list[SudokuBoard]:
        cells = list(puzzle.cells)
        states = []
        for idx in order:
            cells[idx] = completion.cells[idx]
            states.append(SudokuBoard(tuple(cells)))
        return states

    givens = [i for i, v in enumerate(puzzle.cells) if v != 0]
    dropped = [  # boards that lose a given: still consistent, often solvable
        SudokuBoard(tuple(0 if i == idx else v for i, v in enumerate(board.cells)))
        for board in (puzzle, first, second) for idx in givens[:3]
    ]
    changed = [  # a given overwritten by another value
        SudokuBoard(tuple(
            (v % 9) + 1 if i == givens[0] else v for i, v in enumerate(board.cells)))
        for board in (puzzle, first)
    ]
    row = next(r for r in range(9) if puzzle.cells[9 * r:9 * r + 9].count(0) >= 2)
    a, b = [9 * row + c for c in range(9) if puzzle.cells[9 * row + c] == 0][:2]
    clash = SudokuBoard(tuple(
        second.cells[a] if i in (a, b) else v for i, v in enumerate(puzzle.cells)))
    wrong = [  # one blank filled with a value neither completion has there
        SudokuBoard(tuple(
            next(x for x in range(1, 10) if x not in (first.cells[i], second.cells[i]))
            if i == idx else v for i, v in enumerate(puzzle.cells)))
        for idx in order[:6]
    ]
    assert not consistent(clash)
    assert not any(_polarity_reference(puzzle, s) for s in dropped + changed)
    assert any(consistent(s) and solve(s) is not None for s in dropped)
    states = ([puzzle] + following(first)[::7] + following(second)
              + dropped + changed + [clash] + wrong)
    return Query(TaskName.SUDOKU, puzzle), states


def test_polarity_oracle_matches_its_definition_on_a_many_solution_puzzle(monkeypatch):
    query, states = _many_solution_case()
    puzzle = query.payload
    searched = []
    search = sudoku_module.solve
    monkeypatch.setattr(
        sudoku_module, "solve", lambda state: searched.append(state) or search(state))
    _check_polarity(query, states)
    # States that follow the second completion first missed the known
    # completions and were searched, then were covered by what was found.
    solvable_states = sum(_polarity_reference(puzzle, s) for s in states)
    assert len(puzzle._facts) >= 2
    assert len(searched) < solvable_states / 4


def test_polarity_oracle_with_full_lists_searches_again(monkeypatch):
    # Once a puzzle's list is full, what it does not answer is searched.
    monkeypatch.setattr(sudoku_module, "_FACTS_COMPLETIONS", 1)
    query, states = _many_solution_case()
    _check_polarity(query, states)
    assert len(query.payload._facts) == 1


def test_board_extends_is_the_per_cell_rule():
    """board_extends(puzzle, board) holds exactly when every given of the
    puzzle keeps its value in the board."""

    def keeps_givens(puzzle: SudokuBoard, board: SudokuBoard) -> bool:
        return all(g == 0 or g == c for g, c in zip(puzzle.cells, board.cells))

    query, states = _many_solution_case()
    rng = rng_mod.stream(32, 0)
    sparse = [
        SudokuBoard((rng.integers(0, 10, 81) * (rng.random(81) < density)).tolist())
        for density in (0.1, 0.3, 0.6, 0.9) for _ in range(5)
    ]
    # Each sparse board with its blanks filled at random extends it.
    filled = [
        SudokuBoard(bytes(v or int(rng.integers(1, 10)) for v in board.cells))
        for board in sparse
    ]
    boards = [EMPTY, PUZZLE, *states, *sparse, *filled]
    verdicts = []
    for puzzle in [EMPTY, PUZZLE, query.payload, *sparse]:
        for board in boards:
            expected = keeps_givens(puzzle, board)
            assert board_extends(puzzle, board) is expected
            verdicts.append(expected)
    assert 0 < sum(verdicts) < len(verdicts) / 2
    for board in boards:
        assert board_extends(board, board)
        assert board_extends(EMPTY, board)


def test_board_accessors():
    assert PUZZLE.get(0, 0) == 5
    assert PUZZLE.get(2, 1) == 9
    assert PUZZLE.blank_count == 51
    assert not PUZZLE.full


def test_with_fills_and_render_parse_roundtrip():
    filled = PUZZLE.with_fills(((0, 2, 4),))
    assert filled.get(0, 2) == 4
    assert PUZZLE.get(0, 2) == 0  # original untouched
    again = SudokuBoard.parse(filled.render())
    assert again == filled
    assert len(filled.render().splitlines()) == 9


def test_consistency_checker_agrees_with_reference():
    assert consistent(PUZZLE) == sudoku_no_duplicates(PUZZLE.cells) == True
    clash = PUZZLE.with_fills(((0, 2, 5),))  # 5 already in row 0
    assert consistent(clash) is False
    assert sudoku_no_duplicates(clash.cells) is False
    box_clash = PUZZLE.with_fills(((1, 1, 5),))  # 5 in the same box as (0,0)
    assert consistent(box_clash) is False


# --- solver ---


def test_solve_agrees_with_reference_solver():
    solved = solve(PUZZLE)
    assert solved is not None
    assert sudoku_is_complete_valid(solved.cells)
    reference = solve_sudoku_reference(PUZZLE.cells)
    # This puzzle has a unique solution, so both solvers must agree exactly.
    assert tuple(solved.cells) == reference


def test_solve_detects_unsolvable():
    # Two blank cells in one row whose only candidates collide.
    bad = PUZZLE.with_fills(((0, 2, 4),)).with_fills(((2, 2, 4),))  # same box
    assert not consistent(bad) or solve(bad) is None
    inconsistent = PUZZLE.with_fills(((0, 2, 5),))
    assert solve(inconsistent) is None
    assert solve(inconsistent) is None


def test_generate_full_board_is_valid_and_seeded():
    a = generate_full_board(rng_mod.stream(5, 0))
    b = generate_full_board(rng_mod.stream(5, 0))
    c = generate_full_board(rng_mod.stream(6, 0))
    assert sudoku_is_complete_valid(a.cells)
    assert a == b
    assert a != c  # almost surely


def test_make_puzzle_blanks_exactly():
    full = generate_full_board(rng_mod.stream(7, 0))
    puzzle = make_puzzle(full, 40, rng_mod.stream(7, 1))
    assert puzzle.blank_count == 40
    # Puzzle agrees with the full board on every remaining clue.
    assert all(
        p == 0 or p == f for p, f in zip(puzzle.cells, full.cells)
    )
    assert solve(puzzle) is not None


# --- expert policy ---


def test_expert_emits_answer_on_full_board():
    full = generate_full_board(rng_mod.stream(8, 0))
    step = sudoku_expert_step(full, rng_mod.stream(8, 1))
    assert step.is_answer
    assert step.content == full


def test_expert_fills_naked_singles_in_bulk():
    # Remove a handful of cells from a full board: every blank is a single,
    # so the expert fills them all in one move.
    full = generate_full_board(rng_mod.stream(9, 0))
    puzzle = make_puzzle(full, 6, rng_mod.stream(9, 1))
    step = sudoku_expert_step(puzzle, rng_mod.stream(9, 2))
    assert not step.is_answer
    move = step.content
    assert isinstance(move, SudokuMove)
    assert not move.guess
    assert len(move.fills) == 6
    assert move.new_board == full


def test_expert_guess_flag_on_ambiguous_board():
    # From a hard puzzle the first move is forced to include a guess or a
    # chain of singles; find a state where the expert actually guesses.
    rng = rng_mod.stream(10, 0)
    board = PUZZLE
    saw_guess = False
    for _ in range(40):
        step = sudoku_expert_step(board, rng)
        if step.is_answer:
            break
        if step.content.guess:
            saw_guess = True
            assert len(step.content.fills) == 1
        board = step.content.new_board
    assert saw_guess or board.full


def test_expert_solves_episode_end_to_end():
    query = Query(task=TaskName.SUDOKU, payload=PUZZLE)
    record = run_rtbs(
        SelfVerifying(SudokuExpertPolicy(), binary_verifier(TaskName.SUDOKU)),
        SudokuTransition(),
        query,
        mode_config("none", None, 0, 128),
        rng_mod.stream(11, 0),
    )
    # The plain chain may die on a bad guess, but when it answers the
    # answer must be the real solution.
    if record.outcome is Outcome.CORRECT:
        assert sudoku_is_complete_valid(record.answer.content.cells)
        assert tuple(record.answer.content.cells) == solve_sudoku_reference(PUZZLE.cells)


def test_expert_recovers_from_dead_end_with_conflicting_fill():
    # An inconsistent board must still yield a move (which verifiers will
    # reject), never an exception.
    inconsistent = PUZZLE.with_fills(((0, 2, 5),))
    step = SudokuExpertPolicy().sample(inconsistent, rng_mod.stream(12, 0))
    assert not step.is_answer
    assert step.content.guess
    new_board = step.content.new_board
    assert not consistent(new_board) or solve(new_board) is None


def test_dead_end_error_carries_location():
    err = DeadEndError(3, 7)
    assert (err.row, err.col) == (3, 7)


# --- transition ---


def test_transition_applies_claimed_board():
    step = sudoku_expert_step(PUZZLE, rng_mod.stream(13, 0))
    assert SudokuTransition().apply(PUZZLE, step) == step.content.new_board


def test_transition_keeps_the_state_on_an_answer_step():
    assert SudokuTransition().apply(PUZZLE, Step(PUZZLE, is_answer=True)) is PUZZLE


_INCONSISTENT = PUZZLE.with_fills(((0, 2, 5),))  # a second 5 in row 0


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: SudokuTransition().apply(PUZZLE, Step(PUZZLE)), "non-move"),
        (lambda: task_hooks(TaskName.SUDOKU).validate(Query(TaskName.SUDOKU, _INCONSISTENT)),
         "consistent board"),
        (lambda: make_puzzle(PUZZLE, -1, rng_mod.stream(0)), "blanks"),
        (lambda: make_puzzle(PUZZLE, 82, rng_mod.stream(0)), "blanks"),
    ],
    ids=["transition-of-a-non-move", "inconsistent-puzzle", "blanks-below-0", "blanks-above-81"],
)
def test_sudoku_refuses_what_it_cannot_build(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# --- verifiers ---


def test_binary_verifier_accepts_honest_move():
    step = sudoku_expert_step(PUZZLE, rng_mod.stream(14, 0))
    assert not verify_binary_sudoku(PUZZLE, step).rejected
    assert not verify_detailed_sudoku(PUZZLE, step).rejected


def test_binary_verifier_rejects_clue_overwrite():
    # (0, 0) holds the clue 5; the claimed board replaces it with 9.
    overwritten = PUZZLE.with_fills(((0, 0, 9),))
    move = SudokuMove(fills=((0, 0, 9),), guess=False, new_board=overwritten)
    assert verify_binary_sudoku(PUZZLE, Step(move)).rejected
    # The detailed verifier flags that fill too.
    assert verify_detailed_sudoku(PUZZLE, Step(move)).labels == (False,)


@pytest.mark.parametrize(
    "content",
    [
        SudokuMove(fills=(), guess=False, new_board=PUZZLE),
        SudokuMove(fills=((9, 2, 1),), guess=False, new_board=PUZZLE),
        SudokuMove(fills=((0, 9, 1),), guess=False, new_board=PUZZLE),
        SudokuMove(fills=((0, 2, 0),), guess=False, new_board=PUZZLE),
        SudokuMove(fills=((0, 2, 10),), guess=False, new_board=PUZZLE),
        SudokuMove(fills=((0, 2, 1), (0, 2, 4)), guess=False, new_board=PUZZLE),
        PUZZLE,
        "garbage",
    ],
    ids=["no-fills", "row-9", "col-9", "value-0", "value-10", "repeated-cell", "a-board",
         "a-string"],
)
def test_both_verifiers_refuse_ill_formed_content(content):
    # A move's claimed board is the puzzle itself, which passes the board
    # checks, so only the well-formedness check refuses the move.
    assert verify_binary_sudoku(PUZZLE, Step(content)).labels == (False,)
    assert verify_detailed_sudoku(PUZZLE, Step(content)).labels == (False,)


def test_binary_verifier_rejects_inconsistent_result():
    fills = ((0, 2, 5),)  # duplicates the 5 in row 0
    move = SudokuMove(fills=fills, guess=True, new_board=PUZZLE.with_fills(fills))
    assert verify_binary_sudoku(PUZZLE, Step(move)).rejected


def test_binary_verifier_answer_checks():
    full = generate_full_board(rng_mod.stream(15, 0))
    assert not verify_binary_sudoku(full, Step(full, is_answer=True)).rejected
    assert verify_binary_sudoku(PUZZLE, Step(PUZZLE, is_answer=True)).rejected
    wrong = full.with_fills(())
    assert verify_binary_sudoku(
        full, Step(PUZZLE, is_answer=True)
    ).rejected  # claims a different board


def test_detailed_verifier_one_label_per_fill_sorted():
    step = sudoku_expert_step(PUZZLE, rng_mod.stream(16, 0))
    move = step.content
    labels = verify_detailed_sudoku(PUZZLE, step).labels
    assert len(labels) == len(move.fills)
    assert all(labels)
    assert sorted_fills(move) == tuple(sorted(move.fills))


def test_misfill_localized_by_detailed_verifier():
    caught = 0
    for seed in range(60):
        step = sudoku_expert_step(PUZZLE, rng_mod.stream(17, seed))
        if step.is_answer:
            continue
        result = misfill(step.content, rng_mod.stream(18, seed), require_conflict=True)
        if result is None:
            continue
        corrupted, label_index = result
        labels = verify_detailed_sudoku(PUZZLE, Step(corrupted)).labels
        assert labels[label_index] is False
        caught += 1
    assert caught > 0


def test_detailed_labels_match_the_unit_list_definition():
    # Honest moves and misfills (with and without a forced clash) along
    # noisy expert chains from random boards, plus a fill over a given.
    checked = set()
    for seed in range(12):
        rng = rng_mod.stream(27, seed)
        board = make_puzzle(generate_full_board(rng), int(rng.integers(20, 60)), rng)
        for _ in range(6):
            try:
                step = sudoku_expert_step(board, rng)
            except DeadEndError:
                break
            if step.is_answer:
                break
            moves = [step.content]
            for require_conflict in (False, True):
                result = misfill(step.content, rng, require_conflict=require_conflict)
                if result is not None:
                    moves.append(result[0])
            given = next(i for i, v in enumerate(board.cells) if v)
            row, col = divmod(given, 9)
            fills = ((row, col, board.cells[given] % 9 + 1),)
            moves.append(SudokuMove(fills, True, board.with_fills(fills)))
            for move in moves:
                labels = verify_detailed_sudoku(board, Step(move)).labels
                assert labels == sudoku_detailed_labels_reference(
                    board.cells, move.new_board.cells, move.fills
                ), (seed, move.fills)
                new = move.new_board.cells
                kept = all(n == o for o, n in zip(board.cells, new) if o)
                assert verify_binary_sudoku(board, Step(move)).labels == (
                    kept and sudoku_no_duplicates(new),
                )
                checked.update(labels)
            # Go on from the honest move or a misfill, not the overwrite.
            board = moves[int(rng.integers(len(moves) - 1))].new_board
    assert checked == {True, False}


def test_misfill_without_conflict_still_breaks_solution():
    # A wrong value that does not clash outright still diverges from the
    # unique solution, so the board stops being solvable-consistent.
    step = sudoku_expert_step(PUZZLE, rng_mod.stream(19, 0))
    result = misfill(step.content, rng_mod.stream(19, 1))
    assert result is not None
    corrupted, _ = result
    assert corrupted.fills != step.content.fills
    new = corrupted.new_board
    assert not (consistent(new) and solve(new) is not None and new.cells == solve(PUZZLE).cells)


def test_misfill_finds_no_conflict_on_a_near_empty_board():
    # A guess on the empty board is the only filled cell, so no wrong value
    # of it clashes with a peer: require_conflict tries all eight and gives
    # up, and without it the first wrong value drawn is taken.
    move = sudoku_expert_step(EMPTY, rng_mod.stream(29, 0)).content
    assert move.guess and len(move.fills) == 1 and move.new_board.blank_count == 80
    assert misfill(move, rng_mod.stream(29, 1), require_conflict=True) is None
    corrupted, label_index = misfill(move, rng_mod.stream(29, 1))
    ((row, col, wrong),) = corrupted.fills
    assert (row, col) == move.fills[0][:2] and wrong != move.fills[0][2]
    assert label_index == 0 and corrupted.guess
    assert corrupted.new_board == EMPTY.with_fills(corrupted.fills)
    assert consistent(corrupted.new_board)


# --- shared fills and the oracle's memory ---


def _shared_fill(fill):
    row, col, value = fill
    return sudoku_module._FILLS[81 * row + 9 * col + value - 1]


def test_the_fill_table_holds_every_legal_fill_once():
    assert sudoku_module._FILLS == tuple(
        itertools.product(range(9), range(9), range(1, 10))
    )


def test_every_fill_a_move_builds_or_decodes_is_shared():
    full = generate_full_board(rng_mod.stream(9, 0))
    forced = sudoku_expert_step(make_puzzle(full, 6, rng_mod.stream(9, 1)), rng_mod.stream(9, 2))
    guess = sudoku_expert_step(EMPTY, rng_mod.stream(29, 0))
    inconsistent = PUZZLE.with_fills(((0, 2, 5),))
    dead_end = SudokuExpertPolicy().sample(inconsistent, rng_mod.stream(12, 0))
    moves = [forced.content, guess.content, dead_end.content]
    assert [len(m.fills) for m in moves] == [6, 1, 1]
    assert [m.guess for m in moves] == [False, True, True]
    moves.append(misfill(forced.content, rng_mod.stream(19, 1))[0])
    hooks = task_hooks(TaskName.SUDOKU)
    decoded = [
        hooks.move_from_json(json.loads(json.dumps(hooks.move_to_json(m)))) for m in moves
    ]
    assert decoded == moves
    for move in moves + decoded:
        for fill in move.fills:
            assert fill is _shared_fill(fill)


@pytest.mark.parametrize(
    "stored, fill",
    [
        ([True, 2, 3], (1, 2, 3)),
        ([1.0, 2, 3], (1, 2, 3)),
        (["1", 2, 3], (1, 2, 3)),
        ([9, 0, 1], (9, 0, 1)),
        ([0, 0, 0], (0, 0, 0)),
    ],
)
def test_a_fill_that_is_not_three_ints_in_range_converts_as_stored(stored, fill):
    move = task_hooks(TaskName.SUDOKU).move_from_json(
        {"fills": [stored], "guess": True, "board": PUZZLE.render()}
    )
    assert move.fills == (fill,)
    assert [type(v) for v in move.fills[0]] == [int, int, int]


@pytest.mark.parametrize(
    "fills, error, message",
    [
        ([[1, 2]], ValueError, r"not enough values to unpack \(expected 3, got 2\)"),
        ([[1, 2, 3, 4]], ValueError, r"too many values to unpack \(expected 3\)"),
        ([5], TypeError, "cannot unpack non-iterable int object"),
        (5, TypeError, "'int' object is not iterable"),
        ([[1, "x", 3]], ValueError, "invalid literal for int"),
    ],
)
def test_a_fill_of_the_wrong_shape_fails_as_it_always_has(fills, error, message):
    with pytest.raises(error, match=message):
        task_hooks(TaskName.SUDOKU).move_from_json(
            {"fills": fills, "guess": True, "board": PUZZLE.render()}
        )


def test_a_puzzles_facts_live_as_long_as_its_board():
    full = generate_full_board(rng_mod.stream(30, 0))
    puzzle = make_puzzle(full, 45, rng_mod.stream(30, 1))
    query = Query(TaskName.SUDOKU, puzzle)
    assert state_polarity(query, puzzle)
    facts = puzzle._facts
    assert len(facts) == 1
    # Text decoded while the puzzle lives, and a board the constructor
    # builds, are the puzzle itself: they hold its facts, and the oracle
    # answers from the completion already found.
    copied = Query(TaskName.SUDOKU, SudokuBoard.parse(puzzle.render()))
    twin = SudokuBoard(puzzle.cells)
    assert copied.payload is puzzle and twin is puzzle
    assert twin._facts is facts
    assert state_polarity(copied, copied.payload)
    assert len(facts) == 1
    # Once the board dies, nothing but this test holds its facts (the
    # argument of getrefcount is the other reference), and an equal board
    # built later starts afresh.
    cells = puzzle.cells
    board = weakref.ref(puzzle)
    del query, puzzle, copied, twin
    assert board() is None
    assert sys.getrefcount(facts) == 2
    assert SudokuBoard(cells)._facts == []


def test_while_a_board_lives_every_builder_returns_it():
    """One board per value: the constructor, parse, _with_cell, the
    expert's forced and guessed steps, misfill and solve return the live
    board with the cells they build, never an equal copy."""
    forced = sudoku_expert_step(PUZZLE, rng_mod.stream(31, 0)).content
    assert not forced.guess
    board = forced.new_board
    for cells in (PUZZLE.cells, tuple(PUZZLE.cells), list(PUZZLE.cells), bytearray(PUZZLE.cells)):
        assert SudokuBoard(cells) is PUZZLE
    assert SudokuBoard(board.cells) is board
    # The forced step built afresh, with the decision cleared.
    _clear_slot(PUZZLE, "_expert")
    assert sudoku_expert_step(PUZZLE, rng_mod.stream(31, 0)).content.new_board is board
    assert SudokuBoard.parse(board.render()) is board
    assert SudokuBoard.parse(" " + board.render()) is board
    child = _with_cell(PUZZLE, 2, 1)
    assert _with_cell(PUZZLE, 2, 1) is child
    guessed = sudoku_expert_step(EMPTY, rng_mod.stream(31, 1)).content
    assert guessed.guess
    assert sudoku_expert_step(EMPTY, rng_mod.stream(31, 1)).content.new_board is guessed.new_board
    corrupted, _ = misfill(forced, rng_mod.stream(31, 2))
    again, _ = misfill(forced, rng_mod.stream(31, 2))
    assert again is not corrupted and again.new_board is corrupted.new_board
    # A board one blank short of a live full board solves to that board.
    full = generate_full_board(rng_mod.stream(31, 3))
    assert solve(SudokuBoard(bytes(1) + full.cells[1:])) is full
    assert solve(PUZZLE) is solve(PUZZLE)


def test_copy_deepcopy_and_pickle_return_the_live_board():
    board = _with_cell(PUZZLE, 2, 1)
    assert copy.copy(board) is board
    assert copy.deepcopy(board) is board
    assert pickle.loads(pickle.dumps(board)) is board
    # Inside a container too, as a decoded record or a query holds it.
    query = Query(TaskName.SUDOKU, board)
    assert copy.deepcopy(query).payload is board
    assert pickle.loads(pickle.dumps(query)).payload is board


def test_a_refused_constructor_call_adds_no_registry_entry():
    # The bool cell equals 1, so its board by value would be this child.
    child_cells = _with_cell(PUZZLE, 2, 1).cells
    cells = tuple(PUZZLE.cells)
    refused = [cells[:80], cells[:2] + (True,) + cells[3:], cells[:80] + (10,)]
    gc.collect()
    before = set(sudoku_module._BOARDS.keys())
    assert child_cells not in before
    for bad in refused:
        with pytest.raises(ValueError):
            SudokuBoard(bad)
    assert set(sudoku_module._BOARDS.keys()) <= before


def test_the_board_registry_keeps_no_board_alive():
    """20,000 boards, built through the constructor, parse and _with_cell,
    are each registered while they live, and all gone once dropped."""
    gc.collect()
    before = set(sudoku_module._BOARDS.keys())
    boards = []
    for k in range(1, 10_001):
        cells = bytes(76) + bytes(map(int, f"{k:05d}"))
        built = SudokuBoard(cells) if k % 2 else SudokuBoard.parse(SudokuBoard(cells).render())
        boards += [built, _with_cell(built, 0, 1 + k % 9)]
    made = {board.cells for board in boards}
    assert len(made) == 20_000 and made.isdisjoint(before)
    assert all(sudoku_module._BOARDS.get(board.cells) is board for board in boards)
    del boards, built
    gc.collect()
    assert not made & set(sudoku_module._BOARDS.keys())
    assert set(sudoku_module._BOARDS.keys()) <= before


# --- task hooks ---


def test_sudoku_hooks():
    hooks = task_hooks(TaskName.SUDOKU)
    q = Query(TaskName.SUDOKU, PUZZLE)
    assert hooks.initial_state(q) == PUZZLE
    solution = solve(PUZZLE)
    assert hooks.check_answer(q, Step(solution, is_answer=True))
    assert not hooks.check_answer(q, Step(PUZZLE, is_answer=True))
    # A full consistent board that ignores the clues is not an answer.
    other = generate_full_board(rng_mod.stream(20, 0))
    assert not hooks.check_answer(q, Step(other, is_answer=True))
    with pytest.raises(ValueError):
        hooks.validate(Query(TaskName.SUDOKU, "not a board"))
