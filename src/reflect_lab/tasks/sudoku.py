"""Sudoku as a step-wise reasoning task.

States are 9x9 boards, stored as 81 bytes with 0 for blanks: a board hashes
and compares as one bytes object, holds no container for the garbage
collector to track, and hands its bytes as they are to its text and to the
solvability oracle's integers.  Builders fill a list of ints and freeze it.
A board is slotted, with no instance dict, and packs the used-value masks of
its 27 units into 54 bytes.

The expert step fills every blank whose candidate set is a singleton,
recomputing candidates after each fill; when no singleton exists it guesses
once, uniformly, at a blank with the fewest candidates.  A blank with an
empty candidate set means the branch is unsolvable and raises DeadEndError.
A board runs those sweeps at most once: it keeps their rng-free outcome
in a slot beside its text and masks, so a later call on the same board only
draws the guess.  A board derived by setting one cell (a guess, a dead-end
fill, a misfill) gets its masks from its parent's, rewriting only the cell's
row, column and box.

The rule-based verifiers check only Sudoku legality (no given modified, no
duplicate in a row, column, or block).  Solvability questions go through an
independent most-constrained-first backtracking solver kept free of the
expert-policy code path.  The solver decides every board that no completion
found so far covers; a known completion of the puzzle that agrees with every
filled cell of a board is a proof that the board is solvable.  What the
oracle learns about a puzzle is a slot of the puzzle's board, so it lives as
long as that board.

Moves share their fills: every (row, col, value) triple a builder or the
decoder makes is one of 729 module-level tuples.

One board per value: a weak registry maps 81 cells to the live board that
holds them.  While that board lives, every way of building a board (the
constructor, a child board, a forced or guessed step, a misfill, a
solution, parse, copy and pickle) returns it rather than an equal copy, so
a decoded record holds the round's own boards, masks, decisions and oracle
facts, and sibling rollouts share their children.  The registry holds no
board alive, and it takes no lock: boards are built only on the calling
thread, as the synthetic chain alone runs on engine threads.
"""

from __future__ import annotations

import struct
import weakref
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..mtp import (
    DifficultyTier,
    Query,
    Step,
    TaskHooks,
    TaskName,
    Verification,
    register_task,
    verdict,
)

# Blank cells of the puzzle per tier; ood_hard is held out of training.
SUDOKU_TIER_BLANKS: dict[DifficultyTier, tuple[int, int]] = {
    DifficultyTier.ID_EASY: (9, 35),
    DifficultyTier.ID_HARD: (36, 53),
    DifficultyTier.OOD_HARD: (54, 62),
}

_ALL_MASK = 0b1111111110  # candidate bits for values 1..9
# The values whose bits a mask sets, ascending, for every candidate mask.
_CANDIDATES: tuple[tuple[int, ...], ...] = tuple(
    tuple(v for v in range(1, 10) if mask >> v & 1) for mask in range(_ALL_MASK + 1)
)
_TEXT_OF_CELL = bytes.maketrans(bytes(range(10)), b"0123456789")
# The one-byte cells, by value: what a child board splices in.
_CELL_BYTE: tuple[bytes, ...] = tuple(bytes((v,)) for v in range(10))
# ASCII digits to cell values; every other byte to 0xFF, which no cell holds.
_CELL_OF_TEXT = bytes(ch - 48 if 48 <= ch <= 57 else 0xFF for ch in range(256))
# Blank cells to 0x00 and filled ones to 0xFF: a byte mask of the filled cells.
_FILLED = bytes.maketrans(bytes(range(10)), b"\x00" + b"\xff" * 9)
# render() text: 9 rows of 9 digits, 8 newlines.
_TEXT_LENGTH = 89
_ROW_ENDS = b"\n" * 8
# (row, column, box) of each cell index, row-major.
_UNITS: tuple[tuple[int, int, int], ...] = tuple(
    (idx // 9, idx % 9, (idx // 27) * 3 + idx % 9 // 3) for idx in range(81)
)

# The 20 other cells that share a row, column or box with each cell.
_PEERS: tuple[tuple[int, ...], ...] = tuple(
    tuple(
        j
        for j, (r, c, b) in enumerate(_UNITS)
        if j != i and (r == row or c == col or b == box)
    )
    for i, (row, col, box) in enumerate(_UNITS)
)

# Used-value bitmasks of the 27 units, rows then columns then boxes, as
# little-endian uint16: 54 bytes, where a tuple of three 9-tuples of ints
# took about 1 KB a board.
Masks = bytes
_UNIT_MASKS = struct.Struct("<27H")
# Byte offsets of each cell's row, column and box masks in Masks.
_MASK_AT: tuple[tuple[int, int, int], ...] = tuple(
    (2 * r, 18 + 2 * c, 36 + 2 * b) for r, c, b in _UNITS
)
# The 729 legal fills (row, col, value), shared by every move: the fill of
# value v at cell index idx is _FILLS[9 * idx + v - 1].
_FILLS: tuple[tuple[int, int, int], ...] = tuple(
    (idx // 9, idx % 9, v) for idx in range(81) for v in range(1, 10)
)
# The expert step's rng-free outcome on a board with a blank: the forced-fill
# step, the dead blank's (row, col), or the guess's choices (cell index and
# candidates of each most constrained blank, row-major).
Decision = Step | tuple[int, int] | list[tuple[int, tuple[int, ...]]]


class DeadEndError(Exception):
    """A blank ended up with no legal candidate: the branch cannot close."""

    def __init__(self, row: int, col: int):
        super().__init__(f"blank at ({row}, {col}) has no candidates")
        self.row = row
        self.col = col


@dataclass(frozen=True, init=False)
class SudokuBoard:
    """Row-major cells, 81 bytes in 0..9 (0 = blank).

    Any sequence of 81 ints in 0..9, bytes included, takes the same check and
    is normalized to bytes at construction, so a board built from a tuple
    equals and hashes like one built from bytes.  Equality and hash read the
    cells alone.  The board is slotted: its text, its unit masks (54 packed
    bytes, or None), the expert step's decision and the oracle's facts about
    it as a puzzle are slots, each filled at most once, on first read, by
    __getattr__.  A forced step's board is full or has no singleton left, so
    its own decision is a guess, which holds no board, and facts hold ints
    only: a board keeps at most one other board alive.  The constructor
    returns the live board with the same cells, if any, as every builder
    does (one board per value, see the module docstring); that is safe
    because a board never changes.
    """

    __slots__ = ("cells", "masks", "_text", "_expert", "_facts", "__weakref__")
    cells: bytes

    def __new__(cls, cells) -> "SudokuBoard":
        if len(cells) != 81:
            raise ValueError("a board needs exactly 81 cells")
        if any(not isinstance(v, int) or isinstance(v, bool) or not 0 <= v <= 9 for v in cells):
            raise ValueError("cell values must be ints in 0..9")
        return _unchecked_board(bytes(cells))

    def get(self, row: int, col: int) -> int:
        return self.cells[row * 9 + col]

    def with_fills(self, fills: tuple[tuple[int, int, int], ...]) -> "SudokuBoard":
        # The list takes the constructor's per-cell check, which refuses a
        # fill of a bool or a numpy scalar.
        cells = list(self.cells)
        for row, col, value in fills:
            cells[row * 9 + col] = value
        return SudokuBoard(cells)

    @property
    def full(self) -> bool:
        return 0 not in self.cells

    @property
    def blank_count(self) -> int:
        return self.cells.count(0)

    def __getattr__(self, name: str) -> object:
        """Fill an empty slot on its first read: `masks` (the unit masks, or
        None when a unit holds a duplicate), `_text` (render's text),
        `_expert` (the expert step's decision, for a board with a blank) or
        `_facts` (the oracle's facts, for a puzzle)."""
        if name == "masks":
            value = _masks(self.cells)
        elif name == "_text":
            # Every cell is a byte in 0..9, so it maps to its digit.
            digits = self.cells.translate(_TEXT_OF_CELL).decode()
            value = "\n".join([digits[r : r + 9] for r in range(0, 81, 9)])
        elif name == "_expert":
            value = _expert_decision(self)
        elif name == "_facts":
            value = _PuzzleFacts(self)
        else:
            raise AttributeError(name)
        object.__setattr__(self, name, value)
        return value

    def __reduce__(self) -> tuple:
        # A copy or an unpickled board is built by the constructor.
        return (SudokuBoard, (self.cells,))

    def render(self) -> str:
        return self._text

    @staticmethod
    def parse(text: str) -> "SudokuBoard":
        # Canonical text, as render() writes it, decodes in one translate and
        # becomes the board's text; other layouts may pad rows with whitespace.
        if len(text) == _TEXT_LENGTH and text.isascii():
            raw = text.encode()
            digits = raw.translate(_CELL_OF_TEXT, b"\n")
            if len(digits) == 81 and raw[9::10] == _ROW_ENDS and 0xFF not in digits:
                return _unchecked_board(digits, text=text)
        rows = [line.strip() for line in text.strip().splitlines() if line.strip()]
        if len(rows) != 9 or any(len(r) != 9 for r in rows):
            raise ValueError("expected 9 lines of 9 digits")
        digits = "".join(rows)
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"a board's cells are the digits 0-9, got {text!r}")
        return _unchecked_board(digits.encode().translate(_CELL_OF_TEXT))


@dataclass(frozen=True, slots=True)
class SudokuMove:
    """Fill the listed blanks; `guess` marks a non-forced fill."""

    fills: tuple[tuple[int, int, int], ...]
    guess: bool
    new_board: SudokuBoard


def _masks(cells: bytes) -> Optional[Masks]:
    """Used-value bitmasks per row/col/box, packed, or None when a unit
    holds a duplicate."""
    rows = [0] * 9
    cols = [0] * 9
    boxes = [0] * 9
    for (r, c, b), value in zip(_UNITS, cells):
        if value == 0:
            continue
        bit = 1 << value
        if (rows[r] | cols[c] | boxes[b]) & bit:
            return None
        rows[r] |= bit
        cols[c] |= bit
        boxes[b] |= bit
    return _UNIT_MASKS.pack(*rows, *cols, *boxes)


def _unit_lists(masks: Masks) -> tuple[list[int], list[int], list[int]]:
    """The row, column and box masks, unpacked into lists to update."""
    units = _UNIT_MASKS.unpack(masks)
    return list(units[:9]), list(units[9:18]), list(units[18:])


# A board's slot setters, which skip the frozen dataclass's __setattr__, and
# the masks a caller does not know (None is known: a unit holds a duplicate).
_SET_CELLS = SudokuBoard.cells.__set__
_SET_MASKS = SudokuBoard.masks.__set__
_SET_TEXT = SudokuBoard._text.__set__
_UNKNOWN = object()

# Every live board by its cells, held weakly: a dead board's entry goes with
# it (one board per value, see the module docstring).
_BOARDS: weakref.WeakValueDictionary[bytes, SudokuBoard] = weakref.WeakValueDictionary()


def _unchecked_board(
    cells: bytes, *, masks: object = _UNKNOWN, text: Optional[str] = None
) -> SudokuBoard:
    """The live board with these cells, or a new one: the one builder of
    every board, for 81 bytes known to be in 0..9 (cells the constructor
    checked, those of a board with cells set to values in 1..9, or digits
    decoded from text).  The slots the caller already knows (the masks, which
    may be None, and the text) are set here directly, replacing any equal
    value a live board holds; the others fill on first read."""
    board = _BOARDS.get(cells)
    if board is None:
        board = object.__new__(SudokuBoard)
        _SET_CELLS(board, cells)
        _BOARDS[cells] = board
    if masks is not _UNKNOWN:
        _SET_MASKS(board, masks)
    if text is not None:
        _SET_TEXT(board, text)
    return board


def _with_cell(board: SudokuBoard, idx: int, value: int) -> SudokuBoard:
    """The board with cell idx set to value (1..9), its masks derived from
    the board's in O(1): each unit of a consistent board holds the old value
    once at most, so the new board clashes exactly when a unit of the cell
    holds the new value elsewhere, and its masks are then None.  Only the
    cell's row, column and box masks are rewritten.  The child of an
    inconsistent board computes its masks when asked."""
    cells = board.cells
    child_cells = cells[:idx] + _CELL_BYTE[value] + cells[idx + 1 :]
    masks = board.masks
    if masks is None:
        return _unchecked_board(child_cells)
    keep = ~(1 << cells[idx])  # a blank clears bit 0, which no mask sets
    bit = 1 << value
    units = bytearray(masks)
    for at in _MASK_AT[idx]:
        used = (units[at] | units[at + 1] << 8) & keep
        if used & bit:
            return _unchecked_board(child_cells, masks=None)
        used |= bit
        units[at] = used & 0xFF
        units[at + 1] = used >> 8
    return _unchecked_board(child_cells, masks=bytes(units))


def consistent(board: SudokuBoard) -> bool:
    """No duplicated value in any row, column, or block."""
    return board.masks is not None


def solve(
    board: SudokuBoard, rng: Optional[np.random.Generator] = None
) -> Optional[SudokuBoard]:
    """Complete the board by most-constrained-first depth-first search.

    Returns any one completion, or None when the board is inconsistent or
    unsolvable.  With an rng, candidate values are tried in random order
    (used for board generation); otherwise ascending.
    """
    masks = board.masks
    if masks is None:
        return None
    rows, cols, boxes = _unit_lists(masks)
    cells = list(board.cells)
    blanks = [(idx, *_UNITS[idx]) for idx, v in enumerate(cells) if v == 0]
    if not _search(cells, rows, cols, boxes, blanks, rng):
        return None
    return _unchecked_board(bytes(cells))


def _search(
    cells: list[int],
    rows: list[int],
    cols: list[int],
    boxes: list[int],
    blanks: list[tuple[int, int, int, int]],
    rng: Optional[np.random.Generator],
) -> bool:
    """solve's search, filling cells and the unit masks in place.  A
    module-level function, so a call leaves no reference cycle behind.  The
    cells are a list: it indexes faster than a bytearray."""
    best = None
    best_values: tuple[int, ...] = ()
    best_count = 10
    for blank in blanks:
        idx, r, c, b = blank
        if cells[idx]:
            continue
        values = _CANDIDATES[_ALL_MASK & ~(rows[r] | cols[c] | boxes[b])]
        count = len(values)
        if count == 0:
            return False
        if count < best_count:
            best, best_values, best_count = blank, values, count
            if count == 1:
                break
    if best is None:
        return True
    best_idx, r, c, b = best
    values = best_values
    if rng is not None:
        values = [values[i] for i in rng.permutation(len(values))]
    for v in values:
        bit = 1 << v
        cells[best_idx] = v
        rows[r] |= bit
        cols[c] |= bit
        boxes[b] |= bit
        if _search(cells, rows, cols, boxes, blanks, rng):
            return True
        cells[best_idx] = 0
        rows[r] &= ~bit
        cols[c] &= ~bit
        boxes[b] &= ~bit
    return False


def generate_full_board(rng: np.random.Generator) -> SudokuBoard:
    """A uniform-ish random completed board via randomized backtracking."""
    empty = SudokuBoard(bytes(81))
    result = solve(empty, rng=rng)
    assert result is not None
    return result


def make_puzzle(full: SudokuBoard, blanks: int, rng: np.random.Generator) -> SudokuBoard:
    """Blank out `blanks` uniformly chosen cells of a completed board."""
    if not 0 <= blanks <= 81:
        raise ValueError("blanks must be in 0..81")
    positions = rng.choice(81, size=blanks, replace=False)
    cells = list(full.cells)
    for idx in positions:
        cells[int(idx)] = 0
    return SudokuBoard(bytes(cells))


def _expert_decision(board: SudokuBoard) -> Decision:
    """Fill every forced blank, recomputing candidates after each fill; with
    none forced, list the most constrained blanks.  A blank without a
    candidate is dead."""
    masks = board.masks
    if masks is None:
        # The board itself is illegal; candidates are meaningless.  Treat the
        # first blank as dead so callers handle it like any stuck branch.
        return divmod(board.cells.index(0), 9)
    rows, cols, boxes = _unit_lists(masks)
    cells = list(board.cells)
    blanks = [(idx, *_UNITS[idx]) for idx, v in enumerate(cells) if v == 0]
    fills: list[tuple[int, int, int]] = []
    # Until a sweep fills a cell, it also keeps the blanks with the fewest
    # candidates, in row-major order: the guess's choices if none is forced.
    fewest = 10
    ties: list[tuple[int, tuple[int, ...]]] = []
    while True:
        filled_one = False
        for idx, r, c, b in blanks:
            if cells[idx]:
                continue
            values = _CANDIDATES[_ALL_MASK & ~(rows[r] | cols[c] | boxes[b])]
            if not values:
                return (r, c)
            if len(values) == 1:
                v = values[0]
                cells[idx] = v
                rows[r] |= 1 << v
                cols[c] |= 1 << v
                boxes[b] |= 1 << v
                fills.append(_FILLS[9 * idx + v - 1])
                filled_one = True
            elif not fills and len(values) <= fewest:
                if len(values) < fewest:
                    fewest, ties = len(values), []
                ties.append((idx, values))
        if not filled_one:
            break
    if fills:
        new_board = _unchecked_board(bytes(cells), masks=_UNIT_MASKS.pack(*rows, *cols, *boxes))
        return Step(content=SudokuMove(tuple(fills), False, new_board))
    return ties


def sudoku_expert_step(board: SudokuBoard, rng: np.random.Generator) -> Step:
    """Fill all forced blanks, else guess once at a most-constrained blank.

    Raises DeadEndError when some blank has no candidate left.  The sweeps
    run once per board; a call draws from rng only to guess.
    """
    if board.full:
        return Step(content=board, is_answer=True)
    decision = board._expert
    if isinstance(decision, Step):
        return decision
    if isinstance(decision, tuple):
        raise DeadEndError(*decision)
    # No forced cell anywhere: guess at one of the most constrained blanks.
    pick, values = decision[int(rng.integers(len(decision)))]
    v = values[int(rng.integers(len(values)))]
    # v is a candidate, so the guessed board stays consistent.
    fill = _FILLS[9 * pick + v - 1]
    return Step(content=SudokuMove((fill,), True, _with_cell(board, pick, v)))


class SudokuExpertPolicy:
    """Expert policy; a dead-ended branch yields a deliberately illegal fill
    so that a verifier (or backtracking) can reject the branch."""

    def sample(self, state: SudokuBoard, rng: np.random.Generator) -> Step:
        try:
            return sudoku_expert_step(state, rng)
        except DeadEndError as dead:
            value = 1 + int(rng.integers(9))
            idx = dead.row * 9 + dead.col
            fill = _FILLS[9 * idx + value - 1]
            return Step(content=SudokuMove((fill,), True, _with_cell(state, idx, value)))


class SudokuTransition:
    def apply(self, state: SudokuBoard, step: Step) -> SudokuBoard:
        if step.is_answer:
            return state
        move = step.content
        if not isinstance(move, SudokuMove):
            raise ValueError("sudoku transition got a non-move step")
        return move.new_board


def _fills_well_formed(move: SudokuMove) -> bool:
    if not move.fills:
        return False
    seen = set()
    for row, col, value in move.fills:
        if not (0 <= row < 9 and 0 <= col < 9 and 1 <= value <= 9):
            return False
        if (row, col) in seen:
            return False
        seen.add((row, col))
    return True


def verify_binary_sudoku(state: SudokuBoard, step: Step) -> Verification:
    """Single label: no already-filled cell modified and the new board has
    no duplicate in any unit."""
    if step.is_answer:
        ok = (
            isinstance(step.content, SudokuBoard)
            and state.full
            and consistent(state)
            and step.content == state
        )
        return verdict(ok)
    move = step.content
    if not isinstance(move, SudokuMove) or not _fills_well_formed(move):
        return verdict(False)
    return verdict(board_extends(state, move.new_board) and consistent(move.new_board))


def sorted_fills(move: SudokuMove) -> tuple[tuple[int, int, int], ...]:
    """Fills in row-major order, the frozen labeling order."""
    return tuple(sorted(move.fills, key=lambda f: (f[0], f[1])))


def verify_detailed_sudoku(state: SudokuBoard, step: Step) -> Verification:
    """One label per filled position, row-major: the fill must target a
    blank of the old board, hold its value in the new board, and not collide
    with its value at any peer (a cell of its row, column or block) of the
    new board."""
    if step.is_answer:
        return verify_binary_sudoku(state, step)
    move = step.content
    if not isinstance(move, SudokuMove) or not _fills_well_formed(move):
        return verdict(False)
    old, new = state.cells, move.new_board.cells
    labels = []
    for row, col, value in sorted_fills(move):
        idx = row * 9 + col
        labels.append(
            old[idx] == 0
            and new[idx] == value
            and all(new[peer] != value for peer in _PEERS[idx])
        )
    return Verification(tuple(labels))


def misfill(
    move: SudokuMove,
    rng: np.random.Generator,
    require_conflict: bool = False,
) -> Optional[tuple[SudokuMove, int]]:
    """Replace one fill's value with a wrong one.

    The corrupted board is the move's board with that one value changed; for
    an honest move that is the board it was made at with the corrupted fills.
    Returns the corrupted move and the row-major label index of the
    corrupted fill.  Without require_conflict the first wrong value drawn is
    taken, so a result always comes back.  With it the replacement must
    break rule-consistency of the new board, and None is returned when no
    replacement at that position does.
    """
    fi = int(rng.integers(len(move.fills)))
    row, col, honest = move.fills[fi]
    wrong = [v for v in range(1, 10) if v != honest]
    for oi in rng.permutation(len(wrong)):
        chosen = wrong[int(oi)]
        new_board = _with_cell(move.new_board, row * 9 + col, chosen)
        if not require_conflict or new_board.masks is None:
            break
    else:
        return None
    fill = _FILLS[9 * (row * 9 + col) + chosen - 1]
    fills = tuple(fill if i == fi else f for i, f in enumerate(move.fills))
    corrupted = SudokuMove(fills, move.guess, new_board)
    label_index = sorted_fills(corrupted).index(fill)
    return (corrupted, label_index)


def gen_sudoku_query(tier: DifficultyTier, rng: np.random.Generator) -> Query:
    """Blank a random completed board down to the tier's blank count."""
    lo, hi = SUDOKU_TIER_BLANKS[tier]
    full = generate_full_board(rng)
    blanks = int(rng.integers(lo, hi + 1))
    return Query(TaskName.SUDOKU, make_puzzle(full, blanks, rng), tier)


# The solvability oracle's memory of one puzzle: at most _FACTS_COMPLETIONS
# completions and _FACTS_REFUTED refuted boards.  A state the full lists do
# not answer is searched.
_FACTS_COMPLETIONS = 32
_FACTS_REFUTED = 96


class _PuzzleFacts:
    """What the solvability oracle has learned about one puzzle: the `_facts`
    slot of its board, holding ints only, so it keeps no board alive.

    Boards are compared as 81-byte big-endian integers, one byte per cell:
    `board & givens_mask == givens` says the board keeps every given, and
    `completion & filled == board`, with `filled` the byte mask of the
    board's filled cells, says the completion agrees with every one of them.
    """

    __slots__ = ("givens", "givens_mask", "completions", "unsolvable")

    def __init__(self, puzzle: SudokuBoard) -> None:
        cells = puzzle.cells
        self.givens = int.from_bytes(cells, "big")
        self.givens_mask = int.from_bytes(cells.translate(_FILLED), "big")
        # Completions of the puzzle found by solve, and boards it refuted.
        self.completions: list[int] = []
        self.unsolvable: set[int] = set()


def board_extends(puzzle: SudokuBoard, board: SudokuBoard) -> bool:
    """Every given (nonzero) cell of the puzzle is preserved in the board."""
    return all(
        given == cell
        for given, cell in zip(puzzle.cells, board.cells)
        if given != 0
    )


def _sudoku_check(query: Query, answer: Step) -> bool:
    board = answer.content
    return (
        answer.is_answer
        and isinstance(board, SudokuBoard)
        and board.full
        and consistent(board)
        and board_extends(query.payload, board)
    )


def _sudoku_validate(query: Query) -> None:
    if not isinstance(query.payload, SudokuBoard):
        raise ValueError("sudoku payload must be a board")
    if not consistent(query.payload):
        raise ValueError("sudoku payload must be a consistent board")


def _sudoku_polarity(query: Query, state: SudokuBoard) -> bool:
    """consistent(state), board_extends(puzzle, state) and solve(state) is
    not None.

    A completion found earlier for the same puzzle that agrees with every
    filled cell proves the state solvable; only states that no known
    completion covers are searched, and each search's answer is kept while
    the puzzle's lists have room.
    """
    facts = query.payload._facts
    cells = state.cells
    board = int.from_bytes(cells, "big")
    if board & facts.givens_mask != facts.givens:
        return False
    filled = int.from_bytes(cells.translate(_FILLED), "big")
    for completion in facts.completions:
        if completion & filled == board:
            return True
    if board in facts.unsolvable or not consistent(state):
        return False
    solution = solve(state)
    if solution is None:
        if len(facts.unsolvable) < _FACTS_REFUTED:
            facts.unsolvable.add(board)
        return False
    if len(facts.completions) < _FACTS_COMPLETIONS:
        facts.completions.append(int.from_bytes(solution.cells, "big"))
    return True


def _sudoku_move_to_json(move: SudokuMove) -> dict:
    return {
        "fills": [list(f) for f in move.fills],
        "guess": move.guess,
        "board": move.new_board.render(),
    }


def _fill_from_json(fill: list) -> tuple[int, int, int]:
    """A stored fill; one of three ints in range is the shared triple, and
    any other value converts (or fails) element by element."""
    r, c, v = fill
    if type(r) is type(c) is type(v) is int and 0 <= r < 9 and 0 <= c < 9 and 1 <= v <= 9:
        return _FILLS[81 * r + 9 * c + v - 1]
    return (int(r), int(c), int(v))


def _sudoku_move_from_json(obj: dict) -> SudokuMove:
    return SudokuMove(
        fills=tuple(map(_fill_from_json, obj["fills"])),
        guess=bool(obj["guess"]),
        new_board=SudokuBoard.parse(obj["board"]),
    )


register_task(
    TaskName.SUDOKU,
    TaskHooks(
        initial_state=lambda query: query.payload,
        check_answer=_sudoku_check,
        validate=_sudoku_validate,
        state_type=SudokuBoard,
        render_state=SudokuBoard.render,
        polarity=_sudoku_polarity,
        move_to_json=_sudoku_move_to_json,
        move_from_json=_sudoku_move_from_json,
        payload_to_json=SudokuBoard.render,
        payload_from_json=SudokuBoard.parse,
        answer_to_json=SudokuBoard.render,
        answer_from_json=SudokuBoard.parse,
        grid_key=lambda puzzle: (puzzle.blank_count,),
        grid_header="blanks",
        gen_query=gen_sudoku_query,
        expert_policy=SudokuExpertPolicy(),
        transition=SudokuTransition(),
        binary_rule=verify_binary_sudoku,
        detailed_rule=verify_detailed_sudoku,
        corrupt=lambda state, move, rng: misfill(move, rng)[0],
    ),
)
