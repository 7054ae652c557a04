"""Long multiplication as a step-wise reasoning task.

A state is (x, y, z) standing for the value x*y + z.  One step picks a digit
value u present in y, zeroes every occurrence of u in y, and adds the matching
contributions u*x*10^i to the running sum z.  The state is terminal when x or
y is zero; the answer is then z.  An honestly computed step preserves x*y + z,
which is what the rule-based binary verifier checks.

The expert scans y's digits once per step and builds its move from that
scan through the same arithmetic as `make_move`.  Every state and move is
built by its public constructor, and `MultState` keeps its checks: plain
nonnegative ints pass one cheap test, anything else the per-field check.
"""

from __future__ import annotations

from dataclasses import dataclass

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

# Digits of the greater operand per tier; ood_hard is held out of training.
MULT_TIER_DIGITS: dict[DifficultyTier, tuple[int, int]] = {
    DifficultyTier.ID_EASY: (1, 5),
    DifficultyTier.ID_HARD: (6, 8),
    DifficultyTier.OOD_HARD: (9, 10),
}


@dataclass(frozen=True, slots=True)
class MultState:
    x: int
    y: int
    z: int

    def __post_init__(self) -> None:
        x, y, z = self.x, self.y, self.z
        if type(x) is int and type(y) is int and type(z) is int and x >= 0 and y >= 0 and z >= 0:
            return
        for name in ("x", "y", "z"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise ValueError(f"{name} must be a nonnegative int")

    @property
    def terminal(self) -> bool:
        return self.x == 0 or self.y == 0

    def value(self) -> int:
        return self.x * self.y + self.z


@dataclass(frozen=True, slots=True)
class MultMove:
    """Eliminate digit value `digit` from one operand at `positions`
    (units place = 0).

    side names the operand being reduced; delta is digit times the other
    operand; contributions[i] is the amount added to z for positions[i];
    new_state is the full claimed result, applied as written.  The expert
    always reduces y (a fixed order keeps it deterministic), but moves on
    either side verify identically.
    """

    side: str
    digit: int
    positions: tuple[int, ...]
    delta: int
    contributions: tuple[int, ...]
    new_state: MultState


def nonzero_digits(value: int) -> dict[int, list[int]]:
    """Map digit value -> positions where it occurs, low position first."""
    out: dict[int, list[int]] = {}
    pos = 0
    while value:
        d = value % 10
        if d:
            out.setdefault(d, []).append(pos)
        value //= 10
        pos += 1
    return out


def make_move(state: MultState, digit: int, side: str = "y") -> MultMove:
    """Honest elimination of every occurrence of `digit` in the named
    operand."""
    if state.terminal:
        raise ValueError("state is terminal; no elimination move exists")
    if side not in ("x", "y"):
        raise ValueError("side must be 'x' or 'y'")
    operand = state.y if side == "y" else state.x
    occurrences = nonzero_digits(operand).get(digit)
    if not occurrences:
        raise ValueError(f"digit {digit} does not occur in {side} = {operand}")
    return _eliminate(state, digit, tuple(occurrences), side)


def _eliminate(state: MultState, digit: int, positions: tuple[int, ...], side: str) -> MultMove:
    """The honest move zeroing `digit` at `positions` of the named operand,
    which the caller has found there."""
    powers = [10**p for p in positions]
    delta = digit * (state.x if side == "y" else state.y)
    contributions = tuple(delta * power for power in powers)
    z = state.z + sum(contributions)
    removed = digit * sum(powers)
    if side == "y":
        new_state = MultState(state.x, state.y - removed, z)
    else:
        new_state = MultState(state.x - removed, state.y, z)
    return MultMove(side, digit, positions, delta, contributions, new_state)


def mult_expert_step(state: MultState) -> Step:
    """Deterministic expert: eliminate the smallest digit value left in y,
    or emit the answer once the state is terminal.  It draws nothing, so it
    takes no generator."""
    if state.terminal:
        return Step(content=state.z, is_answer=True)
    digits = nonzero_digits(state.y)
    smallest = min(digits)
    return Step(content=_eliminate(state, smallest, tuple(digits[smallest]), "y"))


class MultExpertPolicy:
    def sample(self, state: MultState, rng: np.random.Generator) -> Step:
        return mult_expert_step(state)


class MultTransition:
    """Applies a move exactly as written; arithmetic errors are the
    verifier's problem, not the transition's."""

    def apply(self, state: MultState, step: Step) -> MultState:
        if step.is_answer:
            return state
        move = step.content
        if not isinstance(move, MultMove):
            raise ValueError("mult transition got a non-move step")
        return move.new_state


def verify_binary_mult(state: MultState, step: Step) -> Verification:
    """Single label: does the step preserve the running value x*y + z?

    Answer steps are positive iff proposed at a terminal state with the
    correct accumulated value.
    """
    if step.is_answer:
        return verdict(state.terminal and step.content == state.z)
    move = step.content
    if not isinstance(move, MultMove):
        return verdict(False)
    return verdict(move.new_state.value() == state.value())


def verify_detailed_mult(state: MultState, step: Step) -> Verification:
    """One label per elemental computation, in frozen order: the unit
    product delta = digit * other-operand, then each positional contribution
    (in the move's stated position order, low first for honest moves), then
    the running-sum update."""
    if step.is_answer:
        return verify_binary_mult(state, step)
    move = step.content
    if (
        not isinstance(move, MultMove)
        or move.side not in ("x", "y")
        or not move.positions
        or len(move.positions) != len(move.contributions)
    ):
        return verdict(False)
    operand = state.y if move.side == "y" else state.x
    other = state.x if move.side == "y" else state.y
    new_operand = move.new_state.y if move.side == "y" else move.new_state.x
    digit, delta = move.digit, move.delta
    labels = [delta == digit * other]
    for pos, contribution in zip(move.positions, move.contributions):
        power = 10**pos
        labels.append(
            operand // power % 10 == digit
            and new_operand // power % 10 == 0
            and contribution == delta * power
        )
    labels.append(move.new_state.z == state.z + sum(move.contributions))
    return Verification(tuple(labels))


def perturb_contribution(
    state: MultState, move: MultMove, rng: np.random.Generator
) -> tuple[MultMove, int]:
    """Corrupt one decimal digit of one contribution, propagating the wrong
    value into the claimed running sum (the corrupted reasoner believes its
    own arithmetic).  Returns the move and the detailed-label index of the
    corrupted element."""
    ci = int(rng.integers(len(move.contributions)))
    value = move.contributions[ci]
    n_digits = len(str(value))
    dpos = int(rng.integers(n_digits))
    power = 10**dpos
    old_digit = value // power % 10
    # The pick-th digit other than old_digit.
    pick = int(rng.integers(9))
    new_digit = pick + (pick >= old_digit)
    corrupted = value + (new_digit - old_digit) * power
    contributions = tuple(
        corrupted if i == ci else c for i, c in enumerate(move.contributions)
    )
    new_state = MultState(
        move.new_state.x, move.new_state.y, state.z + sum(contributions)
    )
    corrupted_move = MultMove(
        move.side, move.digit, move.positions, move.delta, contributions, new_state
    )
    return (corrupted_move, 1 + ci)


def _random_with_digits(digits: int, rng: np.random.Generator) -> int:
    if digits == 1:
        return int(rng.integers(0, 10))
    return int(rng.integers(10 ** (digits - 1), 10**digits))


def gen_mult_query(tier: DifficultyTier, rng: np.random.Generator) -> Query:
    """Draw an operand pair whose greater operand has the tier's digits."""
    lo, hi = MULT_TIER_DIGITS[tier]
    big_digits = int(rng.integers(lo, hi + 1))
    small_digits = int(rng.integers(1, big_digits + 1))
    big = _random_with_digits(big_digits, rng)
    small = _random_with_digits(small_digits, rng)
    pair = (big, small) if rng.random() < 0.5 else (small, big)
    return Query(TaskName.MULT, pair, tier)


def _mult_initial(query: Query) -> MultState:
    x, y = query.payload
    return MultState(x, y, 0)


def _mult_check(query: Query, answer: Step) -> bool:
    x, y = query.payload
    return answer.is_answer and answer.content == x * y


def _mult_validate(query: Query) -> None:
    payload = query.payload
    if (
        not isinstance(payload, tuple)
        or len(payload) != 2
        or any(not isinstance(v, int) or isinstance(v, bool) or v < 0 for v in payload)
    ):
        raise ValueError("mult payload must be a pair of nonnegative ints")


def _mult_polarity(query: Query, state: MultState) -> bool:
    x, y = query.payload
    return state.value() == x * y


def render_mult_state(state: MultState) -> str:
    return f"{state.x}*{state.y}+{state.z}"


def parse_mult_state(text: str) -> MultState:
    x_part, _, rest = text.partition("*")
    y_part, _, z_part = rest.partition("+")
    parts = (x_part, y_part, z_part)
    if not all(part.isascii() and part.isdigit() for part in parts):
        raise ValueError(f"a mult state is x*y+z in the digits 0-9, got {text!r}")
    return MultState(*map(int, parts))


def _mult_move_to_json(move: MultMove) -> dict:
    return {
        "side": move.side,
        "digit": move.digit,
        "positions": list(move.positions),
        "delta": move.delta,
        "contributions": list(move.contributions),
        "new_state": render_mult_state(move.new_state),
    }


def _mult_move_from_json(obj: dict) -> MultMove:
    if obj["side"] not in ("x", "y"):
        raise ValueError(f"side must be 'x' or 'y', got {obj['side']!r}")
    return MultMove(
        side=obj["side"],
        digit=int(obj["digit"]),
        positions=tuple(map(int, obj["positions"])),
        delta=int(obj["delta"]),
        contributions=tuple(map(int, obj["contributions"])),
        new_state=parse_mult_state(obj["new_state"]),
    )


def _mult_payload_from_json(obj: list) -> tuple[int, int]:
    x, y = obj
    return (int(x), int(y))


def _mult_grid_key(payload: tuple[int, int]) -> tuple[int, int]:
    """(y digit count, x digit count)."""
    x, y = payload
    return (len(str(y)), len(str(x)))


register_task(
    TaskName.MULT,
    TaskHooks(
        initial_state=_mult_initial,
        check_answer=_mult_check,
        validate=_mult_validate,
        state_type=MultState,
        render_state=render_mult_state,
        polarity=_mult_polarity,
        move_to_json=_mult_move_to_json,
        move_from_json=_mult_move_from_json,
        payload_to_json=list,
        payload_from_json=_mult_payload_from_json,
        answer_from_json=int,
        grid_key=_mult_grid_key,
        grid_header="y_digits,x_digits",
        gen_query=gen_mult_query,
        expert_policy=MultExpertPolicy(),
        transition=MultTransition(),
        binary_rule=verify_binary_mult,
        detailed_rule=verify_detailed_mult,
        corrupt=lambda state, move, rng: perturb_contribution(state, move, rng)[0],
    ),
)
