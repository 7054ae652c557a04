"""Core vocabulary for step-wise reasoning episodes.

A reasoning process is a chain of states.  A policy proposes the next step
from the current state, a deterministic transition applies it, and the chain
ends when a step is flagged as the final answer.  A verifier may attach a
list of binary labels to each proposed step; any negative label rejects the
step and leaves the state unchanged.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Optional, Protocol

import numpy as np


class TaskName(str, enum.Enum):
    SYNTHETIC = "synthetic"
    MULT = "mult"
    SUDOKU = "sudoku"


class DifficultyTier(str, enum.Enum):
    """Query difficulty buckets; the hardest bucket is held out of training."""

    ID_EASY = "id_easy"
    ID_HARD = "id_hard"
    OOD_HARD = "ood_hard"


@dataclass(frozen=True, slots=True)
class Query:
    """A problem instance.  The payload shape is task-specific."""

    task: TaskName
    payload: Any
    tier: Optional[DifficultyTier] = None


@dataclass(frozen=True, slots=True)
class Step:
    """One proposed reasoning step.  `is_answer` marks a terminal step."""

    content: Any
    is_answer: bool = False


@dataclass(frozen=True, slots=True)
class Verification:
    """Ordered binary labels for one step, each a bool: True is positive,
    False negative; any negative label rejects the step.

    An empty tuple means the step was not verified at all (non-reflective).
    """

    labels: tuple[bool, ...] = ()

    @property
    def rejected(self) -> bool:
        return False in self.labels


@dataclass(frozen=True, slots=True)
class VerifiedStep:
    step: Step
    verification: Verification = Verification()


class Disposition(str, enum.Enum):
    ACCEPTED = "accepted"
    REJECTED = "rejected"
    TRACEBACK = "traceback"


@dataclass(frozen=True, slots=True)
class Event:
    """One entry of an episode log: the state seen, the step, the outcome.

    For TRACEBACK events the step is the previously accepted step that is
    being recursively rejected, and the state is the ancestor being restored.
    """

    state: Any
    verified: VerifiedStep
    disposition: Disposition


class Outcome(str, enum.Enum):
    CORRECT = "correct"
    INCORRECT = "incorrect"
    BUDGET_EXHAUSTED = "budget_exhausted"


@dataclass(frozen=True, slots=True)
class EpisodeRecord:
    query: Query
    events: tuple[Event, ...]
    answer: Optional[Step]
    outcome: Outcome


class PolicyInterface(Protocol):
    def sample(self, state: Any, rng: np.random.Generator) -> Step: ...


class VerifierInterface(Protocol):
    def verify(
        self, state: Any, step: Step, rng: np.random.Generator
    ) -> Verification: ...


class SelfVerifyingInterface(VerifierInterface, Protocol):
    """A policy that verifies its own proposals: what the executor drives.

    `attempt` is how many proposals the executor has charged to the state
    so far: 0 at a fresh state, the stored count at a state a traceback
    restores, and past the width at an unlimited root.  A per-attempt rate
    table reads its row there, so both engines run every law.
    """

    def sample(self, state: Any, rng: np.random.Generator, attempt: int) -> Step: ...


class TransitionInterface(Protocol):
    def apply(self, state: Any, step: Step) -> Any: ...


@dataclass(frozen=True)
class SelfVerifying:
    """A policy bundled with its verifier (a self-verifying policy)."""

    policy: PolicyInterface
    verifier: VerifierInterface

    def sample(self, state: Any, rng: np.random.Generator, attempt: int) -> Step:
        return self.policy.sample(state, rng)

    def verify(
        self, state: Any, step: Step, rng: np.random.Generator
    ) -> Verification:
        return self.verifier.verify(state, step, rng)


def _same(value: Any) -> Any:
    return value


@dataclass(frozen=True)
class TaskHooks:
    """Everything the package knows about one task, in one record.

    Each task module registers its record at import time.  Every task has a
    transition, so every stored episode record is decoded by replaying its
    events.  The fields after grid_header exist for rule-checkable tasks only
    and are None elsewhere.
    """

    # Episode: root state of a query, the transition that applies a step,
    # final-answer oracle, and a payload check that raises ValueError.
    initial_state: Callable[[Query], Any]
    transition: TransitionInterface
    check_answer: Callable[[Query, Step], bool]
    validate: Callable[[Query], None]
    # State: its class (state_hooks finds the record by it), its stable text
    # form in JSONL, and the ground-truth oracle "can this state still reach a
    # correct answer of the query?".
    state_type: type
    render_state: Callable[[Any], str]
    polarity: Callable[[Query, Any], bool]
    # JSON codec of moves (non-answer step contents), query payloads and
    # answers; payloads and answers default to being their own JSON.
    move_to_json: Callable[[Any], Any]
    move_from_json: Callable[[Any], Any]
    payload_to_json: Callable[[Any], Any] = _same
    payload_from_json: Callable[[Any], Any] = _same
    answer_to_json: Callable[[Any], Any] = _same
    answer_from_json: Callable[[Any], Any] = _same
    # Reflection-frequency grid: a payload's cell key, a tuple with one field
    # a column, and the key's CSV header.
    grid_key: Callable[[Any], tuple] = lambda payload: (payload,)
    grid_header: str = "key"
    # gen_query(tier, rng), the expert policy, the exact binary and detailed
    # rules, and corrupt(state, move, rng), which returns a wrong version of
    # an honest move for noisy policies.
    gen_query: Optional[Callable[[DifficultyTier, np.random.Generator], Query]] = None
    expert_policy: Optional[PolicyInterface] = None
    binary_rule: Optional[Callable[[Any, Step], Verification]] = None
    detailed_rule: Optional[Callable[[Any, Step], Verification]] = None
    corrupt: Optional[Callable[[Any, Any, np.random.Generator], Any]] = None


_TASK_HOOKS: dict[TaskName, TaskHooks] = {}
_HOOKS_BY_STATE_TYPE: dict[type, TaskHooks] = {}


def register_task(task: TaskName, hooks: TaskHooks) -> None:
    _TASK_HOOKS[task] = hooks
    _HOOKS_BY_STATE_TYPE[hooks.state_type] = hooks


def task_hooks(task: TaskName) -> TaskHooks:
    try:
        return _TASK_HOOKS[task]
    except KeyError:
        raise KeyError(f"no hooks registered for task {task!r}") from None


def state_hooks(state: Any) -> Optional[TaskHooks]:
    """The record of the task whose states have this exact type, if any."""
    return _HOOKS_BY_STATE_TYPE.get(type(state))
