"""Concrete tasks: lookups into the per-task records, verifier adapters,
noise injection, and ground-truth oracles.

Each task module defines its record (`mtp.TaskHooks`) and registers it when
imported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ..mtp import (
    DifficultyTier,
    PolicyInterface,
    Query,
    Step,
    TaskName,
    TransitionInterface,
    Verification,
    VerifierInterface,
    state_hooks,
    task_hooks,
)
# Importing the task modules registers their records; these names are
# re-exported for callers that import them from the package.
from .mult import MULT_TIER_DIGITS, parse_mult_state
from .sudoku import SUDOKU_TIER_BLANKS, generate_full_board, make_puzzle

TRAINING_TIERS: tuple[DifficultyTier, ...] = (
    DifficultyTier.ID_EASY,
    DifficultyTier.ID_HARD,
)


def _required(task: TaskName, field: str, what: str) -> Any:
    value = getattr(task_hooks(task), field)
    if value is None:
        raise ValueError(f"no {what} for task {task!r}")
    return value


def gen_query(task: TaskName, tier: DifficultyTier, rng: np.random.Generator) -> Query:
    """Draw one query in the tier's difficulty range."""
    return _required(task, "gen_query", "query generator")(tier, rng)


def expert_policy(task: TaskName) -> PolicyInterface:
    return _required(task, "expert_policy", "expert policy")


def transition_for(task: TaskName) -> TransitionInterface:
    return task_hooks(task).transition


@dataclass(frozen=True)
class RuleVerifier:
    """VerifierInterface over a pure (state, step) -> Verification rule."""

    rule: Callable[[Any, Step], Verification]

    def verify(self, state: Any, step: Step, rng: np.random.Generator) -> Verification:
        return self.rule(state, step)


def binary_verifier(task: TaskName) -> RuleVerifier:
    return RuleVerifier(_required(task, "binary_rule", "rule verifier"))


def detailed_verifier(task: TaskName) -> RuleVerifier:
    return RuleVerifier(_required(task, "detailed_rule", "rule verifier"))


@dataclass(frozen=True)
class NoisyPolicy:
    """Wraps a policy: with probability error_prob a non-answer step is
    corrupted by the record of the state's task (Mult: one contribution
    digit; Sudoku: one fill value).  Answer steps, and steps of tasks
    without a corruption, are never corrupted.  With error_prob 0 the
    wrapper draws nothing extra, so it is behaviorally identical to the base
    policy."""

    base: PolicyInterface
    error_prob: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.error_prob <= 1.0:
            raise ValueError("error_prob must be in [0, 1]")

    def sample(self, state: Any, rng: np.random.Generator) -> Step:
        step = self.base.sample(state, rng)
        if step.is_answer or self.error_prob <= 0.0 or rng.random() >= self.error_prob:
            return step
        hooks = state_hooks(state)
        if hooks is None or hooks.corrupt is None:
            return step
        return Step(content=hooks.corrupt(state, step.content, rng))


@dataclass(frozen=True)
class NoisyVerifier:
    """Flips the base verifier's overall verdict: a passing step is failed
    with probability e_minus (one uniformly chosen label turns negative), a
    failing step is passed with probability e_plus (all labels turn
    positive).  A zero rate draws nothing, so at rates 0 the wrapper is
    behaviorally identical to the base verifier."""

    base: VerifierInterface
    e_minus: float
    e_plus: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.e_minus <= 1.0 or not 0.0 <= self.e_plus <= 1.0:
            raise ValueError("error rates must be in [0, 1]")

    def verify(self, state: Any, step: Step, rng: np.random.Generator) -> Verification:
        truth = self.base.verify(state, step, rng)
        if not truth.labels:
            return truth
        if truth.rejected:
            if self.e_plus > 0.0 and rng.random() < self.e_plus:
                return Verification(tuple(True for _ in truth.labels))
            return truth
        if self.e_minus > 0.0 and rng.random() < self.e_minus:
            labels = list(truth.labels)
            labels[int(rng.integers(len(labels)))] = False
            return Verification(tuple(labels))
        return truth


# The benchmark calls both names and patches corpus.make_noisy_policy.
make_noisy_policy = NoisyPolicy
make_noisy_verifier = NoisyVerifier


def state_polarity(query: Query, state: Any) -> bool:
    """Ground truth: can this state still reach a correct answer?"""
    return task_hooks(query.task).polarity(query, state)


def step_leads_positive(query: Query, state: Any, step: Step) -> bool:
    """Ground truth at step level: does applying the step keep a correct
    answer reachable?  Answer steps are judged by the answer oracle."""
    if step.is_answer:
        return task_hooks(query.task).check_answer(query, step)
    new_state = transition_for(query.task).apply(state, step)
    return state_polarity(query, new_state)


def step_passes_rule(query: Query, state: Any, step: Step) -> bool:
    """The task's exact binary rule as an oracle: does it accept the step?"""
    return not _required(query.task, "binary_rule", "rule verifier")(state, step).rejected


@dataclass(frozen=True)
class OracleVerifier:
    """Single-label verifier that rejects exactly the steps that lead to a
    dead state.  Needs the query for ground truth, so it is built per
    episode."""

    query: Query

    def verify(self, state: Any, step: Step, rng: np.random.Generator) -> Verification:
        return Verification((step_leads_positive(self.query, state, step),))
