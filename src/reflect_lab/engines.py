"""The reflective executor: one self-verifying loop for every mode.

`run_rtbs` drives a self-verifying policy.  Proposals are verified while the
reflective budget lasts; once it is spent the run reverts to non-reflective
behavior (every later proposal is accepted unverified).  Each non-root state
gets `rtbs_width` proposal attempts, and a state that exhausts them hands the
rejection back up the accepted chain.  The three modes are configurations of
this one loop, built by `mode_config`: none verifies nothing, rmtp (retry in
place) takes a width no state can reach, and rtbs backtracks at width m.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from .mtp import (
    UNVERIFIED,
    Disposition,
    EpisodeRecord,
    Event,
    Outcome,
    Query,
    SelfVerifyingInterface,
    Step,
    TransitionInterface,
    VerifiedStep,
    task_hooks,
)


@dataclass(frozen=True)
class ReflectConfig:
    """Budgets and width for the reflective executor.

    reflective_budget counts verified proposals; after that many the run
    stops verifying.  total_budget counts proposals of any kind.  rtbs_width
    is the per-state attempt cap.  root_unlimited keeps the root query
    exempt from the attempt cap (the deployed behavior); the synthetic
    validator turns it off to match the closed-form recursion, which charges
    the root exactly rtbs_width attempts like any other state.
    """

    reflective_budget: int
    total_budget: int
    rtbs_width: int
    root_unlimited: bool = True

    def __post_init__(self) -> None:
        if self.reflective_budget < 0:
            raise ValueError("reflective_budget must be >= 0")
        if self.total_budget < 1:
            raise ValueError("total_budget must be >= 1")
        if self.rtbs_width < 1:
            raise ValueError("rtbs_width must be >= 1")


MODES = ("none", "rmtp", "rtbs")


def mode_config(
    mode: str,
    m: Optional[int],
    reflective_budget: int,
    total_budget: int,
    root_unlimited: bool = True,
) -> ReflectConfig:
    """The run_rtbs configuration of one executor mode.

    none verifies nothing (reflective budget 0).  rmtp takes width
    total_budget + 1, which no state can reach, so a rejection is always
    retried in place.  rtbs backtracks at width m.  m is read in rtbs mode
    only.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "rtbs" and (m is None or m < 1):
        raise ValueError("rtbs mode needs a width m >= 1")
    return ReflectConfig(
        reflective_budget=0 if mode == "none" else reflective_budget,
        total_budget=total_budget,
        rtbs_width=m if mode == "rtbs" else total_budget + 1,
        root_unlimited=root_unlimited,
    )


def run_rtbs(
    self_verifying: SelfVerifyingInterface,
    transition: TransitionInterface,
    query: Query,
    config: ReflectConfig,
    rng: np.random.Generator,
) -> EpisodeRecord:
    """Self-verifying search with a per-state attempt cap.

    Run it with a `mode_config` configuration; every mode is this loop.

    Each accepted step pushes (parent state, attempt counter, step) and
    resets the counter.  When a non-root state collects `rtbs_width` rejected
    attempts the rejection propagates upward: frames are popped, one
    TRACEBACK event per popped level, until an ancestor with spare attempts
    is restored.  The popped frame's accepted step counts as the attempt that
    failed, so no non-root state ever sees more than `rtbs_width` proposals.
    Root attempts are unlimited while the budget lasts unless
    `config.root_unlimited` is off, in which case an exhausted root ends the
    episode with no answer.

    Only proposals are charged against total_budget; traceback events are
    bookkeeping.  After the reflective budget is spent, proposals are no
    longer verified and the run descends non-reflectively.
    """
    hooks = task_hooks(query.task)
    hooks.validate(query)
    state = hooks.initial_state(query)
    # One (parent state, attempts used there, step taken from it) frame per
    # accepted link of the current chain, oldest first.
    stack: list[tuple[Any, int, Step]] = []
    events: list[Event] = []
    attempts = 0
    verified_used = 0
    proposals = 0
    answer: Optional[Step] = None
    root_exhausted = False
    while proposals < config.total_budget:
        step = self_verifying.sample(state, rng, attempts)
        proposals += 1
        attempts += 1
        if verified_used < config.reflective_budget:
            verification = self_verifying.verify(state, step, rng)
            verified_used += 1
        else:
            verification = UNVERIFIED
        vstep = VerifiedStep(step, verification)
        if not verification.rejected:
            events.append(Event(state, vstep, Disposition.ACCEPTED))
            if step.is_answer:
                answer = step
                break
            stack.append((state, attempts, step))
            state = transition.apply(state, step)
            attempts = 0
            continue
        events.append(Event(state, vstep, Disposition.REJECTED))
        # A non-root state with its attempts spent hands the rejection up
        # until an ancestor has one to spare or the root is reached.
        while attempts >= config.rtbs_width and stack:
            state, attempts, parent_step = stack.pop()
            events.append(Event(state, VerifiedStep(parent_step), Disposition.TRACEBACK))
        # A capped root with its attempts spent, whether it was rejected
        # itself or popped back to, ends the episode; an unlimited one retries.
        if attempts >= config.rtbs_width and not config.root_unlimited:
            root_exhausted = True
            break
    if answer is not None:
        outcome = Outcome.CORRECT if hooks.check_answer(query, answer) else Outcome.INCORRECT
    elif not root_exhausted:  # the loop ran out of budget
        outcome = Outcome.BUDGET_EXHAUSTED
    else:
        outcome = Outcome.INCORRECT
    return EpisodeRecord(query, tuple(events), answer, outcome)
