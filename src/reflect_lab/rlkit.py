"""Group-relative advantage arithmetic over episode records.

Pure functions only: normalized rewards for a group of trajectories sampled
from one query, per-step advantages as outcome plus process suffix sums,
masking of rejected-step advantages, and oracle-driven early truncation.
No optimizer or model lives here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Callable, Optional, Sequence

from .mtp import Disposition, EpisodeRecord, Outcome, Query, Step


@dataclass(frozen=True)
class TrajectoryGroup:
    """G trajectories for one query with their reward assignments.

    outcome_rewards holds one terminal reward per trajectory (0/1 under
    verifiable rewards).  process_rewards holds one real per event per
    trajectory, all zero when only outcome rewards are used.
    """

    trajectories: tuple[EpisodeRecord, ...]
    outcome_rewards: tuple[float, ...]
    process_rewards: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        g = len(self.trajectories)
        if g < 2:
            raise ValueError("a group needs at least 2 trajectories")
        if len(self.outcome_rewards) != g or len(self.process_rewards) != g:
            raise ValueError("rewards must align with trajectories")
        first_query = self.trajectories[0].query
        if any(t.query != first_query for t in self.trajectories):
            raise ValueError("all trajectories in a group must share the query")
        for record, rewards in zip(self.trajectories, self.process_rewards):
            if len(rewards) != len(record.events):
                raise ValueError("process rewards must have one entry per event")

    @property
    def query(self) -> Query:
        return self.trajectories[0].query


def group_from_records(
    records: Sequence[EpisodeRecord],
    process_rewards: Optional[Sequence[Sequence[float]]] = None,
) -> TrajectoryGroup:
    """Build a group with 0/1 outcome rewards from the records' outcomes and
    all-zero process rewards unless given."""
    outcome = tuple(1.0 if r.outcome is Outcome.CORRECT else 0.0 for r in records)
    if process_rewards is None:
        process = tuple((0.0,) * len(r.events) for r in records)
    else:
        process = tuple(tuple(float(v) for v in row) for row in process_rewards)
    return TrajectoryGroup(tuple(records), outcome, process)


@dataclass(frozen=True)
class AdvantageRow:
    """Per-event advantages for one trajectory with its step mask.

    step_masked removes the event's step from any downstream aggregate; the
    event's verification labels stay trainable even then.
    """

    advantages: tuple[float, ...]
    step_masked: tuple[bool, ...]


@dataclass(frozen=True)
class AdvantageTable:
    group: TrajectoryGroup
    rows: tuple[AdvantageRow, ...]

    def row_index(self, record: EpisodeRecord) -> int:
        """Locate a record's row, by identity first and equality second."""
        for i, candidate in enumerate(self.group.trajectories):
            if candidate is record:
                return i
        for i, candidate in enumerate(self.group.trajectories):
            if candidate == record:
                return i
        raise ValueError("record does not belong to this table's group")


def _normalize(values: Sequence[float]) -> list[float]:
    """(x - mean) / population std; all zeros when the spread is zero."""
    count = len(values)
    mean = sum(values) / count
    variance = sum((v - mean) ** 2 for v in values) / count
    if variance <= 0.0:
        return [0.0] * count
    std = math.sqrt(variance)
    return [(v - mean) / std for v in values]


def grpo_group_advantages(group: TrajectoryGroup) -> AdvantageTable:
    """Outcome rewards normalize over the group; process rewards normalize
    over every step of every trajectory pooled together.  The advantage of
    step t is the trajectory's normalized outcome reward plus the suffix sum
    of its normalized process rewards from t on.  A zero-spread reward set
    normalizes to all zeros, so uniformly rewarded groups carry no signal.
    """
    r_outcome = _normalize(group.outcome_rewards)
    flat = [v for row in group.process_rewards for v in row]
    if flat:
        flat_norm = iter(_normalize(flat))
        process_norm = [
            [next(flat_norm) for _ in row] for row in group.process_rewards
        ]
    else:
        process_norm = [[] for _ in group.process_rewards]
    rows = []
    for g, record in enumerate(group.trajectories):
        row_process = process_norm[g]
        advantages = []
        suffix = sum(row_process)
        for t in range(len(record.events)):
            advantages.append(r_outcome[g] + suffix)
            suffix -= row_process[t]
        rows.append(AdvantageRow(tuple(advantages), (False,) * len(advantages)))
    return AdvantageTable(group=group, rows=tuple(rows))


def mask_rejected_advantages(
    record: EpisodeRecord, table: AdvantageTable
) -> AdvantageTable:
    """Mask the step advantage of every rejected event of the record.

    Verification labels stay trainable on masked steps: the labels themselves
    were correct even though the step was discarded.  Traceback bookkeeping
    events re-list already-accepted parent steps and are left alone.
    Masking twice is a no-op.
    """
    g = table.row_index(record)
    row = table.rows[g]
    if len(row.advantages) != len(record.events):
        raise ValueError("table row does not align with the record's events")
    masked = tuple(
        bit or event.disposition is Disposition.REJECTED
        for bit, event in zip(row.step_masked, record.events)
    )
    new_row = replace(row, step_masked=masked)
    rows = tuple(new_row if i == g else r for i, r in enumerate(table.rows))
    return AdvantageTable(group=table.group, rows=rows)


def early_truncate(
    record: EpisodeRecord,
    oracle_prm: Callable[[Query, Any, Step], bool],
) -> EpisodeRecord:
    """Cut the record right after the first accepted step the oracle calls
    wrong, marking the outcome incorrect.

    A chain that accepted a bad step has already failed; everything after it
    is noise for training.  The answer survives only when the truncation
    point is the answer step itself.  Records with no accepted bad step are
    returned unchanged; the operation is idempotent.  A cut record is a
    training view, not one the executor writes, so corpus.record_from_json
    refuses it.
    """
    for i, event in enumerate(record.events):
        if event.disposition is not Disposition.ACCEPTED:
            continue
        if oracle_prm(record.query, event.state, event.verified.step):
            continue
        events = record.events[: i + 1]
        last_is_answer = event.verified.step.is_answer
        answer = record.answer if (last_is_answer and record.answer is not None) else None
        if (
            len(events) == len(record.events)
            and record.outcome is Outcome.INCORRECT
            and answer == record.answer
        ):
            return record
        return EpisodeRecord(
            query=record.query,
            events=events,
            answer=answer,
            outcome=Outcome.INCORRECT,
        )
    return record
