"""Measurement over episode logs: verifier error rates, reflection
frequency, accuracy by difficulty tier, and theory-vs-Monte-Carlo reports.

All aggregations are order-independent and operate on plain EpisodeRecords,
so logs can be merged from any number of runs before measuring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional, Sequence

from . import rng as rng_mod
from .mtp import Disposition, EpisodeRecord, Outcome, Query, Step, TaskName, task_hooks
from .sim import SimResult, simulate_accuracy, wilson_ci
from .theory import SimplifiedParams, rho_nonreflective, rho_rmtp, rho_rtbs


@dataclass(frozen=True)
class ErrorEstimate:
    """Measured verifier error rates over first attempts.

    e_minus_hat: fraction of oracle-positive first attempts that were
    rejected.  e_plus_hat: fraction of oracle-negative first attempts that
    were accepted.  Either is None when its denominator is zero; zero is
    a measurement, None is the absence of one.
    """

    e_plus_hat: Optional[float]
    e_minus_hat: Optional[float]
    n_first_attempts: int
    n_oracle_positive: int
    n_oracle_negative: int


def estimate_verification_errors(
    records: Iterable[EpisodeRecord],
    oracle: Callable[[Query, Any, Step], bool],
) -> ErrorEstimate:
    """Compare the run's verification decisions against an oracle.

    Only verified proposals count (no verdict, nothing to compare), and only
    the first attempt at each state: retries after a rejection at the same
    state would be correlated observations of the same verdict.  States are
    keyed by (episode, chain depth, state), and two task states are equal
    exactly when their renderings are, so a backtracking revisit of an
    unchanged state does not count twice but a different branch at the same
    depth does.
    """
    n_pos = 0
    n_neg = 0
    rejected_pos = 0
    accepted_neg = 0
    for record in records:
        seen: set[tuple[int, Any]] = set()
        depth = 0
        for event in record.events:
            if event.disposition is Disposition.TRACEBACK:
                depth -= 1
                continue
            verified = event.verified
            if verified.verification.labels:
                key = (depth, event.state)
                if key not in seen:
                    seen.add(key)
                    truth = oracle(record.query, event.state, verified.step)
                    rejected = verified.verification.rejected
                    if truth:
                        n_pos += 1
                        rejected_pos += int(rejected)
                    else:
                        n_neg += 1
                        accepted_neg += int(not rejected)
            if (
                event.disposition is Disposition.ACCEPTED
                and not verified.step.is_answer
            ):
                depth += 1
    return ErrorEstimate(
        e_plus_hat=(accepted_neg / n_neg) if n_neg else None,
        e_minus_hat=(rejected_pos / n_pos) if n_pos else None,
        n_first_attempts=n_pos + n_neg,
        n_oracle_positive=n_pos,
        n_oracle_negative=n_neg,
    )


@dataclass(frozen=True)
class GridCell:
    verified: int
    total: int

    @property
    def ratio(self) -> float:
        return self.verified / self.total if self.total else 0.0


@dataclass
class FrequencyGrid:
    """How often steps carry non-empty verification, per difficulty cell.

    Cells are keyed by the task record's grid_key, a tuple with one field a
    column of the CSV header: Mult cells are (y digit count, x digit count),
    Sudoku cells (blank count,), and the synthetic task keys on (payload,).
    """

    task: TaskName
    cells: dict[tuple, GridCell]

    def to_csv(self) -> str:
        lines = [f"{task_hooks(self.task).grid_header},verified,total,pct,ratio"]
        for key in sorted(self.cells):
            cell = self.cells[key]
            lines.append(
                f"{','.join(map(str, key))},{cell.verified},{cell.total},"
                f"{100.0 * cell.ratio:.1f},{cell.ratio!r}"
            )
        return "\n".join(lines) + "\n"


def reflection_frequency(records: Iterable[EpisodeRecord]) -> FrequencyGrid:
    """Percentage of proposal events with non-empty verification per cell."""
    task: Optional[TaskName] = None
    counts: dict[tuple, list[int]] = {}
    for record in records:
        if task is None:
            task = record.query.task
        elif task is not record.query.task:
            raise ValueError("all records in one grid must share a task")
        key = task_hooks(task).grid_key(record.query.payload)
        cell = counts.setdefault(key, [0, 0])
        for event in record.events:
            if event.disposition is Disposition.TRACEBACK:
                continue
            cell[1] += 1
            cell[0] += int(bool(event.verified.verification.labels))
    if task is None:
        raise ValueError("no records given")
    return FrequencyGrid(
        task=task,
        cells={key: GridCell(v, t) for key, (v, t) in counts.items()},
    )


class AccuracyTally:
    """Correct and total episodes per difficulty tier, counted one record at
    a time, so a stream of records can be tallied without being held."""

    def __init__(self) -> None:
        self._groups: dict[str, list[int]] = {}

    def add(self, record: EpisodeRecord) -> None:
        tier = record.query.tier.value if record.query.tier else "untiered"
        cell = self._groups.setdefault(tier, [0, 0])
        cell[1] += 1
        cell[0] += int(record.outcome is Outcome.CORRECT)

    def to_csv(self) -> str:
        """CSV of correctness by difficulty tier with 99% Wilson intervals."""
        lines = ["tier,episodes,correct,accuracy,ci_lo,ci_hi"]
        for tier in sorted(self._groups):
            correct, total = self._groups[tier]
            lo, hi = wilson_ci(correct, total)
            lines.append(f"{tier},{total},{correct},{correct / total!r},{lo!r},{hi!r}")
        return "\n".join(lines) + "\n"


def binomial_zscore(successes: int, trials: int, p: float) -> float:
    """Standardized deviation of a binomial count from probability p.

    Degenerate p (0 or 1) gives zero when the observation agrees exactly and
    infinity otherwise.
    """
    accuracy = successes / trials
    if p <= 0.0 or p >= 1.0:
        return 0.0 if accuracy == p else math.inf
    return (accuracy - p) / math.sqrt(p * (1.0 - p) / trials)


@dataclass(frozen=True)
class ReportRow:
    """A Monte-Carlo point (its n and law are on `result`) beside its closed
    form, priced on the law's rate table.  An unlimited rtbs root has none
    yet, so its theory and zscore are None."""

    result: SimResult
    theory: Optional[float]
    zscore: Optional[float]


def report_row(result: SimResult) -> ReportRow:
    """A Monte-Carlo point next to its law's closed form and z-score."""
    law, n = result.law, result.n
    if law.root_unlimited:
        return ReportRow(result, None, None)
    if law.mode == "none":
        theory = rho_nonreflective(law.table, n)
    elif law.mode == "rmtp":
        theory = rho_rmtp(law.table, n)
    else:
        theory = rho_rtbs(law.table, law.m, n)
    z = binomial_zscore(result.successes, result.episodes, theory)
    return ReportRow(result, theory, z)


def theory_vs_sim_rows(
    params: SimplifiedParams,
    modes: Sequence[str],
    n_values: Sequence[int],
    m_list: Sequence[int],
    episodes: int,
    seed: int,
    *,
    threads: Optional[int] = None,
) -> list[ReportRow]:
    """One Monte-Carlo point per (n, mode, width) against its closed form.

    Each point runs on its own derived seed.  The backtracking points use
    root-capped semantics, matching what the closed forms price in.
    """
    rows: list[ReportRow] = []
    index = 0
    for n in n_values:
        for mode in modes:
            widths: Sequence[Optional[int]] = m_list if mode == "rtbs" else [None]
            for m in widths:
                row_seed = rng_mod.derive_key(seed, index)[1]
                index += 1
                rows.append(report_row(simulate_accuracy(
                    params, n, mode, episodes, row_seed, m=m, threads=threads
                )))
    return rows


def report_to_csv(rows: Iterable[ReportRow]) -> str:
    lines = ["n,mode,m,episodes,acc_hat,ci_lo,ci_hi,theory,zscore"]
    for row in rows:
        r = row.result
        m_text = "" if r.law.m is None else str(r.law.m)
        priced = "," if row.theory is None else f"{row.theory!r},{row.zscore!r}"
        lines.append(
            f"{r.n},{r.law.mode},{m_text},{r.episodes},{r.accuracy_hat!r},"
            f"{r.wilson_ci[0]!r},{r.wilson_ci[1]!r},{priced}"
        )
    return "\n".join(lines) + "\n"

