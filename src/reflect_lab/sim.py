"""Synthetic testbed: the abstract scale-n task and its Monte-Carlo engines.

A synthetic state is (scale, polarity).  Scale counts the steps still needed;
polarity says whether the chain is still on track.  The self-verifying policy
realizes the rate model of `theory`: on-track proposals stay on track with
probability mu, the verifier false-alarms with e_minus, misses with e_plus,
and rejects everything at derailed states with probability f.

A `Law` names what a Monte-Carlo point runs: rate table, mode, width and
root.  Both engines, the budget and the closed form read it, and the result
carries it, so a report prices the law that ran.  `law.table` is the table
the chain runs on; mode none's is its accept-all table.

Two engines estimate success probabilities.  The interface engine drives the
one executor, `engines.run_rtbs`, episode by episode with the configuration
`Law.config` builds, and produces full event logs.  The vector engine
simulates the same event chain for whole batches of episodes in numpy and
exists purely for throughput.  Both decide a proposal and its
verdict with one uniform, cut at the same rates, so a one-row batch ends every
episode as `run_rtbs` does on the same stream; tests check this episode for
episode.  Each batch of the vector engine has its own random stream; a worker
runs a group of batches in one array and one loop, each batch drawing from
its own stream and compacting its own rows, so grouping never moves a result.
Every mode runs that loop on `law.table`; mode none's accept-all table
accepts every proposal, and an on-track one stays on track with chance mu.
A backtracking row keeps one small code per level (an attempt count, or a link past a
spent level), its deepest ancestor with attempts to spare, and the depth of
its chain's first derailed state (a level is on track exactly when it lies
above that depth), and pops in one step to that ancestor.
Unless asked otherwise the backtracking mode charges the root its m attempts
like every other state, which is the convention the closed-form curves
price in; no closed form prices an unlimited root yet.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass, field
from typing import Optional

import numpy as np

from . import rng as rng_mod
from .engines import ReflectConfig, mode_config, run_rtbs
from .mtp import (
    Disposition,
    Outcome,
    Query,
    Step,
    TaskHooks,
    TaskName,
    Verification,
    register_task,
    verdict,
)
from .theory import PosteriorParams, SimplifiedParams, rate_table

Z_99 = 2.5758293035489004  # two-sided 99% normal quantile

_CHUNK = 32768


@dataclass(frozen=True)
class SyntheticState:
    """scale: steps still required; positive: chain still on track."""

    scale: int
    positive: bool


class SyntheticTransition:
    def apply(self, state: SyntheticState, step: Step) -> SyntheticState:
        return SyntheticState(state.scale - 1, bool(step.content))


def _synthetic_initial(query: Query) -> SyntheticState:
    return SyntheticState(int(query.payload), True)


def _synthetic_check(query: Query, answer: Step) -> bool:
    return bool(answer.content)


def _synthetic_validate(query: Query) -> None:
    if not isinstance(query.payload, int) or isinstance(query.payload, bool):
        raise ValueError("synthetic query payload must be an int scale")
    if query.payload < 0:
        raise ValueError("synthetic scale must be >= 0")


def _synthetic_answer_from_json(obj: object) -> bool:
    if not isinstance(obj, bool):
        raise ValueError(f"synthetic answer must be true or false, got {obj!r}")
    return obj


def _render_synthetic(state: SyntheticState) -> str:
    return f"scale {state.scale}{'+' if state.positive else '-'}"


# The synthetic self-verifier is built from a law (SyntheticSelfVerifier),
# so the record carries no query generator, expert or rule verifiers.  Its
# transition is the one the engines run, and decoding replays every stored
# record through it.
register_task(
    TaskName.SYNTHETIC,
    TaskHooks(
        initial_state=_synthetic_initial,
        transition=SyntheticTransition(),
        check_answer=_synthetic_check,
        validate=_synthetic_validate,
        state_type=SyntheticState,
        render_state=_render_synthetic,
        polarity=lambda query, state: bool(state.positive),
        move_to_json=lambda on_track: {"on_track": on_track},
        move_from_json=lambda obj: bool(obj["on_track"]),
        answer_from_json=_synthetic_answer_from_json,
    ),
)


def wilson_ci(successes: int, trials: int) -> tuple[float, float]:
    """99% Wilson score interval for a binomial proportion."""
    if trials <= 0:
        return (0.0, 1.0)
    p = successes / trials
    z2 = Z_99 * Z_99
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = Z_99 * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass(frozen=True)
class Law:
    """The chain one Monte-Carlo point runs: its rates, executor and root.

    table has the rates of each attempt at a state (constant rates become
    its one-entry case).  Mode none verifies nothing, so every proposal is
    a first attempt that is accepted: its table becomes the accept-all
    table of the first attempt's mu, and two mode-none laws with the same
    mu_1 are equal.  mode is one of `engines.MODES`; m is the width, which
    only rtbs takes.  root_unlimited exempts the rtbs root from the width;
    no other mode's root runs out of attempts, so it is False for them.
    Building a law refuses a mode or width that do not fit.
    """

    table: PosteriorParams
    mode: str
    m: Optional[int] = None
    root_unlimited: bool = False

    def __post_init__(self) -> None:
        table = rate_table(self.table)
        if self.mode == "none":
            # beta + gamma = fl(mu + fl(1 - mu)) is 1 for every double mu.
            table = PosteriorParams(mu=table.mu[:1], e_minus=(0.0,), e_plus=(1.0,), f=0.0)
        object.__setattr__(self, "table", table)
        self.config(1)
        if self.mode != "rtbs" and self.m is not None:
            raise ValueError(f"mode {self.mode!r} takes no width")
        object.__setattr__(self, "root_unlimited", self.root_unlimited and self.mode == "rtbs")

    def config(self, budget: int) -> ReflectConfig:
        """The law's `run_rtbs` configuration: one budget caps proposals and
        verifications alike (mode none verifies none)."""
        return mode_config(self.mode, self.m, budget, budget, self.root_unlimited)

    @property
    def clip(self) -> int:
        """Largest attempt count the rtbs stack stores.

        A stored level holds at most m attempts, except an unlimited root,
        whose count is clipped here: past max(m, last rate-table index)
        neither the width check nor the rate lookup can tell two counts apart.
        """
        return max(self.m, len(self.table.mu) - 1)

    def stack_dtype(self, n: int) -> np.dtype:
        """Narrowest unsigned dtype of a level of the rtbs stack at scale n.

        A level holds an attempt count up to `clip`, or, once spent, m plus
        a level below it: at most m + n - 2, since the deepest level the
        engine writes is n - 1.
        """
        return np.min_scalar_type(max(self.clip, self.m + n - 2))

    def batches_per_group(self, n: int) -> int:
        """Most batches one worker runs together in one array.

        A batch of _CHUNK rows once kept an int32 attempt count and a bool
        polarity per level of its rtbs stack: 5n bytes a row.  A group keeps
        a `stack_dtype` level plus a first-derailed depth a row, counted here
        as int32 (it is narrower below n = 2**16), and holds no more of those
        bytes than that batch did.  Modes without a stack hold no more rows
        than an rtbs group of one-byte levels.
        """
        level_bytes = self.stack_dtype(n).itemsize if self.mode == "rtbs" else 1
        return max(1, 5 * n // (n * level_bytes + 4))

    def budget(self, n: int) -> int:
        """Proposal budget that makes exhaustion negligible for sane rates.

        Scales with the mean retry counts at both polarities (first attempts
        on track); capped so that pathological rates degrade into flagged
        exhaustion instead of hangs.  Mode none makes one proposal a step.
        """
        if self.mode == "none":
            return max(n, 1)
        retry_pos = 1.0 / max(1.0 - self.table.alpha[0], 0.01)
        retry_neg = 1.0 / max(1.0 - self.table.f, 0.01)
        base = int(48 + 8 * max(n, 1) * (retry_pos + retry_neg))
        if self.mode == "rtbs":
            base *= min(self.m, 64)
        return min(base, 1_000_000)


class SyntheticSelfVerifier:
    """The synthetic self-verifying policy of a law: one uniform a proposal.

    `sample` draws u and decides both the step and its verdict, cut where
    the vector engine cuts it on row min(attempt, last) of `law.table`;
    `verify` returns that verdict.  So `run_rtbs` on a stream makes the
    decisions a one-row batch of `_mc_chunk` makes on the same stream.  On
    track, u < beta advances and u < beta + gamma derails, both accepted; a
    higher u is rejected, and its content is on track when u < beta + gamma
    + mu e_minus, which keeps the joint law of content and verdict.  Off
    track the step is derailed and accepted when u < 1 - f.  A scale-0 root
    restates its answer, rejected when u < e_minus.  Mode none's accept-all
    table cuts at mu alone.
    """

    def __init__(self, law: Law) -> None:
        table = law.table
        # Per table row: beta, beta + gamma, the rejected content's cut, e_minus.
        rows = zip(table.beta, table.gamma, table.mu, table.e_minus)
        self._rows = [(b, b + g, b + g + mu * em, em) for b, g, mu, em in rows]
        self._last = len(self._rows) - 1
        self._one_minus_f = 1.0 - table.f
        self._accept = True

    def sample(self, state: SyntheticState, rng: np.random.Generator, attempt: int) -> Step:
        u = rng.random()
        beta, beta_gamma, rejected_on_track, e_minus = self._rows[min(attempt, self._last)]
        if state.scale == 0:
            # Degenerate scale-0 query: restate the already-reached answer.
            self._accept = u >= e_minus
            return Step(content=state.positive, is_answer=True)
        if state.positive:
            self._accept = u < beta_gamma
            on_track = u < (beta if self._accept else rejected_on_track)
        else:
            self._accept = u < self._one_minus_f
            on_track = False
        return Step(content=on_track, is_answer=state.scale == 1)

    def verify(
        self, state: SyntheticState, step: Step, rng: np.random.Generator
    ) -> Verification:
        return verdict(self._accept)


@dataclass(frozen=True)
class EngineStats:
    """What the vector engine did, summed over the batches of a run.

    passes: loop passes of each batch.  compactions: times a batch dropped
    its closed rows and kept going.  row_passes: uniforms drawn, one per row
    and pass, closed rows that wait for their batch's compaction included.
    pops: rtbs rows that backtracked.  budget_hits: batches with a row still
    open after the budget's last pass.  A batch's counts do not depend on its
    group, so these do not depend on the thread count.
    """

    passes: int = 0
    compactions: int = 0
    row_passes: int = 0
    pops: int = 0
    budget_hits: int = 0

    def __add__(self, other: EngineStats) -> EngineStats:
        return EngineStats(*(a + b for a, b in zip(astuple(self), astuple(other))))


@dataclass(frozen=True)
class SimResult:
    """Monte-Carlo estimate of one point: the success rate of `law` at scale n."""

    law: Law
    n: int
    episodes: int
    successes: int
    mean_length_correct: Optional[float]
    budget_exhausted: int
    # Work counts of the vector engine; None for the episode engine.
    stats: Optional[EngineStats] = field(default=None, compare=False)

    @property
    def accuracy_hat(self) -> float:
        return self.successes / self.episodes

    @property
    def wilson_ci(self) -> tuple[float, float]:
        return wilson_ci(self.successes, self.episodes)

    @property
    def budget_dominated(self) -> bool:
        """True when more than 0.1% of episodes hit the proposal budget."""
        return self.budget_exhausted > 0.001 * self.episodes


def _threads(threads: Optional[int]) -> int:
    if threads is not None:
        if threads < 1:
            raise ValueError("threads must be >= 1")
        return threads
    return os.cpu_count() or 1


def _stack_write(
    stack: np.ndarray,
    offsets: np.ndarray,
    depth: np.ndarray,
    tried: np.ndarray,
    spare: np.ndarray,
    desc: np.ndarray,
    m: int,
) -> None:
    """Write each row's level code at its depth; update `spare` in place.

    `spare` is each row's deepest ancestor level with an attempt to spare,
    or 0 when it has none.  A level that has tried fewer than m attempts
    stores its count; a spent one stores m plus its row's `spare`, a link
    past the spent levels below it.  The root's `spare` is 0, so it stores
    its count, which under an unlimited root may exceed m.  A row that
    descends (`desc`) from a level with attempts left makes that level its
    `spare`.  `offsets` holds each row's level-0 entry.
    """
    spent = tried >= m
    stack[offsets + depth] = np.add(tried, spare * spent, dtype=stack.dtype)
    np.maximum(spare, depth * (desc > spent), out=spare)


def _stack_pop(
    stack: np.ndarray, n: int, rows: np.ndarray, spare: np.ndarray, m: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(level, restored count, next spare) of rows that spent their attempts.

    Each row pops to its `spare` level, the root when it has none, and
    restores that level's count.  Its next `spare` is the level below,
    when that level has attempts left, or else the link stored there; 0
    from levels 0 and 1.  Level l of row r is stack entry r * n + l.
    """
    level = spare[rows]
    at = rows * n + level
    # At level 0 this reads another row's entry (or the last one): unused.
    link = stack[at - 1]
    below = np.where(link < m, level - 1, link - m) * (level > 1)
    return level, stack[at], below


def _mc_chunk(
    law: Law, n: int, budget: int, batches: list[tuple[int, np.random.Generator]]
) -> tuple[int, int, int, int, EngineStats]:
    """Simulate a group of batches, each given as (episodes, its own stream).

    Returns (successes, correct_len_sum, exhausted, done, stats) summed over
    the group.  Event-for-event the same chain law as the interface engine:
    one uniform draw decides each proposal's fate against `law.table` and
    attempts are tracked per state.  The batches share one array and one
    loop, but each draws its rows' uniforms from its own stream and compacts
    its own rows when at most three quarters of them are live, so every
    batch sees exactly the numbers it would see run alone.

    Every row starts at pass 0 and a live row proposes once per pass, so the
    pass number is each live row's proposal count: the group keeps one
    proposal clock, and the budget runs out for every live row at once.

    Derailed states only have derailed children, so a level is on track
    exactly when it lies above the chain's first derailed depth: one int per
    row replaces a polarity stack.  The attempt stack is one flat array,
    level l of row r at entry r * n + l, of `law.stack_dtype`.  Each pass
    every row writes the code of its attempts so far plus one at its own depth
    (`_stack_write`); that entry becomes a level of the row's chain only
    when the row descends, and entries at the row's depth and deeper are
    stale and never read.  A spare level's code is its count, and a spent
    level's is m plus the deepest spare level below it; each row also keeps
    its deepest spare ancestor.  Links point only downward, and a level
    below a row's depth is not rewritten while the row stays above it, so
    every link the row reads is still true.  A row that spends its attempts
    pops in one step to its deepest spare ancestor, or to the root when it
    has none, and follows one link to the next (`_stack_pop`); a capped
    root with no attempt left closes the row.
    """
    if n == 0:
        # One restating answer step per episode, always on track.
        total = sum(count for count, _ in batches)
        return (total, total, 0, total, EngineStats())
    beta_lut = np.asarray(law.table.beta)
    bg_lut = beta_lut + law.table.gamma
    one_minus_f = 1.0 - law.table.f
    lut_top = len(beta_lut) - 1
    rtbs = law.mode == "rtbs"
    track_attempts = rtbs or lut_top > 0
    m = law.m

    rngs = [rng for _, rng in batches]
    sizes = [count for count, _ in batches]  # each batch's rows in the arrays
    live = list(sizes)  # each batch's rows not yet closed
    rows = sum(sizes)
    # Depths run to n - 1, and n marks a chain with no derailed level.
    row_dtype = np.min_scalar_type(n)
    depth = np.zeros(rows, dtype=row_dtype)
    cur_pol = np.ones(rows, dtype=bool)
    if rtbs:
        clip = law.clip
        stack = np.zeros(rows * n, dtype=law.stack_dtype(n))
        # A count stops at clip (an unlimited root's is clipped as it is
        # stored), so one more always fits.
        att = np.zeros(rows, dtype=np.min_scalar_type(clip + 1))
        # Entry of each row's level 0; rows stay numbered from 0 when compacted.
        offsets = np.arange(0, rows * n, n)
        # First derailed depth of the row's chain; n while it is on track.
        derailed_at = np.full(rows, n, dtype=row_dtype)
        # Deepest ancestor level with an attempt to spare; 0 when none has one.
        spare = np.zeros(rows, dtype=row_dtype)
    else:
        att = np.zeros(rows, dtype=np.int32)
    alive = np.ones(rows, dtype=bool)
    uniforms = np.empty(rows)

    successes = 0
    correct_len_sum = 0
    exhausted = 0
    done = 0
    passes = 0  # the proposal clock
    batch_passes = row_passes = compactions = pops = budget_hits = 0

    while rngs:
        size = depth.shape[0]
        u = uniforms[:size]
        start = 0
        for rng, k in zip(rngs, sizes):
            rng.random(k, out=u[start : start + k])
            start += k
        passes += 1
        batch_passes += len(rngs)
        row_passes += size
        if lut_top > 0:
            b = beta_lut[np.minimum(att, lut_top)]
            bg = bg_lut[np.minimum(att, lut_top)]
        else:
            b = beta_lut[0]
            bg = bg_lut[0]
        on_track = alive & cur_pol
        moved = on_track & (u < bg)  # advances or derails
        advance = moved & (u < b)
        derail = moved ^ advance
        # alive ^ on_track: the live rows off track.
        accepted = moved | ((alive ^ on_track) & (u < one_minus_f))

        last_level = depth == (n - 1)
        closing = accepted & last_level  # finishing, successes included
        succ_now = closing & advance
        desc = accepted > last_level
        if track_attempts:
            rejected = alive > accepted
            tried = att + 1
            if rtbs:
                if law.root_unlimited:
                    np.minimum(tried, clip, out=tried)
                # Stale wherever the row does not descend.
                _stack_write(stack, offsets[:size], depth, tried, spare, desc, m)
            att = tried * rejected
        depth += desc
        cur_pol ^= derail
        if rtbs:
            # A derailing row was on track: its new depth is the first derailed one.
            dr = derail.nonzero()[0]
            derailed_at[dr] = depth[dr]
            over = (att >= m).nonzero()[0]  # only rejecting rows kept a count
            if over.size:
                pops += int(np.count_nonzero(depth[over]))  # rows above the root
                level, restored, spare[over] = _stack_pop(stack, n, over, spare, m)
                depth[over] = level
                att[over] = restored
                back_on_track = level < derailed_at[over]
                cur_pol[over] = back_on_track
                derailed_at[over[back_on_track]] = n  # no derailed level is left
                if not law.root_unlimited:  # back at a root with no attempts left
                    closing[over[restored >= m]] = True

        n_succ = int(np.count_nonzero(succ_now))
        successes += n_succ
        correct_len_sum += n_succ * passes
        n_closing = int(np.count_nonzero(closing))
        if passes == budget:
            # Every live row that is not closing has spent the budget.
            start = 0
            for k, count in zip(sizes, live):
                still_open = count - int(np.count_nonzero(closing[start : start + k]))
                budget_hits += int(still_open > 0)
                exhausted += still_open
                start += k
            done += sum(live)
            break
        if not n_closing:
            continue
        done += n_closing
        alive ^= closing
        keep = None
        start = 0
        for j, k in enumerate(sizes):
            live[j] -= int(np.count_nonzero(closing[start : start + k]))
            if live[j] <= 0.75 * k:  # compact this batch; a finished one drops out
                if keep is None:
                    keep = np.ones(size, dtype=bool)
                keep[start : start + k] = alive[start : start + k]
                sizes[j] = live[j]
                compactions += int(live[j] > 0)
            start += k
        if keep is not None:
            idx = keep.nonzero()[0]
            depth = depth[idx]
            cur_pol = cur_pol[idx]
            att = att[idx]
            if rtbs:
                # Whole rows move, so every row's levels stay together.
                stack = stack.reshape(size, n).take(idx, axis=0).reshape(-1)
                derailed_at = derailed_at[idx]
                spare = spare[idx]
            alive = alive[idx]
            if not all(live):
                rngs = [r for r, c in zip(rngs, live) if c]
                sizes = [k for k in sizes if k]
                live = [c for c in live if c]
    stats = EngineStats(batch_passes, compactions, row_passes, pops, budget_hits)
    return (successes, correct_len_sum, exhausted, done, stats)


def _episode_engine(
    law: Law, n: int, budget: int, episodes: int, seed: int
) -> tuple[int, int, int]:
    """Interface-level reference engine; returns (successes, len_sum, exhausted)."""
    query = Query(TaskName.SYNTHETIC, n)
    sv = SyntheticSelfVerifier(law)
    transition = SyntheticTransition()
    config = law.config(budget)
    successes = 0
    len_sum = 0
    exhausted = 0
    for episode in range(episodes):
        record = run_rtbs(sv, transition, query, config, rng_mod.stream(seed, episode))
        if record.outcome is Outcome.CORRECT:
            successes += 1
            len_sum += sum(
                1 for e in record.events if e.disposition is not Disposition.TRACEBACK
            )
        elif record.outcome is Outcome.BUDGET_EXHAUSTED:
            exhausted += 1
    return (successes, len_sum, exhausted)


def simulate_accuracy(
    params: SimplifiedParams,
    n: int,
    mode: str,
    episodes: int,
    seed: int,
    *,
    m: Optional[int] = None,
    budget: Optional[int] = None,
    threads: Optional[int] = None,
    engine: str = "vector",
    posterior: Optional[PosteriorParams] = None,
    root_unlimited: bool = False,
) -> SimResult:
    """Estimate the success probability of one executor mode at scale n.

    Episodes are split into fixed-size batches, each on its own derived
    random stream.  The run takes one worker per two batches, up to the
    thread count (by default the number of cores).  The batches are dealt
    round-robin into one group per worker (more when a group would outgrow
    `Law.batches_per_group`), and each group runs in one loop; a batch's
    numbers do not depend on its group, so results do not depend on the
    thread count.  The budget defaults high enough that exhaustion stays a
    rounding error for sane rates; exhausted episodes count as failures and
    are tallied in the result.  A rate table (posterior) replaces params.
    """
    law = Law(posterior or params, mode, m, root_unlimited)
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    if engine not in ("vector", "episode"):
        raise ValueError("engine must be 'vector' or 'episode'")
    if budget is not None and budget < 1:
        raise ValueError("budget must be >= 1")
    budget = budget if budget is not None else law.budget(n)
    threads = _threads(threads)

    stats = None
    if engine == "episode":
        successes, len_sum, exhausted = _episode_engine(law, n, budget, episodes, seed)
    else:
        batches = [
            (index, min(_CHUNK, episodes - start))
            for index, start in enumerate(range(0, episodes, _CHUNK))
        ]
        # A worker with less than two batches to run costs more in contention
        # than it saves.
        workers = min(threads, max(1, len(batches) // 2))
        per_group = law.batches_per_group(n)
        n_groups = max(workers, -(-len(batches) // per_group))
        groups = [batches[i::n_groups] for i in range(n_groups)]

        def run_group(group: list[tuple[int, int]]) -> tuple[int, int, int, int, EngineStats]:
            return _mc_chunk(
                law, n, budget, [(size, rng_mod.stream(seed, index)) for index, size in group]
            )

        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                parts = list(pool.map(run_group, groups))
        else:
            parts = [run_group(g) for g in groups]
        successes = sum(p[0] for p in parts)
        len_sum = sum(p[1] for p in parts)
        exhausted = sum(p[2] for p in parts)
        stats = sum((p[4] for p in parts), EngineStats())

    return SimResult(
        law=law,
        n=n,
        episodes=episodes,
        successes=successes,
        mean_length_correct=(len_sum / successes) if successes else None,
        budget_exhausted=exhausted,
        stats=stats,
    )
