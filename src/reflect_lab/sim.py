"""Synthetic testbed: the abstract scale-n task and its Monte-Carlo engines.

A synthetic state is (scale, polarity).  Scale counts the steps still needed;
polarity says whether the chain is still on track.  The self-verifying policy
realizes the rate model of `theory`: on-track proposals stay on track with
probability mu, the verifier false-alarms with e_minus, misses with e_plus,
and rejects everything at derailed states with probability f.

Two engines estimate success probabilities.  The interface engine drives the
one executor, `engines.run_rtbs`, episode by episode with the configuration
`engines.mode_config` builds for the mode, and produces full event logs.  The
vector engine simulates the same event chain for whole batches of episodes in
numpy and exists purely for throughput; equivalence of the two is pinned by
tests.  Each batch of the vector engine has its own random stream; a worker
runs a group of batches in one array and one loop, each batch drawing from
its own stream and compacting its own rows, so grouping never moves a result.
A backtracking row keeps one small attempt count per level and the depth of
its chain's first derailed state (a level is on track exactly when it lies
above that depth), and pops in one step to its deepest ancestor with
attempts to spare.  Unless asked otherwise the backtracking mode charges the
root its m attempts like every other state, which is the convention the
closed-form curves price in.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass, field
from typing import Optional

import numpy as np

from . import rng as rng_mod
from .engines import mode_config, run_rtbs
from .mtp import (
    Disposition,
    Outcome,
    Query,
    SelfVerifying,
    Step,
    TaskHooks,
    TaskName,
    Verification,
    register_task,
)
from .theory import PosteriorParams, SimplifiedParams, derived_rates, rho_rmtp, rtbs_table

Z_99 = 2.5758293035489004  # two-sided 99% normal quantile

_CHUNK = 32768

THREADS_ENV_VAR = "REFLECT_LAB_THREADS"


@dataclass(frozen=True)
class SyntheticState:
    """scale: steps still required; positive: chain still on track."""

    scale: int
    positive: bool


@dataclass(frozen=True)
class SyntheticPolicy:
    """Proposes the next step; the step records which polarity it leads to."""

    params: SimplifiedParams

    def sample(self, state: SyntheticState, rng: np.random.Generator) -> Step:
        if state.scale == 0:
            # Degenerate scale-0 query: restate the already-reached answer.
            return Step(content=state.positive, is_answer=True)
        leads_positive = state.positive and bool(rng.random() < self.params.mu)
        return Step(content=leads_positive, is_answer=state.scale == 1)


@dataclass(frozen=True)
class SyntheticVerifier:
    """Noisy single-label verifier with the model's conditional error rates.

    Conditioning on the proposal's true polarity reproduces the joint law of
    (step quality, verdict) at on-track states branch for branch.
    """

    params: SimplifiedParams

    def verify(
        self, state: SyntheticState, step: Step, rng: np.random.Generator
    ) -> Verification:
        p = self.params
        if not state.positive:
            reject = bool(rng.random() < p.f)
        elif step.content:
            reject = bool(rng.random() < p.e_minus)
        else:
            reject = not bool(rng.random() < p.e_plus)
        return Verification((not reject,))


class SyntheticTransition:
    def apply(self, state: SyntheticState, step: Step) -> SyntheticState:
        return SyntheticState(state.scale - 1, bool(step.content))


def synthetic_self_verifying(params: SimplifiedParams) -> SelfVerifying:
    return SelfVerifying(SyntheticPolicy(params), SyntheticVerifier(params))


def _synthetic_initial(query: Query) -> SyntheticState:
    return SyntheticState(int(query.payload), True)


def _synthetic_check(query: Query, answer: Step) -> bool:
    return bool(answer.content)


def _synthetic_validate(query: Query) -> None:
    if not isinstance(query.payload, int) or isinstance(query.payload, bool):
        raise ValueError("synthetic query payload must be an int scale")
    if query.payload < 0:
        raise ValueError("synthetic scale must be >= 0")


def _render_synthetic(state: SyntheticState) -> str:
    return f"scale {state.scale}{'+' if state.positive else '-'}"


# The synthetic policy and verifier are built from rate parameters
# (synthetic_self_verifying), so the record carries no query generator,
# expert or rule verifiers.  Its transition is the one the engines run,
# and decoding replays every stored record through it.
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
    ),
)


def wilson_ci(successes: int, trials: int, z: float = Z_99) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        return (0.0, 1.0)
    p = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass(frozen=True)
class EngineStats:
    """What the vector engine did, summed over the batches of a run.

    passes: loop passes of each batch.  compactions: times a batch dropped
    its closed rows and kept going.  row_passes: uniforms drawn, one per row
    and pass, closed rows that wait for their batch's compaction included.
    pops: rtbs rows that backtracked.  budget_hits: batches still running
    at the budget's last pass.  A batch's counts do not depend on its group,
    so these do not depend on the thread count.
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
    """Monte-Carlo estimate of one (params, n, mode) point."""

    params: SimplifiedParams
    n: int
    mode: str
    m: Optional[int]
    episodes: int
    successes: int
    accuracy_hat: float
    wilson_ci: tuple[float, float]
    mean_length_correct: Optional[float]
    budget_exhausted: int
    seed: int
    # Work counts of the vector engine; None for the episode engine.
    stats: Optional[EngineStats] = field(default=None, compare=False)

    @property
    def budget_dominated(self) -> bool:
        """True when more than 0.1% of episodes hit the proposal budget."""
        return self.budget_exhausted > 0.001 * self.episodes


def _threads(threads: Optional[int]) -> int:
    if threads is not None:
        if threads < 1:
            raise ValueError("threads must be >= 1")
        return threads
    env = os.environ.get(THREADS_ENV_VAR)
    if env:
        try:
            count = int(env)
        except ValueError:
            raise ValueError(
                f"{THREADS_ENV_VAR} must be an integer, got {env!r}"
            ) from None
        if count < 1:
            raise ValueError(f"{THREADS_ENV_VAR} must be >= 1, got {env!r}")
        return count
    return os.cpu_count() or 1


def auto_budget(params: SimplifiedParams, n: int, mode: str, m: Optional[int]) -> int:
    """Proposal budget that makes exhaustion negligible for sane rates.

    Scales with the mean retry counts at both polarities; capped so that
    pathological rates degrade into flagged exhaustion instead of hangs.
    """
    if mode == "none":
        return max(n, 1)
    rates = derived_rates(params)
    retry_pos = 1.0 / max(1.0 - rates.alpha, 0.01)
    retry_neg = 1.0 / max(1.0 - params.f, 0.01)
    base = int(48 + 8 * max(n, 1) * (retry_pos + retry_neg))
    if mode == "rtbs":
        base *= max(1, min(int(m or 1), 64))
    return min(base, 1_000_000)


def _posterior_luts(
    posterior: Optional[PosteriorParams],
    params: SimplifiedParams,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-attempt (beta, beta+gamma) lookup tables; length 1 when constant."""
    if posterior is None:
        r = derived_rates(params)
        return (np.array([r.beta]), np.array([r.beta + r.gamma]))
    beta = np.asarray(posterior.beta, dtype=np.float64)
    gamma = np.asarray(posterior.gamma, dtype=np.float64)
    return (beta, beta + gamma)


# Doubles per draw of the loop-free none mode, so that a chunk at large n
# draws in bounded blocks.
_NONE_BLOCK = 1 << 17


def _none_chunk(
    mu: float, n: int, budget: int, episodes: int, rng: np.random.Generator
) -> tuple[int, int, int, int, EngineStats]:
    """Mode none of one batch without the loop.

    Every row proposes once per pass and accepts every step, so no row closes
    before pass min(n, budget): the loop would draw `episodes` uniforms per
    pass and never compact.  Drawing those passes pass-major in one stream
    (in blocks) gives the same numbers.  A row succeeds when all n of its
    draws advance.
    """
    passes = min(n, budget)
    if passes < n:
        return (0, 0, episodes, episodes, EngineStats(budget_hits=1))
    on_track = np.ones(episodes, dtype=bool)
    per_block = max(1, _NONE_BLOCK // episodes)
    for start in range(0, passes, per_block):
        k = min(per_block, passes - start)
        u = rng.random(k * episodes).reshape(k, episodes)
        on_track &= (u < mu).all(axis=0)
    successes = int(np.count_nonzero(on_track))
    stats = EngineStats(passes=n, row_passes=n * episodes, budget_hits=int(budget == n))
    return (successes, successes * n, 0, episodes, stats)


def _stack_clip(m: Optional[int], posterior: Optional[PosteriorParams]) -> int:
    """Largest attempt count the rtbs stack stores.

    A stored level holds at most m attempts, except an unlimited root, whose
    count is clipped here: past max(m, last rate-table index) neither the
    width check nor the rate lookup can tell two counts apart.
    """
    return max(int(m or 1), len(posterior.mu) - 1 if posterior is not None else 0)


def _batches_per_group(
    n: int, mode: str, m: Optional[int], posterior: Optional[PosteriorParams]
) -> int:
    """Most batches one worker runs together in one array.

    A batch of _CHUNK rows once kept an int32 attempt count and a bool
    polarity per level of its rtbs stack: 5n bytes a row.  A group keeps the
    smallest unsigned attempt count per level plus a first-derailed depth a
    row, counted here as int32 (it is narrower below n = 2**16), and holds
    no more of those bytes than that batch did.  Modes without a stack hold
    no more rows than an rtbs group of width <= 255.
    """
    level_bytes = 1
    if mode == "rtbs":
        level_bytes = np.min_scalar_type(_stack_clip(m, posterior)).itemsize
    return max(1, 5 * n // (n * level_bytes + 4))


# Levels below the parent that a pop reads next, when the parent has no
# attempt to spare: most pops are short, and reading the whole stack would
# make each one cost O(n).
_POP_WINDOW = 16


def _pop_level(
    stack: np.ndarray, n: int, rows: np.ndarray, top: np.ndarray, m: int
) -> np.ndarray:
    """Deepest level above each row's `top` with fewer than m attempts, else 0.

    `stack` is the flat attempt stack of `_mc_chunk`: level l of row r is
    entry r * n + l.  Entries at depth `top` and deeper are stale and never
    read.  The parent level, `top - 1`, is read first and taken wherever it
    has an attempt to spare.  Only the other rows read the _POP_WINDOW
    levels below their parent, and only rows with no spare level there read
    the rest of their stack.
    """
    base = rows * n
    level = top.astype(np.intp) - 1
    up = np.flatnonzero((stack[base + level] >= m) & (level > 0))
    if up.size:
        base, parent = base[up], level[up]
        lo = np.maximum(parent - _POP_WINDOW, 0)
        levels = lo[:, None] + np.arange(min(_POP_WINDOW, n - 1))
        spare = (stack[base[:, None] + levels] < m) & (levels < parent[:, None])
        found = (spare * levels).max(axis=1)
        far = np.flatnonzero((found == 0) & (lo > 0))
        if far.size:
            levels = np.arange(int(lo[far].max()))
            spare = (stack[base[far, None] + levels] < m) & (levels < lo[far, None])
            found[far] = (spare * levels).max(axis=1)
        level[up] = found
    return level


def _mc_chunk(
    params: SimplifiedParams,
    n: int,
    mode: str,
    m: Optional[int],
    budget: int,
    root_unlimited: bool,
    batches: list[tuple[int, np.random.Generator]],
    posterior: Optional[PosteriorParams],
) -> tuple[int, int, int, int, EngineStats]:
    """Simulate a group of batches, each given as (episodes, its own stream).

    Returns (successes, correct_len_sum, exhausted, done, stats) summed over
    the group.  Event-for-event the same chain law as the interface engine:
    one uniform draw decides each proposal's fate and attempts are tracked
    per state.  The batches share one array and one loop, but each draws its
    rows' uniforms from its own stream and compacts its own rows when at most
    three quarters of them are live, so every batch sees exactly the numbers
    it would see run alone.

    Every row starts at pass 0 and a live row proposes once per pass, so the
    pass number is each live row's proposal count: the group keeps one
    proposal clock, and the budget runs out for every live row at once.

    Derailed states only have derailed children, so a level is on track
    exactly when it lies above the chain's first derailed depth: one int per
    row replaces a polarity stack.  The attempt stack is one flat array,
    level l of row r at entry r * n + l.  Each pass every row writes its
    attempts so far plus one at its own depth; that entry becomes a level of
    the row's chain only when the row descends, and entries at the row's
    depth and deeper are stale and never read.  A row that spends its
    attempts at a state pops in one step to its deepest ancestor with
    attempts to spare, or to the root when none has any.  The pop reads the
    parent level first, then the _POP_WINDOW levels below it, then the rest
    of the stack (`_pop_level`); at width 1 no stored level has an attempt
    to spare, so every pop goes to the root without reading the stack.
    """
    if n == 0:
        # One restating answer step per episode, always on track.
        total = sum(count for count, _ in batches)
        return (total, total, 0, total, EngineStats())
    if mode == "none":
        # Every proposal of mode none is its state's first attempt.
        mu = posterior.mu[0] if posterior is not None else params.mu
        parts = [_none_chunk(mu, n, budget, count, rng) for count, rng in batches]
        *counts, stats = zip(*parts)
        return (*map(sum, counts), sum(stats, EngineStats()))
    beta_lut, bg_lut = _posterior_luts(posterior, params)
    lut_top = len(beta_lut) - 1
    one_minus_f = 1.0 - (posterior.f if posterior is not None else params.f)
    track_attempts = mode == "rtbs" or lut_top > 0
    rtbs = mode == "rtbs"
    m_eff = int(m or 1)

    rngs = [rng for _, rng in batches]
    sizes = [count for count, _ in batches]  # each batch's rows in the arrays
    live = list(sizes)  # each batch's rows not yet closed
    rows = sum(sizes)
    # Depths run to n - 1, and n marks a chain with no derailed level.
    row_dtype = np.min_scalar_type(n)
    depth = np.zeros(rows, dtype=row_dtype)
    cur_pol = np.ones(rows, dtype=bool)
    if rtbs:
        clip = _stack_clip(m, posterior)
        stack = np.zeros(rows * n, dtype=np.min_scalar_type(clip))
        # A count stops at clip (an unlimited root's is clipped as it is
        # stored), so one more always fits.
        att = np.zeros(rows, dtype=np.min_scalar_type(clip + 1))
        # Entry of each row's level 0; rows stay numbered from 0 when compacted.
        offsets = np.arange(0, rows * n, n)
        # First derailed depth of the row's chain; n while it is on track.
        derailed_at = np.full(rows, n, dtype=row_dtype)
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
        accepted = moved | (alive & ~cur_pol & (u < one_minus_f))

        last_level = depth == (n - 1)
        closing = accepted & last_level  # finishing, successes included
        succ_now = closing & advance
        desc = accepted & ~last_level
        if track_attempts:
            rejected = alive & ~accepted
            tried = att + 1
            if rtbs:
                if root_unlimited:
                    np.minimum(tried, clip, out=tried)
                # Stale wherever the row does not descend.
                stack[offsets[:size] + depth] = tried
            att = tried * rejected
        depth += desc
        cur_pol ^= derail
        if rtbs:
            # A derailing row was on track: its new depth is the first derailed one.
            dr = np.flatnonzero(derail)
            derailed_at[dr] = depth[dr]
            over = np.flatnonzero(att >= m_eff)  # only rejecting rows kept a count
            top = depth[over]
            if not root_unlimited:
                closing[over[top == 0]] = True
            popping = top > 0
            ni = over[popping]
            if ni.size:
                pops += ni.size
                if m_eff > 1:
                    level = _pop_level(stack, n, ni, top[popping], m_eff)
                else:  # every stored level has spent its one attempt
                    level = np.zeros(ni.size, dtype=np.intp)
                restored = stack[ni * n + level]
                depth[ni] = level
                att[ni] = restored
                back_on_track = level < derailed_at[ni]
                cur_pol[ni] = back_on_track
                derailed_at[ni[back_on_track]] = n  # no derailed level is left
                if not root_unlimited:  # popped to a root with no attempts left
                    closing[ni[restored >= m_eff]] = True

        n_succ = int(np.count_nonzero(succ_now))
        successes += n_succ
        correct_len_sum += n_succ * passes
        n_closing = int(np.count_nonzero(closing))
        if passes == budget:
            # Every live row that is not closing has spent the budget.
            budget_hits += len(rngs)
            exhausted += sum(live) - n_closing
            done += sum(live)
            break
        if not n_closing:
            continue
        done += n_closing
        alive &= ~closing
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
            idx = np.flatnonzero(keep)
            depth = depth[idx]
            cur_pol = cur_pol[idx]
            att = att[idx]
            if rtbs:
                # Whole rows move, so every row's levels stay together.
                stack = stack.reshape(size, n).take(idx, axis=0).reshape(-1)
                derailed_at = derailed_at[idx]
            alive = alive[idx]
            if not all(live):
                rngs = [r for r, c in zip(rngs, live) if c]
                sizes = [k for k in sizes if k]
                live = [c for c in live if c]
    stats = EngineStats(batch_passes, compactions, row_passes, pops, budget_hits)
    return (successes, correct_len_sum, exhausted, done, stats)


def validate_mode(mode: str, m: Optional[int]) -> None:
    """Refuse a mode not in MODES and a width that does not fit the mode."""
    mode_config(mode, m, 0, 1)
    if mode != "rtbs" and m is not None:
        raise ValueError(f"mode {mode!r} takes no width")


def _episode_engine(
    params: SimplifiedParams,
    n: int,
    mode: str,
    m: Optional[int],
    budget: int,
    root_unlimited: bool,
    episodes: int,
    seed: int,
) -> tuple[int, int, int]:
    """Interface-level reference engine; returns (successes, len_sum, exhausted)."""
    query = Query(TaskName.SYNTHETIC, n)
    sv = synthetic_self_verifying(params)
    transition = SyntheticTransition()
    config = mode_config(mode, m, budget, budget, root_unlimited)
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
    random stream.  The batches are dealt round-robin into one group per
    worker (more when a group would outgrow `_batches_per_group`), and each
    group runs in one loop; a batch's numbers do not depend on its group, so
    results do not depend on the thread count.  The budget defaults high
    enough that exhaustion stays a rounding error for sane rates; exhausted
    episodes count as failures and are tallied in the result.
    """
    validate_mode(mode, m)
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    if engine not in ("vector", "episode"):
        raise ValueError("engine must be 'vector' or 'episode'")
    if posterior is not None and engine != "vector":
        raise ValueError("per-attempt rates are supported by the vector engine only")
    if budget is not None and budget < 1:
        raise ValueError("budget must be >= 1")
    budget = budget if budget is not None else auto_budget(params, n, mode, m)

    stats = None
    if engine == "episode":
        successes, len_sum, exhausted = _episode_engine(
            params, n, mode, m, budget, root_unlimited, episodes, seed
        )
    else:
        batches = [
            (index, min(_CHUNK, episodes - start))
            for index, start in enumerate(range(0, episodes, _CHUNK))
        ]
        workers = min(_threads(threads), len(batches))
        per_group = _batches_per_group(n, mode, m, posterior)
        n_groups = max(workers, -(-len(batches) // per_group))
        groups = [batches[i::n_groups] for i in range(n_groups)]

        def run_group(group: list[tuple[int, int]]) -> tuple[int, int, int, int, EngineStats]:
            return _mc_chunk(
                params,
                n,
                mode,
                m,
                budget,
                root_unlimited,
                [(size, rng_mod.stream(seed, index)) for index, size in group],
                posterior,
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
        params=params,
        n=n,
        mode=mode,
        m=m,
        episodes=episodes,
        successes=successes,
        accuracy_hat=successes / episodes,
        wilson_ci=wilson_ci(successes, episodes),
        mean_length_correct=(len_sum / successes) if successes else None,
        budget_exhausted=exhausted,
        seed=seed,
        stats=stats,
    )


@dataclass(frozen=True)
class CrossoverResult:
    """Smallest scale at which width-m backtracking overtakes retry-in-place."""

    n_star: Optional[int]
    checked_n: Optional[int]
    mc_confirmed: Optional[bool]
    mc_rtbs: Optional[SimResult]
    mc_rmtp: Optional[SimResult]


def crossover_scan(
    params: SimplifiedParams,
    m: int,
    n_max: int,
    episodes: int,
    seed: int,
    *,
    threads: Optional[int] = None,
) -> CrossoverResult:
    """Scan scales 1..n_max for the first backtracking advantage.

    The scan itself runs on the closed-form curves; when episodes > 0 the
    ordering is additionally confirmed by Monte-Carlo a little past the
    crossover (at n_star + 5, clamped to n_max).

    n_star is the first n with rho_rtbs > rho_rmtp as floats.  Where the
    two curves agree to within rounding (at large widths such as m = 64
    they can differ by about 1e-16), rounding decides the comparison, so
    n_star is not determined there.
    """
    rho = rtbs_table(params, m, n_max).rho
    n_star = next(
        (n for n in range(1, n_max + 1) if rho[n] > rho_rmtp(params, n)), None
    )
    if n_star is None or episodes <= 0:
        return CrossoverResult(n_star, None, None, None, None)
    checked_n = min(n_star + 5, n_max)
    mc_rtbs = simulate_accuracy(
        params, checked_n, "rtbs", episodes, seed, m=m, threads=threads
    )
    mc_rmtp = simulate_accuracy(params, checked_n, "rmtp", episodes, seed + 1, threads=threads)
    return CrossoverResult(
        n_star=n_star,
        checked_n=checked_n,
        mc_confirmed=mc_rtbs.accuracy_hat > mc_rmtp.accuracy_hat,
        mc_rtbs=mc_rtbs,
        mc_rmtp=mc_rmtp,
    )
