"""The reflect-lab benchmark workloads.

Every workload is a closed loop over rounds.  A round is a fixed batch of
items whose inputs derive from (seed, round index) alone, and the next item
starts only when the previous one has finished.  Rounds are never cut short,
so every run measures the same mix of items.

  mc_grid          the criterion-01 grid through metrics.theory_vs_sim_rows
  mc_deep          sim.simulate_accuracy on chains of 100..400 steps (not in
                   BENCHMARK.json)
  sudoku_rollouts  groups of K rtbs rollouts per Sudoku query, then rlkit,
                   the record codec and error estimation
  corpus_mult      corpus.generate_corpus for mult, written and read back

Each workload checks its own outputs; an item whose check fails, or which
raises, counts as failed.  Items are timed with meter.METER, a clock that
runs at a reference machine speed (see meter.py).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import random
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from types import SimpleNamespace
from typing import Any, Optional

import numpy as np

from reflect_lab import corpus, engines, metrics, rlkit, sim, tasks, theory
from reflect_lab import rng as rng_mod
from reflect_lab.mtp import (
    DifficultyTier,
    Disposition,
    Outcome,
    Query,
    SelfVerifying,
    TaskName,
)

from meter import METER
from tracing import NullTracer, Tracer

# Monte-Carlo points must lie inside the two-sided |z| <= 5 band of their
# closed form.  The test is the exact binomial tail at that level, because
# many points expect fewer than one success (rtbs m=1 at n=30, rmtp at n=400)
# and there a single success is a five-sigma event under the normal law.
Z_LIMIT = 5.0
TAIL_LIMIT = 0.5 * math.erfc(Z_LIMIT / math.sqrt(2.0))

REF = theory.SimplifiedParams(mu=0.8, e_minus=0.3, e_plus=0.2, f=0.8)
HIGH = theory.SimplifiedParams(mu=0.95, e_minus=0.1, e_plus=0.1, f=0.9)
# Per-attempt tables that decay from each constant-rate point.
POSTERIOR = {
    REF: theory.PosteriorParams(
        mu=(0.8, 0.75, 0.7), e_minus=(0.3, 0.3, 0.3), e_plus=(0.2, 0.25, 0.3), f=0.8
    ),
    HIGH: theory.PosteriorParams(
        mu=(0.95, 0.93, 0.9), e_minus=(0.1, 0.1, 0.1), e_plus=(0.1, 0.12, 0.15), f=0.9
    ),
}

INJECTED_ERROR = 0.1
# Sudoku queries come from a fixed prompt set, as RL rollouts draw from a
# fixed query set; --seed drives the rollouts.  Rollout latency jumps from
# about 1 ms below 45 blanks to 3-18 ms above, right at the median, so
# puzzles drawn from the seed moved item_ms_p50 by about 15% between seeds
# and its ten-seed spread was 22%.
PROMPT_SET = 0


@dataclass
class Tally:
    """Items attempted and failed, and one latency per latency unit."""

    attempted: int = 0
    failed: int = 0
    latencies_ms: list[float] = field(default_factory=list)
    reasons: list[str] = field(default_factory=list)

    def fail(self, items: int, reason: str) -> None:
        self.failed += items
        if len(self.reasons) < 20:
            self.reasons.append(reason)


def binomial_tail_ok(successes: int, trials: int, p: float) -> bool:
    """False when the count lies in a binomial tail rarer than |z| = 5."""
    if p <= 0.0:
        return successes == 0
    if p >= 1.0:
        return successes == trials
    log_p, log_q = math.log(p), math.log1p(-p)
    base = math.lgamma(trials + 1)

    def pmf(k: int) -> float:
        return math.exp(
            base - math.lgamma(k + 1) - math.lgamma(trials - k + 1)
            + k * log_p + (trials - k) * log_q
        )

    step = 1 if successes >= trials * p else -1
    stop = trials + 1 if step == 1 else -1
    tail = 0.0
    for k in range(successes, stop, step):
        term = pmf(k)
        tail += term
        if tail >= TAIL_LIMIT:
            return True
        if term < 1e-300 or term < 1e-12 * tail:
            break
    return False


def zscore(successes: int, trials: int, p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0 if successes == p * trials else math.inf
    return (successes / trials - p) / math.sqrt(p * (1.0 - p) / trials)


def sha256_json(obj: Any) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def file_facts(path: str) -> tuple[int, str]:
    """Size and SHA-256 of a file the round wrote."""
    with open(path, "rb") as handle:
        data = handle.read()
    return len(data), hashlib.sha256(data).hexdigest()


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; exact for the integer counts it is used on."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


class Workload:
    """One workload: its rounds, checks, digests and per-layer metrics."""

    name = ""
    # What one latency sample times.
    unit = ""
    # Engine threads, passed explicitly to every Monte-Carlo call; never
    # taken from REFLECT_LAB_THREADS or os.cpu_count().
    threads: Optional[int] = None

    def __init__(self, size: str) -> None:
        self.digest: Optional[str] = None
        self.first_round: dict = {}

    def hooks(self, tracer: Tracer) -> None:
        """Swap traced wrappers in at library module attributes."""

    def warmup(self) -> None:
        raise NotImplementedError

    def run_round(self, seed: int, index: int, first: bool, tally: Tally,
                  tracer, workdir: str) -> None:
        raise NotImplementedError

    def finish(self, tally: Tally) -> None:
        """Checks that run once after the timed loop."""

    def layers(self, tracer: Tracer, items: int) -> dict[str, float]:
        raise NotImplementedError

    def baseline(self, layers: dict[str, float], tracer: Tracer) -> list[dict]:
        return []


# --- Monte-Carlo workloads ---------------------------------------------------


@dataclass(frozen=True)
class Point:
    params: theory.SimplifiedParams
    n: int
    mode: str
    m: Optional[int]
    posterior: bool = False

    def label(self) -> list:
        tag = "ref" if self.params == REF else "high"
        return [tag, self.n, self.mode, self.m, self.posterior]


class _CountingGenerator:
    """Generator stand-in that counts the engine's loop passes and rows.

    The vector engine draws rng.random(live_rows) once per loop pass.
    """

    def __init__(self, generator: np.random.Generator, sizes: list[int]) -> None:
        self._generator = generator
        self._sizes = sizes

    def random(self, size=None, *args, **kwargs):
        self._sizes.append(1 if size is None else int(size))
        return self._generator.random(size, *args, **kwargs)


def _keep_sim_call(args, kwargs, result) -> dict:
    return {"args": args, "kwargs": kwargs, "result": result}


def _len_sum(result: sim.SimResult) -> int:
    if not result.successes:
        return 0
    return round(result.mean_length_correct * result.successes)


def shuffle_points(points: list[Point]) -> None:
    """A fixed order that mixes light and heavy points, so that every latency
    quantile draws on points from the whole run, not from one stretch of it
    that a slow spell of the machine may cover."""
    random.Random(0).shuffle(points)


class _MonteCarlo(Workload):
    unit = "point"
    episodes = 0

    def __init__(self, size: str) -> None:
        super().__init__(size)
        self.points: list[Point] = []
        self.results: list[tuple[Point, sim.SimResult, float]] = []

    def run_point(self, point: Point, seed: int, tracer) -> tuple[sim.SimResult, float]:
        raise NotImplementedError

    def hooks(self, tracer: Tracer) -> None:
        for module in (sim, metrics):
            tracer.patch_wrap(module, "simulate_accuracy", "sim.simulate_accuracy",
                              _keep_sim_call)
        for name in ("rho_nonreflective", "rho_rmtp", "rho_rtbs"):
            tracer.patch_wrap(metrics, name, "theory")
        for name in ("rho_rmtp", "rho_rtbs", "posterior_rho_rmtp", "posterior_rtbs_table"):
            tracer.patch_wrap(theory, name, "theory")

    def run_round(self, seed, index, first, tally, tracer, workdir) -> None:
        tuples = []
        for k, point in enumerate(self.points):
            tracer.item = (index, k)
            point_seed = rng_mod.derive_key(seed, index, k)[1]
            METER.checkpoint()
            start = METER.now()
            try:
                result, expected = self.run_point(point, point_seed, tracer)
            except Exception as exc:  # a raising item is a failed item
                tally.attempted += self.episodes
                tally.fail(self.episodes, f"{point.label()}: {exc!r}")
                continue
            tally.latencies_ms.append((METER.now() - start) * 1e3)
            tally.attempted += result.episodes
            self.results.append((point, result, expected))
            tuples.append(
                point.label() + [result.successes, _len_sum(result), result.budget_exhausted]
            )
        if first:
            self.first_round = {"tuples": tuples}
            if self.digest is None:
                self.digest = sha256_json(tuples)

    def finish(self, tally: Tally) -> None:
        for point, result, expected in self.results:
            if result.budget_dominated:
                tally.fail(result.episodes, f"{point.label()}: budget-dominated")
            elif not binomial_tail_ok(result.successes, result.episodes, expected):
                z = zscore(result.successes, result.episodes, expected)
                tally.fail(result.episodes,
                           f"{point.label()}: {result.successes}/{result.episodes} "
                           f"vs closed form {expected!r} (z = {z:.2f})")
        self.results.clear()

    def warmup(self) -> None:
        sim.simulate_accuracy(REF, 3, "rtbs", 64, 0, m=2, threads=self.threads)

    def layers(self, tracer: Tracer, items: int) -> dict[str, float]:
        sims = [i for i in tracer.indices("sim.simulate_accuracy") if i in tracer.attrs]
        points = len(sims)
        out: dict[str, float] = {}
        for mode in ("none", "rmtp", "rtbs"):
            mine = [i for i in sims if tracer.attrs[i]["args"][2] == mode]
            if not mine:
                continue
            seconds = [tracer.seconds(i) for i in mine]
            steps = sum(tracer.attrs[i]["args"][1] * tracer.attrs[i]["args"][3] for i in mine)
            out[f"sim.point_ms.{mode}"] = statistics.median(seconds) * 1e3
            out[f"sim.ns_per_episode_step.{mode}"] = sum(seconds) / steps * 1e9
        out["theory.check_ms"] = tracer.total("theory") / points * 1e3
        tuples = self.first_round["tuples"]
        successes = sum(t[-3] for t in tuples)
        out["sim.proposals_per_correct"] = sum(t[-2] for t in tuples) / max(successes, 1)
        out["sim.budget_exhausted_share"] = (
            sum(t[-1] for t in tuples) / (len(tuples) * self.episodes)
        )
        out.update(self._thread_probe(tracer, sims))
        return out

    def _thread_probe(self, tracer: Tracer, sims: list[int]) -> dict[str, float]:
        """Re-run the heaviest rmtp and rtbs points at 1 and 2 threads.

        Gives the 2-thread speedup of the heaviest point overall and the
        single-thread cost per live row per engine loop pass.
        """
        out: dict[str, float] = {}
        heaviest: dict[str, int] = {}
        for i in sims:
            mode = tracer.attrs[i]["args"][2]
            if mode in ("rmtp", "rtbs") and (
                mode not in heaviest or tracer.seconds(i) > tracer.seconds(heaviest[mode])
            ):
                heaviest[mode] = i
        speedups = {}
        for mode, i in heaviest.items():
            args, kwargs = tracer.attrs[i]["args"], tracer.attrs[i]["kwargs"]
            # Alternate the two settings so a slow spell of the machine does
            # not land on one of them only; keep the fastest of each.
            calls = [self._timed_call(args, kwargs, threads) for _ in range(3) for threads in (1, 2)]
            one, rows = min(calls[0::2])
            two, _ = min(calls[1::2])
            out[f"sim.ns_per_row_pass.{mode}"] = one / rows * 1e9
            speedups[tracer.seconds(i)] = one / two
        if speedups:
            out["sim.thread_speedup"] = speedups[max(speedups)]
        return out

    @staticmethod
    def _timed_call(args, kwargs, threads: int) -> tuple[float, int]:
        sizes: list[int] = []
        original = sim.rng_mod
        sim.rng_mod = SimpleNamespace(
            stream=lambda seed, *path: _CountingGenerator(original.stream(seed, *path), sizes)
        )
        try:
            start = perf_counter()
            sim.simulate_accuracy(*args, **dict(kwargs, threads=threads))
            return perf_counter() - start, sum(sizes)
        finally:
            sim.rng_mod = original

    def baseline(self, layers, tracer) -> list[dict]:
        note = "heaviest point of the round, 1 thread"
        return [
            {"what": "ns per live row per loop pass, rmtp", "roadmap": "about 30",
             "measured": layers.get("sim.ns_per_row_pass.rmtp"), "unit": "ns", "note": note},
            {"what": "ns per live row per loop pass, rtbs", "roadmap": "100-135",
             "measured": layers.get("sim.ns_per_row_pass.rtbs"), "unit": "ns", "note": note},
            {"what": "speedup from 2 threads", "roadmap": "1.16",
             "measured": layers.get("sim.thread_speedup"), "unit": "x",
             "note": f"heaviest point, {self.episodes} episodes"},
        ]


class McGrid(_MonteCarlo):
    """Criterion-01 shape: REF point, n = 1..30, none / rmtp / rtbs widths."""

    name = "mc_grid"
    # One thread: on a shared 2-vCPU machine two engine threads made the
    # run-to-run spread of this workload about 38%, against about 1% for one
    # thread, for no measurable gain.  sim.thread_speedup tracks 2 threads.
    threads = 1

    def __init__(self, size: str) -> None:
        super().__init__(size)
        # Two engine batches per point, one full and one of 7232 episodes,
        # as in the grid the roadmap's 2-thread figure was first taken on.
        self.episodes = 40000 if size == "full" else 512
        n_values = range(1, 31) if size == "full" else (1, 2, 30)
        self.points = [
            Point(REF, n, mode, m)
            for n in n_values
            for mode, widths in (("none", [None]), ("rmtp", [None]),
                                 ("rtbs", [1, 2, 4, 16, 64]))
            for m in widths
        ]
        shuffle_points(self.points)

    def warmup(self) -> None:
        metrics.theory_vs_sim_rows(REF, ("rtbs",), (3,), (2,), 64, 0, threads=self.threads)

    def run_point(self, point, seed, tracer):
        with tracer.span("metrics.theory_vs_sim_rows"):
            (row,) = metrics.theory_vs_sim_rows(
                point.params, (point.mode,), (point.n,),
                (point.m,) if point.m else (), self.episodes, seed, threads=self.threads,
            )
        return row.result, row.theory

    def layers(self, tracer, items):
        out = super().layers(tracer, items)
        out["metrics.rows_self_ms"] = (
            tracer.self_total("metrics.theory_vs_sim_rows")
            / tracer.count("metrics.theory_vs_sim_rows") * 1e3
        )
        return out


class McDeep(_MonteCarlo):
    """Long chains at REF and a high-reliability point, with per-attempt tables.

    Runnable by name but not listed in BENCHMARK.json: its run-to-run spread
    stays too wide for the bound (see perfbench/README.md, Steadiness).
    """

    name = "mc_deep"
    threads = 2

    def __init__(self, size: str) -> None:
        super().__init__(size)
        # One engine batch per point: nothing for a second thread to take.
        # Thirteen scales, so neighbouring points near the median and the
        # 90th percentile differ little in cost.
        self.episodes = 512 if size == "full" else 64
        n_values = range(100, 401, 25) if size == "full" else (20, 40)
        self.points = [
            Point(params, n, mode, m, posterior)
            for params in (REF, HIGH)
            for n in n_values
            for mode, m, posterior in (("rmtp", None, False), ("rtbs", 4, False),
                                       ("rtbs", 16, False), ("rmtp", None, True),
                                       ("rtbs", 4, True))
        ]
        shuffle_points(self.points)

    def warmup(self) -> None:
        sim.simulate_accuracy(REF, 3, "rtbs", 64, 0, m=2, threads=self.threads,
                              posterior=POSTERIOR[REF])
        theory.posterior_rtbs_table(POSTERIOR[REF], 2, 3)

    def run_point(self, point, seed, tracer):
        posterior = POSTERIOR[point.params] if point.posterior else None
        result = sim.simulate_accuracy(
            point.params, point.n, point.mode, self.episodes, seed,
            m=point.m, threads=self.threads, posterior=posterior,
        )
        if posterior is None:
            expected = (theory.rho_rmtp(point.params, point.n) if point.mode == "rmtp"
                        else theory.rho_rtbs(point.params, point.m, point.n))
        elif point.mode == "rmtp":
            expected = theory.posterior_rho_rmtp(posterior, point.n)
        else:
            table = theory.posterior_rtbs_table(posterior, point.m, point.n)
            expected = float(np.prod(table.sigma[1 : point.n + 1]))
        return result, expected


# --- Sudoku rollouts ---------------------------------------------------------


def valid_solution(puzzle: tuple[int, ...], cells: tuple[int, ...]) -> bool:
    """A full 9x9 board whose rows, columns and boxes are 1..9 and which
    keeps every given of the puzzle."""
    digits = set(range(1, 10))
    if len(cells) != 81 or any(c not in digits for c in cells):
        return False
    units = (
        [[r * 9 + c for c in range(9)] for r in range(9)]
        + [[r * 9 + c for r in range(9)] for c in range(9)]
        + [[(br + r) * 9 + bc + c for r in range(3) for c in range(3)]
           for br in (0, 3, 6) for bc in (0, 3, 6)]
    )
    if any({cells[i] for i in unit} != digits for unit in units):
        return False
    return all(g == 0 or g == c for g, c in zip(puzzle, cells))


def _record_counts(records) -> dict:
    """Exact counts over one round of episode records."""
    proposals, tracebacks, accepted = [], 0, 0
    first_attempts = first_rejected = 0
    for record in records:
        fresh = True
        count = 0
        for event in record.events:
            if event.disposition is Disposition.TRACEBACK:
                tracebacks += 1
                fresh = False
                continue
            count += 1
            rejected = event.disposition is Disposition.REJECTED
            if fresh:
                first_attempts += 1
                first_rejected += rejected
            accepted += not rejected
            fresh = not rejected
        proposals.append(count)
    outcomes = [r.outcome for r in records]
    return {
        "episodes": len(records),
        "proposals": proposals,
        "accepted": accepted,
        "tracebacks": tracebacks,
        "first_attempts": first_attempts,
        "first_rejected": first_rejected,
        "correct": outcomes.count(Outcome.CORRECT),
        "exhausted": outcomes.count(Outcome.BUDGET_EXHAUSTED),
    }


class SudokuRollouts(Workload):
    """K rtbs rollouts per id_hard query, as in RL-style rollout groups."""

    name = "sudoku_rollouts"
    unit = "rollout"

    def __init__(self, size: str) -> None:
        super().__init__(size)
        # One query per blank count of the id_hard range, so every round has
        # the same difficulty mix and runs of different length compare.
        lo, hi = tasks.SUDOKU_TIER_BLANKS[DifficultyTier.ID_HARD]
        self.blanks = list(range(lo, hi + 1)) if size == "full" else [lo, hi]
        self.rollouts = 8
        self.config = engines.ReflectConfig(reflective_budget=64, total_budget=96,
                                            rtbs_width=4)
        self.policy = tasks.make_noisy_policy(tasks.expert_policy(TaskName.SUDOKU), 0.3)
        self.transition = tasks.transition_for(TaskName.SUDOKU)

    def hooks(self, tracer: Tracer) -> None:
        tracer.patch_wrap(rng_mod, "stream", "rng.stream")

    def warmup(self) -> None:
        query = self._query(rng_mod.stream(0, 0), 20, NullTracer())
        self._rollout(query, rng_mod.stream(0, 1), NullTracer())

    def _query(self, qrng, blanks: int, tracer) -> Query:
        with tracer.span("tasks.gen_query.sudoku"):
            full = tasks.generate_full_board(qrng)
            puzzle = tasks.make_puzzle(full, blanks, qrng)
        return Query(TaskName.SUDOKU, puzzle, DifficultyTier.ID_HARD)

    def _rollout(self, query: Query, erng, tracer):
        verifier = tasks.make_noisy_verifier(
            tasks.OracleVerifier(query), INJECTED_ERROR, INJECTED_ERROR
        )
        policy, transition = self.policy, self.transition
        if tracer.active:
            policy = tracer.method("tasks.policy.sudoku", policy, "sample")
            verifier = tracer.method("tasks.verify.sudoku", verifier, "verify")
            transition = tracer.method("tasks.transition.sudoku", transition, "apply")
        with tracer.span("engines.run_rtbs"):
            return engines.run_rtbs(SelfVerifying(policy, verifier), transition, query,
                                    self.config, erng)

    def run_round(self, seed, index, first, tally, tracer, workdir) -> None:
        records = []
        for q, blanks in enumerate(self.blanks):
            tracer.item = (index, q)
            query = self._query(rng_mod.stream(PROMPT_SET, index, q), blanks, tracer)
            group = []
            for k in range(self.rollouts):
                tracer.item = (index, q, k)
                erng = rng_mod.stream(seed, index, q, k)
                METER.checkpoint()
                start = METER.now()
                tally.attempted += 1
                try:
                    record = self._rollout(query, erng, tracer)
                except Exception as exc:  # a raising item is a failed item
                    tally.fail(1, f"rollout {(index, q, k)}: {exc!r}")
                    continue
                tally.latencies_ms.append((METER.now() - start) * 1e3)
                if not self._answer_checks(query, record):
                    tally.fail(1, f"rollout {(index, q, k)}: answer disagrees with "
                                  f"outcome {record.outcome.value}")
                group.append(record)
            tracer.item = (index, q)
            if len(group) >= 2 and not self._group_checks(group, tracer):
                tally.fail(len(group), f"group {(index, q)}: advantages do not check")
            records.extend(group)
        tracer.item = (index,)
        self._round_checks(records, index, first, tally, tracer, workdir)

    @staticmethod
    def _answer_checks(query: Query, record) -> bool:
        """CORRECT answers must solve the puzzle, INCORRECT ones must not."""
        if record.answer is None:
            return record.outcome is not Outcome.CORRECT
        board = record.answer.content
        solved = valid_solution(query.payload.cells, tuple(getattr(board, "cells", ())))
        return solved == (record.outcome is Outcome.CORRECT)

    @staticmethod
    def _group_checks(group, tracer) -> bool:
        with tracer.span("rlkit.group"):
            table = rlkit.grpo_group_advantages(rlkit.group_from_records(group))
            for record in group:
                table = rlkit.mask_rejected_advantages(record, table)
        outcome_sum = sum(row.advantages[0] for row in table.rows if row.advantages)
        masks_ok = all(
            row.step_masked == tuple(e.disposition is Disposition.REJECTED for e in r.events)
            for row, r in zip(table.rows, group)
        )
        return abs(outcome_sum) <= 1e-9 * len(group) and masks_ok

    def _round_checks(self, records, index, first, tally, tracer, workdir) -> None:
        # One file, rewritten every round.
        path = os.path.join(workdir, "records.jsonl")
        with tracer.span("corpus.write_records"):
            corpus.write_records(records, path)
        with tracer.span("corpus.read_records"):
            back = list(corpus.read_records(path))
        with tracer.span("metrics.estimate_verification_errors"):
            estimate = metrics.estimate_verification_errors(back, tasks.step_leads_positive)
        if len(back) != len(records):
            tally.fail(len(records), f"round {index}: {len(back)} of {len(records)} "
                                     "records read back")
        else:
            bad = sum(a != b for a, b in zip(records, back))
            if bad:
                tally.fail(bad, f"round {index}: {bad} records changed in the round trip")
        for rate, errors, trials in (
            ("e_minus", estimate.e_minus_hat, estimate.n_oracle_positive),
            ("e_plus", estimate.e_plus_hat, estimate.n_oracle_negative),
        ):
            if trials and not binomial_tail_ok(round(errors * trials), trials,
                                               INJECTED_ERROR):
                tally.fail(len(records), f"round {index}: {rate} estimate {errors!r} "
                                         f"over {trials} is off the injected 0.1")
        if first:
            size, digest = file_facts(path)
            self.first_round = dict(_record_counts(records), bytes=size)
            if self.digest is None:
                self.digest = digest

    def layers(self, tracer: Tracer, items: int) -> dict[str, float]:
        counts = self.first_round
        episodes = tracer.durations("engines.run_rtbs")
        engine_total = sum(episodes)
        out = {
            "engines.episode_ms_p50": statistics.median(episodes) * 1e3,
            "engines.episode_ms_p90": quantile(episodes, 0.9) * 1e3,
            "engines.self_share": (
                engine_total - tracer.children_total("engines.run_rtbs", "tasks.")
            ) / engine_total,
            "engines.proposals_per_episode_p50": quantile(counts["proposals"], 0.5),
            "engines.proposals_per_episode_p99": quantile(counts["proposals"], 0.99),
            "engines.accept_ratio": counts["accepted"] / sum(counts["proposals"]),
            "engines.tracebacks_per_episode": counts["tracebacks"] / counts["episodes"],
            "engines.first_attempt_reject_rate": (
                counts["first_rejected"] / counts["first_attempts"]
            ),
            "engines.budget_exhausted_share": counts["exhausted"] / counts["episodes"],
            "engines.accuracy": counts["correct"] / counts["episodes"],
            "tasks.gen_query_ms.sudoku": mean(tracer.durations("tasks.gen_query.sudoku")) * 1e3,
            "corpus.bytes_per_item.record": counts["bytes"] / counts["episodes"],
            "rlkit.group_us": mean(tracer.durations("rlkit.group")) * 1e6,
        }
        records = tracer.count("engines.run_rtbs")
        for name, key in (("corpus.write_records", "corpus.encode_us.record"),
                          ("corpus.read_records", "corpus.decode_us.record"),
                          ("metrics.estimate_verification_errors",
                           "metrics.estimate_us_per_record")):
            out[key] = tracer.total(name) / records * 1e6
        out.update(_task_layers(tracer, "sudoku", items))
        out.update(_rng_layers(tracer, items))
        return out

    def baseline(self, layers, tracer) -> list[dict]:
        episode = mean(tracer.durations("engines.run_rtbs")) * 1e3
        gen = layers["tasks.gen_query_ms.sudoku"]
        note = ("noisy expert (0.3) and noisy oracle verifier (0.1); one query "
                "generated per episode, as run-task does")
        return [
            {"what": "ms per Sudoku id_hard rtbs episode", "roadmap": "about 8",
             "measured": episode + gen, "unit": "ms", "note": note},
            {"what": "share of that episode in puzzle generation", "roadmap": "about 0.5",
             "measured": gen / (episode + gen), "unit": "ratio", "note": note},
        ]


def _task_layers(tracer: Tracer, task: str, items: int) -> dict[str, float]:
    out = {}
    for part in ("policy", "verify", "transition"):
        seconds = tracer.durations(f"tasks.{part}.{task}")
        out[f"tasks.{part}_us.{task}"] = mean(seconds) * 1e6
        out[f"tasks.{part}_us.{task}.calls"] = len(seconds) / items
    return out


def _rng_layers(tracer: Tracer, items: int) -> dict[str, float]:
    seconds = tracer.durations("rng.stream")
    return {"rng.stream_us": mean(seconds) * 1e6, "rng.stream_calls": len(seconds) / items}


# --- Mult corpus -------------------------------------------------------------


class CorpusMult(Workload):
    """generate_corpus for mult, written with write_examples and read back."""

    name = "corpus_mult"
    unit = "example"

    def __init__(self, size: str) -> None:
        super().__init__(size)
        self.count = 500 if size == "full" else 16

    def spec(self, seed: int, count: int) -> corpus.CorpusSpec:
        return corpus.CorpusSpec(
            task=TaskName.MULT,
            example_count=count,
            tier_mix=((DifficultyTier.ID_EASY, 0.5), (DifficultyTier.ID_HARD, 0.5)),
            style=corpus.CotStyle.DETAILED,
            proposal_noise=0.2,
            seed=seed,
        )

    def hooks(self, tracer: Tracer) -> None:
        tracer.patch_wrap(rng_mod, "stream", "rng.stream")
        tracer.patch_wrap(corpus, "gen_query", "tasks.gen_query.mult")
        make_noisy_policy = corpus.make_noisy_policy
        transition_for = corpus.transition_for
        detailed_verifier = corpus.detailed_verifier
        tracer.patch(corpus, "make_noisy_policy", lambda base, p: tracer.method(
            "tasks.policy.mult", make_noisy_policy(base, p), "sample"))
        tracer.patch(corpus, "transition_for", lambda task: tracer.method(
            "tasks.transition.mult", transition_for(task), "apply"))
        tracer.patch(corpus, "detailed_verifier", lambda task: SimpleNamespace(
            rule=tracer.wrap("tasks.verify.mult", detailed_verifier(task).rule)))

    def warmup(self) -> None:
        for example in corpus.generate_corpus(self.spec(0, 2)):
            corpus.example_from_json(json.loads(corpus.dumps_json_line(
                corpus.example_to_json(example))))

    def run_round(self, seed, index, first, tally, tracer, workdir) -> None:
        count = self.count
        tracer.item = (index,)
        spec = self.spec(rng_mod.derive_key(seed, index)[1], count)
        written: list = []
        spent = [0.0] * count

        def timed_examples():
            source = corpus.generate_corpus(spec)
            for k in range(count):
                tracer.item = (index, k)
                start = METER.now()
                with tracer.span("corpus.generate_example"):
                    example = next(source)
                written.append(example)
                yield example
                # Back here once write_examples has encoded and written it.
                spent[k] = METER.now() - start
            tracer.item = (index,)

        path = os.path.join(workdir, "examples.jsonl")
        tally.attempted += count
        try:
            with tracer.span("corpus.write_examples"):
                corpus.write_examples(timed_examples(), path)
            back = []
            with tracer.span("corpus.read_examples"):
                start = METER.now()
                for k, example in enumerate(corpus.read_examples(path)):
                    now = METER.now()
                    if k < count:
                        spent[k] += now - start
                    back.append(example)
                    start = now
        except Exception as exc:  # a raising round fails all of its items
            tally.fail(count, f"round {index}: {exc!r}")
            return
        tally.latencies_ms.extend(s * 1e3 for s in spent)
        if len(back) != count or len(written) != count:
            tally.fail(count, f"round {index}: wrote {len(written)}, read {len(back)} "
                              f"of {count} examples")
            return
        bad = 0
        for original, copy in zip(written, back):
            x, y = original.query.payload
            # Two corrupted steps can cancel out, so only this direction holds.
            clean = not any(s.verification.rejected for s in original.steps)
            if original != copy or (clean and original.answer.content != x * y):
                bad += 1
        if bad:
            tally.fail(bad, f"round {index}: {bad} examples changed in the round trip "
                            "or have all-positive labels and a wrong answer")
        if first:
            size, digest = file_facts(path)
            self.first_round = {"examples": count, "bytes": size}
            if self.digest is None:
                self.digest = digest

    def layers(self, tracer: Tracer, items: int) -> dict[str, float]:
        examples = tracer.count("corpus.generate_example")
        out = {
            "corpus.generate_ms_per_example": (
                mean(tracer.durations("corpus.generate_example")) * 1e3
            ),
            "corpus.encode_us.example": (
                tracer.self_total("corpus.write_examples") / examples * 1e6
            ),
            "corpus.decode_us.example": tracer.total("corpus.read_examples") / examples * 1e6,
            "corpus.bytes_per_item.example": (
                self.first_round["bytes"] / self.first_round["examples"]
            ),
            "tasks.gen_query_ms.mult": mean(tracer.durations("tasks.gen_query.mult")) * 1e3,
        }
        out.update(_task_layers(tracer, "mult", items))
        out.update(_rng_layers(tracer, items))
        return out

    def baseline(self, layers, tracer) -> list[dict]:
        spec = dataclasses.replace(
            corpus.default_corpus_spec(TaskName.SUDOKU, seed=1), example_count=24
        )
        start = perf_counter()
        produced = sum(1 for _ in corpus.generate_corpus(spec))
        sudoku_ms = (perf_counter() - start) / produced * 1e3
        return [
            {"what": "ms per mult corpus example", "roadmap": "about 0.2",
             "measured": layers["corpus.generate_ms_per_example"], "unit": "ms",
             "note": "detailed style, noise 0.2, generation only"},
            {"what": "ms per Sudoku corpus example", "roadmap": "about 4.5",
             "measured": sudoku_ms, "unit": "ms",
             "note": "gen-data defaults (binary, noise 0.2), 24 examples, "
                     "generation only; measured beside the mult loop"},
        ]


WORKLOADS = {w.name: w for w in (McGrid, McDeep, SudokuRollouts, CorpusMult)}


def make(name: str, size: str = "full") -> Workload:
    return WORKLOADS[name](size)
