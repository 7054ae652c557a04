"""Training-corpus generation and JSONL (de)serialization.

A corpus example is one full reasoning chain for one query: the step list
with verification labels, plus the final answer.  Four labeling styles:

  none               expert chains, no verification labels at all
  binary             noisy-policy chains, one exact rule label per step
  detailed           noisy-policy chains, per-element rule labels
  optional_detailed  each detailed example is emitted twice, once with its
                     labels and once with empty verification

The JSONL schema is frozen; one object per line:

  {"task": "mult", "tier": "id_easy", "query": [12, 34], "style": "binary",
   "steps": [{"state": "12*34+0", "step": {...}, "labels": "+"}],
   "answer": 408}

Queries and states use the task text renderings (Mult `x*y+z` strings as a
[x, y] pair for the query; Sudoku boards as 9 lines of 9 digits).  Labels
are "+"/"-" strings, empty for unverified steps.  Episode records reuse the
same state/step encodings with a disposition and outcome attached.
"""

from __future__ import annotations

import enum
import gzip
import json
from dataclasses import dataclass
from typing import IO, Any, Iterable, Iterator, Optional

from . import rng as rng_mod
from .engines import mode_config, run_rtbs
from .mtp import (
    DifficultyTier,
    Disposition,
    EpisodeRecord,
    Event,
    Outcome,
    Query,
    SelfVerifying,
    Step,
    TaskHooks,
    TaskName,
    Verification,
    VerifiedStep,
    task_hooks,
)
from .tasks import (
    TRAINING_TIERS,
    binary_verifier,
    detailed_verifier,
    expert_policy,
    gen_query,
    make_noisy_policy,
    transition_for,
)

# Generous caps on chain length: Mult uses at most one step per distinct
# digit value plus the answer; Sudoku fills at least one blank per step.
_EPISODE_BUDGET = 128


class CotStyle(str, enum.Enum):
    NONE = "none"
    BINARY = "binary"
    DETAILED = "detailed"
    OPTIONAL_DETAILED = "optional_detailed"


DEFAULT_EXAMPLE_COUNTS = {TaskName.MULT: 32000, TaskName.SUDOKU: 36000}


class CorpusFormatError(ValueError):
    """A JSONL line failed to parse or to validate against the schema."""


@dataclass(frozen=True)
class CotExample:
    """One serialized chain: query, labeled steps, final answer."""

    query: Query
    steps: tuple[VerifiedStep, ...]
    answer: Step
    style: CotStyle

    def __post_init__(self) -> None:
        if not self.answer.is_answer:
            raise ValueError("answer must be an answer step")
        if any(s.step.is_answer for s in self.steps):
            raise ValueError("steps must not contain answer steps")
        if self.style is CotStyle.NONE:
            if any(s.verification.labels for s in self.steps):
                raise ValueError("style none requires empty verifications")
        elif self.style is not CotStyle.OPTIONAL_DETAILED:
            if any(not s.verification.labels for s in self.steps):
                raise ValueError(f"style {self.style.value} requires labels on every step")


@dataclass(frozen=True)
class CorpusSpec:
    """What to generate: task, size, difficulty mix, style, noise, seed.

    tier_mix maps training tiers to nonnegative weights (the held-out
    hardest tier is not allowed); counts are apportioned by largest
    remainder so they always sum exactly to example_count.
    """

    task: TaskName
    example_count: int
    tier_mix: tuple[tuple[DifficultyTier, float], ...]
    style: CotStyle
    proposal_noise: float
    seed: int

    def __post_init__(self) -> None:
        if task_hooks(self.task).gen_query is None:
            raise ValueError("corpus generation needs a task with a query generator")
        if self.example_count < 0:
            raise ValueError("example_count must be >= 0")
        if not self.tier_mix:
            raise ValueError("tier_mix must name at least one tier")
        for tier, weight in self.tier_mix:
            if tier not in TRAINING_TIERS:
                raise ValueError(f"tier {tier.value} is held out of training data")
            if weight < 0.0:
                raise ValueError("tier weights must be nonnegative")
        if sum(w for _, w in self.tier_mix) <= 0.0:
            raise ValueError("tier weights must not all be zero")
        if not 0.0 <= self.proposal_noise <= 1.0:
            raise ValueError("proposal_noise must be in [0, 1]")
        if self.style is CotStyle.NONE and self.proposal_noise > 0.0:
            raise ValueError("style none emits expert chains; proposal_noise must be 0")

    def tier_counts(self) -> dict[DifficultyTier, int]:
        """Integer apportionment of example_count over the tier mix."""
        total_weight = sum(w for _, w in self.tier_mix)
        shares = [
            (tier, self.example_count * w / total_weight) for tier, w in self.tier_mix
        ]
        counts = {tier: int(share) for tier, share in shares}
        short = self.example_count - sum(counts.values())
        by_remainder = sorted(
            shares, key=lambda item: (item[1] - int(item[1]), item[0].value), reverse=True
        )
        for tier, _ in by_remainder[:short]:
            counts[tier] += 1
        return counts


def default_corpus_spec(
    task: TaskName,
    *,
    style: CotStyle = CotStyle.BINARY,
    proposal_noise: float = 0.2,
    seed: int = 0,
) -> CorpusSpec:
    return CorpusSpec(
        task=task,
        example_count=DEFAULT_EXAMPLE_COUNTS[task],
        tier_mix=(
            (DifficultyTier.ID_EASY, 0.5),
            (DifficultyTier.ID_HARD, 0.5),
        ),
        style=style,
        proposal_noise=proposal_noise,
        seed=seed,
    )


def _labeling_rule(task: TaskName, style: CotStyle):
    if style is CotStyle.BINARY:
        return binary_verifier(task).rule
    return detailed_verifier(task).rule


def generate_corpus(spec: CorpusSpec) -> Iterator[CotExample]:
    """Generate examples one by one, deterministically from spec alone.

    Every example runs on its own derived random stream, so the stream is
    embarrassingly parallel in principle; this implementation keeps the
    natural serial order, which is also the file order.

    Styles with labels draw chains from the noisy policy and label each step
    with the exact rule verifier afterwards; corrupted chains keep their
    (wrong) final answers, the labels are what marks the bad steps.  The
    optional style yields each labeled example followed by its
    empty-verification duplicate, doubling the stream length.
    """
    counts = spec.tier_counts()
    assignments: list[DifficultyTier] = []
    for tier, _ in spec.tier_mix:
        assignments.extend([tier] * counts[tier])
    policy = make_noisy_policy(expert_policy(spec.task), spec.proposal_noise)
    # Budget 0: the verifier is never consulted; the rule labels steps afterwards.
    sv = SelfVerifying(policy, binary_verifier(spec.task))
    config = mode_config("none", None, 0, _EPISODE_BUDGET)
    transition = transition_for(spec.task)
    rule = None if spec.style is CotStyle.NONE else _labeling_rule(spec.task, spec.style)
    for index, tier in enumerate(assignments):
        example_rng = rng_mod.stream(spec.seed, index)
        query = gen_query(spec.task, tier, example_rng)
        record = run_rtbs(sv, transition, query, config, example_rng)
        if record.answer is None:
            raise RuntimeError("episode budget exhausted during corpus generation")
        steps = []
        for event in record.events:
            step = event.verified.step
            if step.is_answer:
                continue
            verification = Verification() if rule is None else rule(event.state, step)
            steps.append(VerifiedStep(step, verification))
        if spec.style is CotStyle.OPTIONAL_DETAILED:
            yield CotExample(query, tuple(steps), record.answer, spec.style)
            bare = tuple(VerifiedStep(s.step, Verification()) for s in steps)
            yield CotExample(query, bare, record.answer, spec.style)
        else:
            yield CotExample(query, tuple(steps), record.answer, spec.style)


# --- JSON encoding ---------------------------------------------------------


def _labels_to_text(verification: Verification) -> str:
    return "".join("+" if ok else "-" for ok in verification.labels)


def _labels_from_text(text: str) -> Verification:
    if any(ch not in "+-" for ch in text):
        raise CorpusFormatError(f"labels must be '+'/'-' strings, got {text!r}")
    return Verification(tuple(ch == "+" for ch in text))


def _step_to_json(hooks: TaskHooks, step: Step) -> Any:
    if step.is_answer:
        return hooks.answer_to_json(step.content)
    return hooks.move_to_json(step.content)


def _step_from_json(hooks: TaskHooks, obj: Any, is_answer: bool) -> Step:
    if is_answer:
        return Step(hooks.answer_from_json(obj), is_answer=True)
    return Step(hooks.move_from_json(obj))


def _query_from_json(obj: dict) -> tuple[TaskHooks, Query]:
    task = TaskName(obj["task"])
    hooks = task_hooks(task)
    tier = DifficultyTier(obj["tier"]) if obj.get("tier") else None
    return hooks, Query(task, hooks.payload_from_json(obj["query"]), tier)


def example_to_json(example: CotExample) -> dict:
    task = example.query.task
    hooks = task_hooks(task)
    steps_json = []
    # Re-derive the state chain so each serialized step carries the state
    # it was proposed from.
    state = hooks.initial_state(example.query)
    transition = transition_for(task)
    for vstep in example.steps:
        steps_json.append(
            {
                "state": hooks.render_state(state),
                "step": _step_to_json(hooks, vstep.step),
                "labels": _labels_to_text(vstep.verification),
            }
        )
        state = transition.apply(state, vstep.step)
    return {
        "task": task.value,
        "tier": example.query.tier.value if example.query.tier else None,
        "query": hooks.payload_to_json(example.query.payload),
        "style": example.style.value,
        "steps": steps_json,
        "answer": _step_to_json(hooks, example.answer),
    }


def example_from_json(obj: dict) -> CotExample:
    """Decode one example, re-deriving its state chain from the query: a
    step whose stored state disagrees with the chain raises
    CorpusFormatError."""
    try:
        hooks, query = _query_from_json(obj)
        style = CotStyle(obj["style"])
        state = hooks.initial_state(query)
        transition = transition_for(query.task)
        steps = []
        for index, item in enumerate(obj["steps"]):
            expected = hooks.render_state(state)
            if item["state"] != expected:
                raise CorpusFormatError(
                    f"step {index}: state {item['state']!r} does not follow "
                    f"from the query and earlier steps (expected {expected!r})"
                )
            step = _step_from_json(hooks, item["step"], is_answer=False)
            steps.append(VerifiedStep(step, _labels_from_text(item["labels"])))
            state = transition.apply(state, step)
        answer = _step_from_json(hooks, obj["answer"], is_answer=True)
    except (KeyError, TypeError, ValueError) as exc:
        raise CorpusFormatError(str(exc)) from exc
    return CotExample(query, tuple(steps), answer, style)


def record_to_json(record: EpisodeRecord) -> dict:
    """Episode records reuse the example encodings, adding dispositions."""
    hooks = task_hooks(record.query.task)
    events_json = [
        {
            "state": hooks.render_state(event.state),
            "step": _step_to_json(hooks, event.verified.step),
            "is_answer": event.verified.step.is_answer,
            "labels": _labels_to_text(event.verified.verification),
            "disposition": event.disposition.value,
        }
        for event in record.events
    ]
    return {
        "task": record.query.task.value,
        "tier": record.query.tier.value if record.query.tier else None,
        "query": hooks.payload_to_json(record.query.payload),
        "events": events_json,
        "answer": None if record.answer is None else _step_to_json(hooks, record.answer),
        "outcome": record.outcome.value,
    }


def _event_from_json(hooks: TaskHooks, state: Any, item: dict) -> Event:
    return Event(
        state=state,
        verified=VerifiedStep(
            _step_from_json(hooks, item["step"], is_answer=bool(item["is_answer"])),
            _labels_from_text(item["labels"]),
        ),
        disposition=Disposition(item["disposition"]),
    )


def _replayed_events(hooks: TaskHooks, query: Query, items: list) -> list[Event]:
    """Re-derive each event's state from the query, the accepted steps and
    the tracebacks: an accepted non-answer step moves to its successor and
    keeps its parent, a traceback restores the latest kept parent and undoes
    the step taken from it.  An event whose stored state or undone step
    disagrees, or that follows an accepted answer, raises CorpusFormatError."""
    state = hooks.initial_state(query)
    # (parent state, step taken from it) per accepted link, oldest first.
    parents = []
    events = []
    answered = False
    for index, item in enumerate(items):
        if answered:
            raise CorpusFormatError(f"event {index}: follows the accepted answer")
        disposition = Disposition(item["disposition"])
        undone = None
        if disposition is Disposition.TRACEBACK:
            if not parents:
                raise CorpusFormatError(
                    f"event {index}: traceback with no accepted step to undo"
                )
            state, undone = parents.pop()
        expected = hooks.render_state(state)
        if item["state"] != expected:
            raise CorpusFormatError(
                f"event {index}: state {item['state']!r} does not follow from the "
                f"query and earlier events (expected {expected!r})"
            )
        event = _event_from_json(hooks, state, item)
        step = event.verified.step
        if undone is not None and step != undone:
            raise CorpusFormatError(
                f"event {index}: traceback undoes a step that was not taken"
            )
        events.append(event)
        if disposition is Disposition.ACCEPTED:
            answered = step.is_answer
            if not answered:
                parents.append((state, step))
                state = hooks.transition.apply(state, step)
    return events


def _checked_answer(
    hooks: TaskHooks, query: Query, events: list[Event], obj: dict
) -> tuple[Optional[Step], Outcome]:
    """The record's answer and outcome, re-derived from its events.

    An episode ends at its accepted answer step, so the answer is the step
    of the last event when that event accepts an answer, and None
    otherwise; an answered outcome is CORRECT exactly when the task's
    check_answer holds.  An unanswered episode is INCORRECT or
    BUDGET_EXHAUSTED, and the record cannot tell which: it does not carry
    the budget.  A stored answer or outcome that disagrees raises
    CorpusFormatError."""
    last = events[-1] if events else None
    answer = (
        last.verified.step
        if last is not None
        and last.disposition is Disposition.ACCEPTED
        and last.verified.step.is_answer
        else None
    )
    stored = obj["answer"]
    if stored is not None:
        stored = _step_from_json(hooks, stored, is_answer=True)
    if stored != answer:
        raise CorpusFormatError(
            f"answer {obj['answer']!r} is not the last event's accepted answer step"
        )
    outcome = Outcome(obj["outcome"])
    if answer is not None:
        correct = hooks.check_answer(query, answer)
        expected = Outcome.CORRECT if correct else Outcome.INCORRECT
        if outcome is not expected:
            raise CorpusFormatError(
                f"outcome {outcome.value!r} disagrees with the answer "
                f"(expected {expected.value!r})"
            )
    elif outcome is Outcome.CORRECT:
        raise CorpusFormatError("outcome 'correct' without an answer")
    return answer, outcome


def record_from_json(obj: dict) -> EpisodeRecord:
    """Decode one episode record, re-deriving every event's state (see
    _replayed_events) and its answer and outcome (see _checked_answer)."""
    try:
        hooks, query = _query_from_json(obj)
        events = _replayed_events(hooks, query, obj["events"])
        answer, outcome = _checked_answer(hooks, query, events, obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise CorpusFormatError(str(exc)) from exc
    return EpisodeRecord(query, tuple(events), answer, outcome)


# --- JSONL I/O -------------------------------------------------------------


def _open_text(path: str, mode: str) -> IO[str]:
    if path.endswith(".gz"):
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def dumps_json_line(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_jsonl(objects: Iterable[dict], path: str) -> int:
    """Write one JSON object per line; gzip when the path ends in .gz.

    Returns the number of lines written.
    """
    count = 0
    with _open_text(path, "w") as sink:
        for obj in objects:
            sink.write(dumps_json_line(obj))
            sink.write("\n")
            count += 1
    return count


def read_jsonl(path: str) -> Iterator[dict]:
    """Yield JSON objects; parse failures name the offending line."""
    with _open_text(path, "r") as source:
        for lineno, line in enumerate(source, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"{path}: line {lineno}: {exc}") from exc


def write_examples(examples: Iterable[CotExample], path: str) -> int:
    return write_jsonl((example_to_json(e) for e in examples), path)


def read_examples(path: str) -> Iterator[CotExample]:
    for lineno, obj in enumerate(read_jsonl(path), start=1):
        try:
            yield example_from_json(obj)
        except CorpusFormatError as exc:
            raise CorpusFormatError(f"{path}: line {lineno}: {exc}") from exc


def write_records(records: Iterable[EpisodeRecord], path: str) -> int:
    return write_jsonl((record_to_json(r) for r in records), path)


def read_records(path: str) -> Iterator[EpisodeRecord]:
    for lineno, obj in enumerate(read_jsonl(path), start=1):
        try:
            yield record_from_json(obj)
        except CorpusFormatError as exc:
            raise CorpusFormatError(f"{path}: line {lineno}: {exc}") from exc
