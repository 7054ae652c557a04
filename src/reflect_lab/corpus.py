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

One rule reads both files: a line loads exactly when what it decodes to
encodes back to it.  An example is re-encoded by example_to_json; a record
is replayed through engines.run_rtbs and re-encoded by record_to_json.  A
refusal names the first field that differs, with the stored value and the
written one.
"""

from __future__ import annotations

import enum
import gzip
import io
import json
import math
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Optional

from . import rng as rng_mod
from .engines import ReflectConfig, mode_config, run_rtbs
from .mtp import (
    UNVERIFIED,
    DifficultyTier,
    Disposition,
    EpisodeRecord,
    Outcome,
    Query,
    SelfVerifying,
    Step,
    TaskHooks,
    TaskName,
    Verification,
    VerifiedStep,
    task_hooks,
    verdict,
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


@dataclass(frozen=True, slots=True)
class CotExample:
    """One serialized chain: query, labeled steps, final answer."""

    query: Query
    steps: tuple[VerifiedStep, ...]
    answer: Step
    style: CotStyle

    def __post_init__(self) -> None:
        if not self.answer.is_answer:
            raise ValueError("answer must be an answer step")
        # Style none wants no step labelled, optional_detailed either, and
        # the others every step; an answer step is refused first.
        style = self.style
        labelled = None if style is CotStyle.OPTIONAL_DETAILED else style is not CotStyle.NONE
        mislabelled = False
        for s in self.steps:
            if s.step.is_answer:
                raise ValueError("steps must not contain answer steps")
            if labelled is not None and bool(s.verification.labels) is not labelled:
                mislabelled = True
        if mislabelled:
            if style is CotStyle.NONE:
                raise ValueError("style none requires empty verifications")
            raise ValueError(f"style {style.value} requires labels on every step")


@dataclass(frozen=True)
class CorpusSpec:
    """What to generate: task, size, difficulty mix, style, noise, seed.

    tier_mix maps training tiers, each named once, to finite nonnegative
    weights (the held-out hardest tier is not allowed); counts are
    apportioned by largest remainder so they always sum exactly to
    example_count.  proposal_noise None is 0 for style none, else 0.2.
    """

    task: TaskName
    example_count: int
    tier_mix: tuple[tuple[DifficultyTier, float], ...]
    style: CotStyle
    proposal_noise: Optional[float]
    seed: int

    def __post_init__(self) -> None:
        if self.proposal_noise is None:
            object.__setattr__(self, "proposal_noise", 0.0 if self.style is CotStyle.NONE else 0.2)
        if task_hooks(self.task).gen_query is None:
            raise ValueError("corpus generation needs a task with a query generator")
        if self.example_count < 0:
            raise ValueError("example_count must be >= 0")
        if not self.tier_mix:
            raise ValueError("tier_mix must name at least one tier")
        if len({tier for tier, _ in self.tier_mix}) < len(self.tier_mix):
            raise ValueError("tier_mix names a tier more than once")
        for tier, weight in self.tier_mix:
            if tier not in TRAINING_TIERS:
                raise ValueError(f"tier {tier.value} is held out of training data")
            if weight < 0.0:
                raise ValueError("tier weights must be nonnegative")
        total_weight = sum(w for _, w in self.tier_mix)
        if not (total_weight > 0.0 and math.isfinite(self.example_count * total_weight)):
            raise ValueError("tier weights must be finite, not all zero, and not overflow")
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
    proposal_noise: Optional[float] = None,
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
            verification = UNVERIFIED if rule is None else rule(event.state, step)
            steps.append(VerifiedStep(step, verification))
        yield CotExample(query, tuple(steps), record.answer, spec.style)
        if spec.style is CotStyle.OPTIONAL_DETAILED:
            bare = tuple(VerifiedStep(s.step) for s in steps)
            yield CotExample(query, bare, record.answer, spec.style)


# --- JSON encoding ---------------------------------------------------------


def _labels_to_text(verification: Verification) -> str:
    return "".join("+" if ok else "-" for ok in verification.labels)


# The labels most steps store, decoded to the shared verifications.
_SHARED_LABELS = {"": UNVERIFIED, "+": verdict(True), "-": verdict(False)}


def _labels_from_text(text: str) -> Verification:
    # Only a string is looked up: any other stored value iterates, or fails,
    # as it always has.
    if isinstance(text, str) and text in _SHARED_LABELS:
        return _SHARED_LABELS[text]
    return Verification(tuple(ch == "+" for ch in text))


def _step_to_json(hooks: TaskHooks, step: Step) -> Any:
    if step.is_answer:
        return hooks.answer_to_json(step.content)
    return hooks.move_to_json(step.content)


def _step_from_json(hooks: TaskHooks, obj: Any, is_answer: bool) -> Step:
    if is_answer:
        return Step(hooks.answer_from_json(obj), is_answer=True)
    return Step(hooks.move_from_json(obj))


def _format_error(exc: Exception) -> CorpusFormatError:
    """A decoder's error as CorpusFormatError; a KeyError is a missing field."""
    if isinstance(exc, KeyError):
        return CorpusFormatError(f"missing field {exc.args[0]!r}")
    return CorpusFormatError(str(exc))


# A stored value of the wrong type or form, or int() of an infinite number.
_DECODE_ERRORS = (KeyError, TypeError, ValueError, AttributeError, OverflowError)

# The list fields of a line, by what messages call one of their items.
_ITEMS = {"events": "event", "steps": "step"}


def _check_round_trip(stored: dict, written: dict, writer: str) -> None:
    """Refuse a stored line unless it equals what the package writes for
    what it decodes to.  Equality is Python's value equality of the parsed
    JSON: 1, 1.0 and true alias, and a stored NaN loads only where a decoder
    hands the stored object itself back, as NaN equals no other value."""
    if stored != written:
        raise CorpusFormatError(_first_difference(stored, written, writer))


def _first_difference(stored: dict, written: dict, writer: str, place: str = "") -> str:
    """The first differing field, in the writer's order and then the stored
    extras, with both values; a list field's first differing item is named
    by its index and walked in turn."""
    keys = [*written, *(key for key in stored if key not in written)]
    key = next(k for k in keys if k not in stored or k not in written or stored[k] != written[k])
    if key not in stored:
        return f"{place}missing field {key!r}"
    if key not in written:
        return f"{place}unknown field {key!r}"
    old, new = stored[key], written[key]
    if key not in _ITEMS or not isinstance(old, list):
        return f"{place}{key} {old!r}, but {writer} writes {new!r}"
    item, common = _ITEMS[key], min(len(old), len(new))
    index = next((i for i in range(common) if old[i] != new[i]), common)
    if index < common:
        return _first_difference(old[index], new[index], writer, f"{item} {index}: ")
    if index < len(old):
        return f"{item} {index}: {writer} stops before it"
    return f"{item} {index}: the line ends, but {writer} writes {new[index]!r}"


def _query_from_json(obj: dict) -> tuple[TaskHooks, Query]:
    task = TaskName(obj["task"])
    hooks = task_hooks(task)
    tier = DifficultyTier(obj["tier"]) if obj.get("tier") else None
    if tier is not None and hooks.gen_query is None:
        raise CorpusFormatError(f"task {task.value!r} has no tiers, got {tier.value!r}")
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
    """Decode one example; it loads exactly when example_to_json, which
    re-derives each step's state from the query, writes it back unchanged."""
    try:
        hooks, query = _query_from_json(obj)
        steps = tuple(
            VerifiedStep(
                _step_from_json(hooks, item["step"], is_answer=False),
                _labels_from_text(item["labels"]),
            )
            for item in obj["steps"]
        )
        answer = _step_from_json(hooks, obj["answer"], is_answer=True)
        example = CotExample(query, steps, answer, CotStyle(obj["style"]))
        _check_round_trip(obj, example_to_json(example), "the encoder")
    except _DECODE_ERRORS as exc:
        raise _format_error(exc) from exc
    return example


def record_to_json(record: EpisodeRecord) -> dict:
    """Episode records reuse the example encodings, adding dispositions.
    An event's fields come in the order a refused line names its first
    difference: where the executor was, what it did, why, and the step."""
    hooks = task_hooks(record.query.task)
    events_json = [
        {
            "state": hooks.render_state(event.state),
            "disposition": event.disposition.value,
            "labels": _labels_to_text(event.verified.verification),
            "step": _step_to_json(hooks, event.verified.step),
            "is_answer": event.verified.step.is_answer,
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


def _replay_config(obj: dict, proposals: list[VerifiedStep]) -> ReflectConfig:
    """The run_rtbs configuration a stored record is replayed under.

    The choice is complete: if any configuration writes the record, this
    one does.  The width is forced at the first traceback: it is the run of
    rejections that spent the first popped state.  The reflective budget is
    forced by the first unlabelled proposal, as a verifier labels every
    step it checks.  Only a capped root that ran out ends unanswered and
    incorrect; with no traceback it spent every proposal, so the width is
    their count.  Other roots are unlimited.  A budget or width beyond what
    the record used changes nothing it wrote, so the budget is the number
    of proposals and, with no traceback, the width one more.
    """
    count = len(proposals)
    unlabelled = [i for i, vstep in enumerate(proposals) if not vstep.verification.labels]
    reflective = unlabelled[0] if unlabelled else count
    capped = obj["answer"] is None and obj["outcome"] == Outcome.INCORRECT.value
    width = count if capped else count + 1
    run = 0
    for item in obj["events"]:
        if item["disposition"] == Disposition.TRACEBACK:
            width = run
            break
        run = run + 1 if item["disposition"] == Disposition.REJECTED else 0
    return ReflectConfig(
        reflective_budget=reflective,
        total_budget=max(count, 1),
        rtbs_width=max(width, 1),
        root_unlimited=not capped,
    )


class _Replay:
    """A record's own proposals as a self-verifying policy: sample returns
    the next stored proposal's step and verify returns its stored labels."""

    def __init__(self, proposals: list[VerifiedStep]) -> None:
        self._proposals = iter(proposals)
        self._labels = UNVERIFIED

    def sample(self, state: Any, rng: Any, attempt: int) -> Step:
        proposal = next(self._proposals, None)
        if proposal is None:
            raise CorpusFormatError("the record ends, but the executor proposes again")
        self._labels = proposal.verification
        return proposal.step

    def verify(self, state: Any, step: Step, rng: Any) -> Verification:
        return self._labels


def record_from_json(obj: dict) -> EpisodeRecord:
    """Decode one episode record by replaying its proposals and labels
    through run_rtbs (see _replay_config); it loads exactly when
    record_to_json writes the executor's record, which is returned, back
    unchanged.  Traceback steps, states and dispositions are not decoded."""
    try:
        hooks, query = _query_from_json(obj)
        proposals = [
            VerifiedStep(
                _step_from_json(hooks, item["step"], is_answer=bool(item["is_answer"])),
                _labels_from_text(item["labels"]),
            )
            for item in obj["events"]
            if item["disposition"] != Disposition.TRACEBACK
        ]
        config = _replay_config(obj, proposals)
        record = run_rtbs(_Replay(proposals), hooks.transition, query, config, None)
        _check_round_trip(obj, record_to_json(record), "the executor")
    except _DECODE_ERRORS as exc:
        raise _format_error(exc) from exc
    return record


# --- JSONL I/O -------------------------------------------------------------


# json.dumps builds an encoder per call when given options; one is enough.
# Every line is a fresh tree of dicts, lists and strings built by the codecs
# here, so it holds no cycle and the circular-reference bookkeeping (an id
# recorded per container) can never find one.
_LINE_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)


def dumps_json_line(obj: dict) -> str:
    return _LINE_ENCODER.encode(obj)


def write_jsonl(objects: Iterable[dict], path: str) -> int:
    """Write one JSON object per line; gzip when the path ends in .gz.

    The gzip header records no file name and a zero time, so equal objects
    give equal bytes whatever the file is called and whenever it is written.
    Returns the number of lines written.
    """
    count = 0
    with open(path, "wb") as file:
        if path.endswith(".gz"):
            file = gzip.GzipFile(filename="", mode="wb", fileobj=file, mtime=0)
        with io.TextIOWrapper(file, encoding="utf-8") as sink:
            for obj in objects:
                sink.write(dumps_json_line(obj))
                sink.write("\n")
                count += 1
    return count


def _read_jsonl(path: str, decode: Callable[[dict], Any]) -> Iterator[Any]:
    """Yield decode(obj) per non-blank line, gunzipping .gz paths; any
    failure raises CorpusFormatError naming the path and physical line."""
    opener = gzip.open if path.endswith(".gz") else open
    lineno = 1
    try:
        # Bytes decoded line by line: a text stream decodes a chunk ahead,
        # so its errors would not fall on their own line.
        with opener(path, "rb") as source:
            for line in source:
                if line.strip():
                    yield decode(json.loads(line.decode("utf-8")))
                lineno += 1
    except (EOFError, gzip.BadGzipFile, zlib.error, ValueError, RecursionError) as exc:
        raise CorpusFormatError(f"{path}: line {lineno}: {exc}") from exc


def write_examples(examples: Iterable[CotExample], path: str) -> int:
    return write_jsonl((example_to_json(e) for e in examples), path)


def read_examples(path: str) -> Iterator[CotExample]:
    return _read_jsonl(path, example_from_json)


def write_records(records: Iterable[EpisodeRecord], path: str) -> int:
    return write_jsonl((record_to_json(r) for r in records), path)


def read_records(path: str) -> Iterator[EpisodeRecord]:
    return _read_jsonl(path, record_from_json)
