"""Corpus generation and JSONL round-trips."""

import gzip
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reflect_lab import rng as rng_mod
from reflect_lab.corpus import (
    CorpusFormatError,
    CorpusSpec,
    CotExample,
    CotStyle,
    DEFAULT_EXAMPLE_COUNTS,
    default_corpus_spec,
    dumps_json_line,
    example_from_json,
    example_to_json,
    generate_corpus,
    read_examples,
    read_records,
    record_from_json,
    record_to_json,
    write_examples,
    write_records,
)
from reflect_lab.engines import ReflectConfig, mode_config, run_rtbs
from reflect_lab.mtp import (
    DifficultyTier,
    Disposition,
    Outcome,
    Query,
    Step,
    SelfVerifying,
    TaskName,
    Verification,
    VerifiedStep,
    task_hooks,
)
from reflect_lab.sim import SimplifiedParams, SyntheticTransition, synthetic_self_verifying
from reflect_lab.tasks import (
    binary_verifier,
    expert_policy,
    gen_query,
    make_noisy_policy,
    make_noisy_verifier,
    transition_for,
)


def small_spec(**overrides):
    base = dict(
        task=TaskName.MULT,
        example_count=40,
        tier_mix=((DifficultyTier.ID_EASY, 1.0),),
        style=CotStyle.BINARY,
        proposal_noise=0.2,
        seed=11,
    )
    base.update(overrides)
    return CorpusSpec(**base)


# --- spec validation and apportionment ---


def test_spec_rejects_bad_fields():
    with pytest.raises(ValueError):
        small_spec(task=TaskName.SYNTHETIC)
    with pytest.raises(ValueError):
        small_spec(example_count=-1)
    with pytest.raises(ValueError):
        small_spec(tier_mix=())
    with pytest.raises(ValueError):
        small_spec(tier_mix=((DifficultyTier.OOD_HARD, 1.0),))
    with pytest.raises(ValueError):
        small_spec(tier_mix=((DifficultyTier.ID_EASY, -0.5),))
    with pytest.raises(ValueError):
        small_spec(
            tier_mix=((DifficultyTier.ID_EASY, 0.0), (DifficultyTier.ID_HARD, 0.0))
        )
    with pytest.raises(ValueError):
        small_spec(proposal_noise=1.1)
    with pytest.raises(ValueError):
        small_spec(style=CotStyle.NONE, proposal_noise=0.2)


def test_tier_counts_largest_remainder():
    spec = small_spec(
        example_count=10,
        tier_mix=((DifficultyTier.ID_EASY, 2.0), (DifficultyTier.ID_HARD, 1.0)),
    )
    counts = spec.tier_counts()
    assert counts == {DifficultyTier.ID_EASY: 7, DifficultyTier.ID_HARD: 3}

    tie = small_spec(
        example_count=7,
        tier_mix=((DifficultyTier.ID_EASY, 1.0), (DifficultyTier.ID_HARD, 1.0)),
    )
    counts = tie.tier_counts()
    assert sum(counts.values()) == 7
    assert sorted(counts.values()) == [3, 4]


@pytest.mark.parametrize("count", [0, 1, 17, 100])
def test_tier_counts_always_sum(count):
    spec = small_spec(
        example_count=count,
        tier_mix=(
            (DifficultyTier.ID_EASY, 0.37),
            (DifficultyTier.ID_HARD, 0.63),
        ),
    )
    assert sum(spec.tier_counts().values()) == count


def test_default_spec_counts():
    spec = default_corpus_spec(TaskName.MULT)
    assert spec.example_count == DEFAULT_EXAMPLE_COUNTS[TaskName.MULT]
    assert sum(spec.tier_counts().values()) == spec.example_count


# --- example validation ---


def test_cot_example_validation():
    q = Query(TaskName.MULT, (3, 4), DifficultyTier.ID_EASY)
    answer = Step(12, is_answer=True)
    with pytest.raises(ValueError):
        CotExample(q, (), Step(12), CotStyle.NONE)  # non-answer final step
    labeled = VerifiedStep(Step(True), Verification((True,)))
    with pytest.raises(ValueError):
        CotExample(q, (labeled,), answer, CotStyle.NONE)
    bare = VerifiedStep(Step(True), Verification())
    with pytest.raises(ValueError):
        CotExample(q, (bare,), answer, CotStyle.BINARY)
    with pytest.raises(ValueError):
        CotExample(q, (VerifiedStep(answer, Verification()),), answer, CotStyle.NONE)
    # optional_detailed tolerates either labeling
    CotExample(q, (labeled,), answer, CotStyle.OPTIONAL_DETAILED)
    CotExample(q, (bare,), answer, CotStyle.OPTIONAL_DETAILED)


# --- generation ---


def test_generation_is_deterministic():
    spec = small_spec()
    first = [dumps_json_line(example_to_json(e)) for e in generate_corpus(spec)]
    second = [dumps_json_line(example_to_json(e)) for e in generate_corpus(spec)]
    assert first == second
    assert len(first) == spec.example_count


def test_generation_respects_tier_apportionment():
    spec = small_spec(
        example_count=30,
        tier_mix=((DifficultyTier.ID_EASY, 2.0), (DifficultyTier.ID_HARD, 1.0)),
    )
    tiers = [e.query.tier for e in generate_corpus(spec)]
    assert tiers.count(DifficultyTier.ID_EASY) == 20
    assert tiers.count(DifficultyTier.ID_HARD) == 10


def test_style_none_is_expert_and_unlabeled():
    spec = small_spec(style=CotStyle.NONE, proposal_noise=0.0, example_count=25)
    for example in generate_corpus(spec):
        assert all(not s.verification.labels for s in example.steps)
        assert task_hooks(example.query.task).check_answer(example.query, example.answer)


def test_binary_style_marks_corrupted_steps():
    spec = small_spec(example_count=120, proposal_noise=0.25, seed=5)
    total = bad = 0
    for example in generate_corpus(spec):
        for vstep in example.steps:
            assert len(vstep.verification.labels) == 1
            total += 1
            bad += vstep.verification.rejected
    # Corruption is per-step Bernoulli(noise); allow a wide band.
    assert 0.15 < bad / total < 0.35


def test_binary_labels_agree_with_exact_rule():
    spec = small_spec(example_count=30, seed=7)
    rule = binary_verifier(TaskName.MULT).rule
    transition = transition_for(TaskName.MULT)
    for example in generate_corpus(spec):
        state = example.query.payload
        from reflect_lab.tasks.mult import MultState

        state = MultState(state[0], state[1], 0)
        for vstep in example.steps:
            assert vstep.verification == rule(state, vstep.step)
            state = transition.apply(state, vstep.step)


def test_detailed_style_has_elementwise_labels():
    spec = small_spec(style=CotStyle.DETAILED, example_count=20, seed=3)
    widths = {len(s.verification.labels) for e in generate_corpus(spec) for s in e.steps}
    assert widths and min(widths) >= 1
    assert max(widths) > 1  # multi-position digits produce wider label rows


def test_optional_detailed_doubles_the_stream():
    spec = small_spec(style=CotStyle.OPTIONAL_DETAILED, example_count=12, seed=9)
    examples = list(generate_corpus(spec))
    assert len(examples) == 24
    for labeled, bare in zip(examples[0::2], examples[1::2]):
        assert labeled.query == bare.query
        assert labeled.answer == bare.answer
        assert [s.step for s in labeled.steps] == [s.step for s in bare.steps]
        assert all(s.verification.labels for s in labeled.steps)
        assert all(not s.verification.labels for s in bare.steps)


def test_sudoku_generation_round_trips(tmp_path):
    spec = CorpusSpec(
        task=TaskName.SUDOKU,
        example_count=6,
        tier_mix=((DifficultyTier.ID_EASY, 1.0),),
        style=CotStyle.BINARY,
        proposal_noise=0.1,
        seed=2,
    )
    examples = list(generate_corpus(spec))
    path = str(tmp_path / "sudoku.jsonl")
    assert write_examples(examples, path) == 6
    assert list(read_examples(path)) == examples


# --- JSONL I/O ---


def test_example_round_trip_plain_and_gz(tmp_path):
    examples = list(generate_corpus(small_spec(example_count=15)))
    for name in ("corpus.jsonl", "corpus.jsonl.gz"):
        path = str(tmp_path / name)
        assert write_examples(examples, path) == 15
        assert list(read_examples(path)) == examples
    with gzip.open(str(tmp_path / "corpus.jsonl.gz"), "rt", encoding="utf-8") as fh:
        line = fh.readline()
    json.loads(line)  # stored as real gzip-compressed JSONL


def test_json_lines_are_stable():
    example = next(iter(generate_corpus(small_spec(example_count=1))))
    obj = example_to_json(example)
    assert dumps_json_line(obj) == dumps_json_line(example_to_json(example))
    assert example_from_json(json.loads(dumps_json_line(obj))) == example


def test_read_jsonl_reports_line_numbers(tmp_path):
    path = str(tmp_path / "broken.jsonl")
    good = dumps_json_line(example_to_json(next(iter(generate_corpus(small_spec(example_count=1))))))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(good + "\n")
        fh.write(good[: len(good) // 2] + "\n")
    with pytest.raises(CorpusFormatError, match="line 2"):
        list(read_examples(path))


def test_schema_violation_raises_format_error():
    example = next(iter(generate_corpus(small_spec(example_count=1))))
    obj = example_to_json(example)
    del obj["answer"]
    with pytest.raises(CorpusFormatError):
        example_from_json(obj)
    obj2 = example_to_json(example)
    obj2["steps"][0]["labels"] = "+x"
    with pytest.raises(CorpusFormatError):
        example_from_json(obj2)


def test_states_that_do_not_follow_from_the_steps_are_refused():
    example = next(iter(generate_corpus(small_spec(example_count=1, seed=4))))
    assert len(example.steps) >= 2
    obj = example_to_json(example)
    for item in obj["steps"]:
        item["state"] = "0*0+999"
    with pytest.raises(CorpusFormatError, match="step 0"):
        example_from_json(obj)
    # One wrong state deeper in the chain is caught at its own step.
    obj = example_to_json(example)
    x, y, z = obj["steps"][1]["state"].replace("*", "+").split("+")
    obj["steps"][1]["state"] = f"{x}*{y}+{int(z) + 1}"
    with pytest.raises(CorpusFormatError, match="step 1"):
        example_from_json(obj)


def _mult_rmtp_record(seed):
    rng = rng_mod.stream(seed, 0)
    query = gen_query(TaskName.MULT, DifficultyTier.ID_EASY, rng)
    verifier = make_noisy_verifier(binary_verifier(TaskName.MULT), 0.2, 0.1)
    return run_rtbs(
        SelfVerifying(expert_policy(TaskName.MULT), verifier),
        transition_for(TaskName.MULT),
        query,
        mode_config("rmtp", None, 32, 48),
        rng,
    )


def test_record_round_trip(tmp_path):
    record = _mult_rmtp_record(21)
    path = str(tmp_path / "episodes.jsonl")
    assert write_records([record], path) == 1
    restored = list(read_records(path))
    assert restored == [record]
    obj = record_to_json(record)
    # the answer flag is what distinguishes answer steps on decode
    assert any(item["is_answer"] for item in obj["events"])
    assert record_from_json(json.loads(dumps_json_line(obj))) == record


def _synthetic_rmtp_record(seed):
    return run_rtbs(
        synthetic_self_verifying(SimplifiedParams(0.8, 0.3, 0.2, 0.8)),
        SyntheticTransition(),
        Query(TaskName.SYNTHETIC, 3),
        mode_config("rmtp", None, 32, 48),
        rng_mod.stream(seed, 0),
    )


def test_record_states_that_do_not_follow_are_refused():
    obj = record_to_json(_mult_rmtp_record(21))
    for item in obj["events"]:
        item["state"] = "0*0+999"
    with pytest.raises(CorpusFormatError, match="event 0"):
        record_from_json(obj)
    # Synthetic states are replayed too, not parsed from their text.
    obj = record_to_json(_synthetic_rmtp_record(21))
    obj["events"][1]["state"] = "scale 9+"
    with pytest.raises(CorpusFormatError, match="event 1: state 'scale 9\\+'"):
        record_from_json(obj)


def _sudoku_rtbs_record_with_traceback():
    for seed in range(100):
        rng = rng_mod.stream(seed, 0)
        query = gen_query(TaskName.SUDOKU, DifficultyTier.ID_HARD, rng)
        record = run_rtbs(
            SelfVerifying(
                make_noisy_policy(expert_policy(TaskName.SUDOKU), 0.3),
                make_noisy_verifier(binary_verifier(TaskName.SUDOKU), 0.1, 0.1),
            ),
            transition_for(TaskName.SUDOKU),
            query,
            ReflectConfig(reflective_budget=64, total_budget=96, rtbs_width=2),
            rng,
        )
        dispositions = [e.disposition for e in record.events]
        for index in range(len(dispositions) - 1):
            if dispositions[index : index + 2] == [Disposition.TRACEBACK, Disposition.REJECTED]:
                return record, index
    raise AssertionError("no rtbs record with a traceback")


def test_sudoku_states_after_a_traceback_are_replayed():
    record, index = _sudoku_rtbs_record_with_traceback()
    assert record_from_json(record_to_json(record)) == record
    # The state right after the traceback is the restored ancestor.
    obj = record_to_json(record)
    after = obj["events"][index + 1]
    assert after["state"] == obj["events"][index]["state"]
    after["state"] = after["state"].replace("0", "1", 1)
    with pytest.raises(CorpusFormatError, match=f"event {index + 1}:"):
        record_from_json(obj)
    # So is the traceback event's own state, not the child it leaves.
    obj = record_to_json(record)
    child = obj["events"][index - 1]["state"]
    assert child != obj["events"][index]["state"]
    obj["events"][index]["state"] = child
    with pytest.raises(CorpusFormatError, match=f"event {index}:"):
        record_from_json(obj)


def test_traceback_of_a_step_not_taken_is_refused():
    record, index = _sudoku_rtbs_record_with_traceback()
    obj = record_to_json(record)
    step = obj["events"][index]["step"]
    step["fills"] = [[0, 0, 0], *step["fills"]]
    with pytest.raises(CorpusFormatError, match=f"event {index}: traceback undoes"):
        record_from_json(obj)


def test_traceback_without_an_accepted_step_is_refused():
    for record in (_mult_rmtp_record(21), _synthetic_rmtp_record(21)):
        obj = record_to_json(record)
        obj["events"][0]["disposition"] = "traceback"
        with pytest.raises(CorpusFormatError, match="event 0: traceback"):
            record_from_json(obj)


def test_record_outcomes_are_rederived_from_the_answer():
    for record in (_mult_rmtp_record(21), _synthetic_rmtp_record(21), _synthetic_rmtp_record(7)):
        obj = record_to_json(record)
        flipped = "incorrect" if record.outcome is Outcome.CORRECT else "correct"
        obj["outcome"] = flipped
        with pytest.raises(CorpusFormatError, match=f"outcome '{flipped}' disagrees"):
            record_from_json(obj)
        obj["outcome"] = "budget_exhausted"
        with pytest.raises(CorpusFormatError, match="outcome 'budget_exhausted' disagrees"):
            record_from_json(obj)


def test_record_answer_is_the_last_accepted_answer_step():
    record = _synthetic_rmtp_record(21)
    assert record.outcome is Outcome.CORRECT
    obj = record_to_json(record)
    obj["answer"] = None
    with pytest.raises(CorpusFormatError, match="answer None is not"):
        record_from_json(obj)
    obj = record_to_json(_synthetic_rmtp_record(7))
    obj["answer"] = {"on_track": True}
    with pytest.raises(CorpusFormatError, match="is not the last event's"):
        record_from_json(obj)
    # An episode ends at its accepted answer.
    obj = record_to_json(record)
    obj["events"].append(dict(obj["events"][-1]))
    with pytest.raises(CorpusFormatError, match="event 3: follows the accepted answer"):
        record_from_json(obj)


def test_unanswered_records_are_never_correct():
    # Without the answer event the episode has no answer.  Incorrect and
    # budget-exhausted cannot be told apart: a record carries no budget.
    obj = record_to_json(_synthetic_rmtp_record(21))
    del obj["events"][-1]
    obj["answer"] = None
    for outcome in ("incorrect", "budget_exhausted"):
        obj["outcome"] = outcome
        assert record_from_json(obj).outcome is Outcome(outcome)
    obj["outcome"] = "correct"
    with pytest.raises(CorpusFormatError, match="'correct' without an answer"):
        record_from_json(obj)


# --- codec round trips over both tasks ---


@given(
    task=st.sampled_from([TaskName.MULT, TaskName.SUDOKU]),
    style=st.sampled_from(list(CotStyle)),
    noisy=st.booleans(),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=40, deadline=None)
def test_examples_round_trip_through_json(task, style, noisy, seed):
    noise = 0.3 if noisy and style is not CotStyle.NONE else 0.0
    spec = CorpusSpec(
        task=task,
        example_count=1,
        tier_mix=((DifficultyTier.ID_EASY, 1.0), (DifficultyTier.ID_HARD, 1.0)),
        style=style,
        proposal_noise=noise,
        seed=seed,
    )
    for example in generate_corpus(spec):
        line = dumps_json_line(example_to_json(example))
        assert example_from_json(json.loads(line)) == example


@given(
    task=st.sampled_from([TaskName.MULT, TaskName.SUDOKU]),
    backtrack=st.booleans(),
    noisy=st.booleans(),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=40, deadline=None)
def test_records_round_trip_through_json(task, backtrack, noisy, seed):
    rng = rng_mod.stream(seed, 0)
    query = gen_query(task, DifficultyTier.ID_EASY, rng)
    policy = expert_policy(task)
    verifier = binary_verifier(task)
    if noisy:
        policy = make_noisy_policy(policy, 0.3)
        verifier = make_noisy_verifier(verifier, 0.2, 0.2)
    record = run_rtbs(
        SelfVerifying(policy, verifier),
        transition_for(task),
        query,
        mode_config("rtbs" if backtrack else "rmtp", 2, 24, 32),
        rng,
    )
    line = dumps_json_line(record_to_json(record))
    assert record_from_json(json.loads(line)) == record


@given(
    backtrack=st.booleans(),
    scale=st.integers(0, 6),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=40, deadline=None)
def test_synthetic_records_round_trip_through_json(backtrack, scale, seed):
    record = run_rtbs(
        synthetic_self_verifying(SimplifiedParams(0.8, 0.3, 0.2, 0.8)),
        SyntheticTransition(),
        Query(TaskName.SYNTHETIC, scale),
        mode_config("rtbs" if backtrack else "rmtp", 2, 24, 32),
        rng_mod.stream(seed, 0),
    )
    line = dumps_json_line(record_to_json(record))
    assert record_from_json(json.loads(line)) == record
