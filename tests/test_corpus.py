"""Corpus generation and JSONL round-trips."""

import copy
import dataclasses
import functools
import gzip
import itertools
import json
import pickle
import zlib
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reflect_lab import corpus
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
    UNVERIFIED,
    DifficultyTier,
    Disposition,
    EpisodeRecord,
    Event,
    Outcome,
    Query,
    Step,
    SelfVerifying,
    TaskName,
    Verification,
    VerifiedStep,
    task_hooks,
    verdict,
)
from reflect_lab.sim import Law, SimplifiedParams, SyntheticSelfVerifier, SyntheticTransition
from reflect_lab.tasks.mult import MultMove, MultState
from reflect_lab.tasks.sudoku import SudokuBoard, SudokuMove
from reflect_lab.tasks import (
    OracleVerifier,
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


@pytest.mark.parametrize(
    "mix, message",
    [
        (((DifficultyTier.ID_EASY, 0.5), (DifficultyTier.ID_EASY, 0.5)), "more than once"),
        (((DifficultyTier.ID_EASY, float("nan")),), "finite"),
        (((DifficultyTier.ID_EASY, 1.0), (DifficultyTier.ID_HARD, float("inf"))), "finite"),
        (((DifficultyTier.ID_EASY, 1e308), (DifficultyTier.ID_HARD, 1e308)), "finite"),
        (((DifficultyTier.ID_EASY, 1e308),), "finite"),
    ],
)
def test_spec_refuses_a_mix_it_cannot_apportion(mix, message):
    # A repeated tier would be expanded once per pair, and a non-finite
    # weight, or a weight sum whose shares of ten overflow, has no integer
    # share.
    with pytest.raises(ValueError, match=message) as caught:
        small_spec(example_count=10, tier_mix=mix)
    assert "proposal_noise" not in str(caught.value)


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


def test_default_noise_follows_the_style():
    # Style none emits expert chains, so its noise defaults to 0; the
    # labelled styles default to 0.2.  A given noise is kept.
    assert default_corpus_spec(TaskName.MULT, style=CotStyle.NONE).proposal_noise == 0.0
    assert default_corpus_spec(TaskName.SUDOKU, seed=1).proposal_noise == 0.2
    assert small_spec(style=CotStyle.DETAILED, proposal_noise=None).proposal_noise == 0.2
    assert small_spec(proposal_noise=0.4).proposal_noise == 0.4
    with pytest.raises(ValueError, match="proposal_noise must be 0"):
        default_corpus_spec(TaskName.MULT, style=CotStyle.NONE, proposal_noise=0.2)


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
    # An answer step anywhere is refused before any labelling fault.
    late_answer = VerifiedStep(answer, Verification((True,)))
    with pytest.raises(ValueError, match="must not contain answer steps"):
        CotExample(q, (labeled, late_answer), answer, CotStyle.NONE)
    with pytest.raises(ValueError, match="must not contain answer steps"):
        CotExample(q, (bare, late_answer), answer, CotStyle.BINARY)
    with pytest.raises(ValueError, match="^style none requires empty verifications$"):
        CotExample(q, (bare, labeled), answer, CotStyle.NONE)
    with pytest.raises(ValueError, match="^style detailed requires labels on every step$"):
        CotExample(q, (labeled, bare), answer, CotStyle.DETAILED)


# --- generation ---


def test_generation_is_deterministic():
    spec = small_spec()
    first = [dumps_json_line(example_to_json(e)) for e in generate_corpus(spec)]
    second = [dumps_json_line(example_to_json(e)) for e in generate_corpus(spec)]
    assert first == second
    assert len(first) == spec.example_count


def test_generation_refuses_an_episode_that_runs_out_of_budget(monkeypatch):
    # One proposal cannot finish an id_hard product, so the lone episode ends
    # without an answer.
    monkeypatch.setattr(corpus, "_EPISODE_BUDGET", 1)
    spec = small_spec(example_count=1, tier_mix=((DifficultyTier.ID_HARD, 1.0),))
    with pytest.raises(RuntimeError, match="episode budget exhausted"):
        list(generate_corpus(spec))


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


def test_a_bad_line_is_named_by_its_line_in_the_file(tmp_path):
    # Blank lines count: the number is the file's line, not the object's.
    obj = record_to_json(_synthetic_rtbs_record())
    bad = {key: value for key, value in obj.items() if key != "query"}
    path = tmp_path / "records.jsonl"
    path.write_text(f"{dumps_json_line(obj)}\n\n\n{dumps_json_line(bad)}\n", encoding="utf-8")
    with pytest.raises(
        CorpusFormatError, match="records.jsonl: line 4: missing field 'query'"
    ):
        list(read_records(str(path)))


def test_a_truncated_gzip_file_names_the_line_it_breaks_on(tmp_path):
    path = str(tmp_path / "records.jsonl.gz")
    write_records([_synthetic_rtbs_record()] * 40, path)
    with open(path, "rb") as fh:
        cut = fh.read()[:-40]
    with open(path, "wb") as fh:
        fh.write(cut)
    whole_lines = zlib.decompressobj(wbits=31).decompress(cut).count(b"\n")
    assert 0 < whole_lines < 40
    with pytest.raises(
        CorpusFormatError, match=f"records.jsonl.gz: line {whole_lines + 1}: Compressed file ended"
    ):
        list(read_records(path))


def test_a_file_that_is_not_gzip_is_refused_at_line_1(tmp_path):
    path = tmp_path / "records.jsonl.gz"
    path.write_text(dumps_json_line(record_to_json(_synthetic_rtbs_record())) + "\n")
    with pytest.raises(CorpusFormatError, match="records.jsonl.gz: line 1: Not a gzipped file"):
        list(read_records(str(path)))


def _deeply_nested(good: dict) -> list[str]:
    """Lines nested past the recursion limit: 100,000 open brackets, and the
    good object with a 5,000-deep extra field."""
    good_line = dumps_json_line(good)
    return ["[" * 100_000, good_line[:-1] + ', "extra": ' + "[" * 5000 + "]" * 5000 + "}"]


@pytest.mark.parametrize("shape", [0, 1], ids=["brackets", "deep_field"])
def test_a_deeply_nested_record_is_a_format_error(tmp_path, shape):
    good = record_to_json(_synthetic_rtbs_record())
    path = tmp_path / "records.jsonl"
    path.write_text(f"{dumps_json_line(good)}\n{_deeply_nested(good)[shape]}\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="records.jsonl: line 2: maximum recursion depth"):
        list(read_records(str(path)))


@pytest.mark.parametrize("shape", [0, 1], ids=["brackets", "deep_field"])
def test_a_deeply_nested_example_is_a_format_error(tmp_path, shape):
    good = example_to_json(next(iter(generate_corpus(small_spec(example_count=1)))))
    path = tmp_path / "corpus.jsonl"
    path.write_text(f"{dumps_json_line(good)}\n{_deeply_nested(good)[shape]}\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="corpus.jsonl: line 2: maximum recursion depth"):
        list(read_examples(str(path)))


def test_invalid_utf8_names_its_line(tmp_path):
    line = dumps_json_line(example_to_json(next(iter(generate_corpus(small_spec(example_count=1))))))
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(f"{line}\n{line}\n".encode() + b'{"task": "\xff"}\n')
    with pytest.raises(CorpusFormatError, match="corpus.jsonl: line 3: 'utf-8' codec"):
        list(read_examples(str(path)))


def test_example_labels_that_break_its_style_name_the_line(tmp_path):
    spec = small_spec(style=CotStyle.NONE, proposal_noise=0.0, example_count=1)
    obj = example_to_json(next(iter(generate_corpus(spec))))
    obj["steps"][0]["labels"] = "+"
    path = tmp_path / "corpus.jsonl"
    path.write_text(dumps_json_line(obj) + "\n", encoding="utf-8")
    with pytest.raises(
        CorpusFormatError, match="corpus.jsonl: line 1: style none requires empty"
    ):
        list(read_examples(str(path)))


def test_schema_violation_raises_format_error():
    example = next(iter(generate_corpus(small_spec(example_count=1))))
    obj = example_to_json(example)
    del obj["answer"]
    with pytest.raises(CorpusFormatError, match="missing field 'answer'"):
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


def _dataclass_values(obj):
    """Every dataclass instance obj holds, obj included, through fields and
    tuples."""
    if isinstance(obj, tuple):
        for item in obj:
            yield from _dataclass_values(item)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        yield obj
        for field in dataclasses.fields(obj):
            yield from _dataclass_values(getattr(obj, field.name))


def test_records_and_examples_hold_no_instance_dict(tmp_path):
    rng = rng_mod.stream(30, 0)
    query = gen_query(TaskName.SUDOKU, DifficultyTier.ID_HARD, rng)
    record = run_rtbs(
        SelfVerifying(
            make_noisy_policy(expert_policy(TaskName.SUDOKU), 0.3),
            make_noisy_verifier(OracleVerifier(query), 0.1, 0.1),
        ),
        transition_for(TaskName.SUDOKU),
        query,
        mode_config("rtbs", 2, 64, 96),
        rng,
    )
    path = str(tmp_path / "episodes.jsonl")
    assert write_records([record], path) == 1
    (decoded,) = read_records(path)
    assert decoded == record
    example = next(iter(generate_corpus(small_spec(example_count=1))))
    in_record = {EpisodeRecord, Query, Event, VerifiedStep, Step, Verification, SudokuMove,
                 SudokuBoard}
    in_example = {CotExample, Query, VerifiedStep, Step, Verification, MultMove, MultState}
    for root, kinds in ((record, in_record), (decoded, in_record), (example, in_example)):
        values = list(_dataclass_values(root))
        assert {type(value) for value in values} == kinds
        for value in values:
            assert not hasattr(value, "__dict__"), type(value)
    for copied in (pickle.loads(pickle.dumps(decoded)), copy.deepcopy(decoded)):
        assert copied == decoded
    for copied in (pickle.loads(pickle.dumps(example)), copy.deepcopy(example)):
        assert copied == example


def _synthetic_rmtp_record(seed):
    return run_rtbs(
        SyntheticSelfVerifier(Law(SimplifiedParams(0.8, 0.3, 0.2, 0.8), "rmtp")),
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


def _record_boards(record):
    """Every board a Sudoku record holds: its puzzle, each event's state and
    move board, and its answer."""
    boards = [record.query.payload]
    for event in record.events:
        content = event.verified.step.content
        boards += [event.state, content if event.verified.step.is_answer else content.new_board]
    if record.answer is not None:
        boards.append(record.answer.content)
    return boards


def test_read_records_returns_the_writers_own_boards(tmp_path):
    # While the written records live, their boards are the live boards of
    # those cells, so reading the file back builds none of its own.
    records = [_sudoku_rtbs_record_with_traceback()[0]]
    records += [_task_record(TaskName.SUDOKU, seed) for seed in range(4)]
    path = str(tmp_path / "records.jsonl")
    write_records(records, path)
    decoded = list(read_records(path))
    assert decoded == records
    for original, copied in zip(records, decoded):
        pairs = list(zip(_record_boards(original), _record_boards(copied), strict=True))
        assert len(pairs) > 2
        assert all(a is b for a, b in pairs)


def test_traceback_of_a_step_not_taken_is_refused():
    record, index = _sudoku_rtbs_record_with_traceback()
    obj = record_to_json(record)
    step = obj["events"][index]["step"]
    step["fills"] = [[0, 0, 0], *step["fills"]]
    with pytest.raises(CorpusFormatError, match=f"event {index}: step "):
        record_from_json(obj)


def test_traceback_without_an_accepted_step_is_refused():
    for record in (_mult_rmtp_record(21), _synthetic_rmtp_record(21)):
        obj = record_to_json(record)
        obj["events"][0]["disposition"] = "traceback"
        with pytest.raises(CorpusFormatError, match="event 0: disposition 'traceback'"):
            record_from_json(obj)


def test_a_capped_root_record_cut_before_its_tracebacks_is_refused():
    # A capped root that runs out ends in the tracebacks that spend it; the
    # replay writes them, so a line without them is short.
    law = Law(SimplifiedParams(0.8, 0.3, 0.2, 0.8), "rtbs", 2)
    record = run_rtbs(
        SyntheticSelfVerifier(law),
        SyntheticTransition(),
        Query(TaskName.SYNTHETIC, 3),
        law.config(200),
        rng_mod.stream(2, 0),
    )
    obj = record_to_json(record)
    assert [e["disposition"] for e in obj["events"][-3:]] == ["rejected", "traceback", "traceback"]
    del obj["events"][-2:]
    with pytest.raises(
        CorpusFormatError,
        match="event 12: the line ends, but the executor writes "
        "{.*'disposition': 'traceback'.*}",
    ):
        record_from_json(obj)


def test_record_outcomes_are_rederived_from_the_answer():
    for record in (_mult_rmtp_record(21), _synthetic_rmtp_record(21), _synthetic_rmtp_record(7)):
        obj = record_to_json(record)
        flipped = "incorrect" if record.outcome is Outcome.CORRECT else "correct"
        obj["outcome"] = flipped
        with pytest.raises(CorpusFormatError, match=f"outcome '{flipped}', but the executor"):
            record_from_json(obj)
        obj["outcome"] = "budget_exhausted"
        with pytest.raises(
            CorpusFormatError, match="outcome 'budget_exhausted', but the executor"
        ):
            record_from_json(obj)


def test_record_answer_is_the_last_accepted_answer_step():
    record = _synthetic_rmtp_record(21)
    assert record.outcome is Outcome.CORRECT
    obj = record_to_json(record)
    obj["answer"] = None
    with pytest.raises(CorpusFormatError, match="answer None, but the executor writes True"):
        record_from_json(obj)
    obj = record_to_json(_synthetic_rmtp_record(7))
    obj["answer"] = {"on_track": True}
    with pytest.raises(CorpusFormatError, match="answer {'on_track': True}, but the executor"):
        record_from_json(obj)
    # An episode ends at its accepted answer.
    obj = record_to_json(record)
    obj["events"].append(dict(obj["events"][-1]))
    with pytest.raises(CorpusFormatError, match="event 3: the executor stops before it"):
        record_from_json(obj)


def test_unanswered_records_are_never_correct():
    # Without the answer event the episode has no answer.  Only a capped
    # root that ran out ends unanswered and incorrect, and this record's
    # root accepted a step, so only a spent budget ends it.
    obj = record_to_json(_synthetic_rmtp_record(21))
    del obj["events"][-1]
    obj["answer"] = None
    obj["outcome"] = "budget_exhausted"
    assert record_from_json(obj).outcome is Outcome.BUDGET_EXHAUSTED
    for outcome in ("incorrect", "correct"):
        obj["outcome"] = outcome
        with pytest.raises(
            CorpusFormatError,
            match=f"outcome '{outcome}', but the executor writes 'budget_exhausted'",
        ):
            record_from_json(obj)
    # A capped root that ran out on its last proposal writes the same events
    # as a budget that ran out on that proposal, so both outcomes load.
    record = _synthetic_rtbs_record(root_unlimited=False)
    assert record.answer is None and record.outcome is Outcome.INCORRECT
    obj = record_to_json(record)
    assert record_from_json(obj) == record
    obj["outcome"] = "budget_exhausted"
    assert record_from_json(obj).outcome is Outcome.BUDGET_EXHAUSTED
    obj["outcome"] = "correct"
    with pytest.raises(CorpusFormatError, match="outcome 'correct', but the executor"):
        record_from_json(obj)


def _synthetic_rtbs_record(reflective_budget=32, root_unlimited=True):
    # Seed 74 at (n, m) = (2, 2): accepted '+', two rejected '-', a
    # traceback, two rejected '-', then two accepted '+'.  A capped root
    # ends unanswered at the first rejection after the traceback.
    return run_rtbs(
        SyntheticSelfVerifier(Law(SimplifiedParams(0.8, 0.3, 0.2, 0.8), "rtbs", 2)),
        SyntheticTransition(),
        Query(TaskName.SYNTHETIC, 2),
        mode_config("rtbs", 2, reflective_budget, 48, root_unlimited),
        rng_mod.stream(74, 0),
    )


def test_synthetic_rtbs_fixture_has_every_disposition():
    obj = record_to_json(_synthetic_rtbs_record())
    assert [(e["disposition"], e["labels"]) for e in obj["events"][:4]] == [
        ("accepted", "+"), ("rejected", "-"), ("rejected", "-"), ("traceback", ""),
    ]
    assert record_from_json(obj) == _synthetic_rtbs_record()
    # Past a spent reflective budget every proposal is accepted unverified.
    record = _synthetic_rtbs_record(reflective_budget=1)
    assert [e.verified.verification.labels for e in record.events][:2] == [(True,), ()]
    assert record_from_json(record_to_json(record)) == record


@pytest.mark.parametrize(
    "index, labels, message",
    [
        (0, "-", "event 0: disposition 'accepted', but the executor writes 'rejected'"),
        (1, "+", "event 1: disposition 'rejected', but the executor writes 'accepted'"),
        (1, "", "event 1: disposition 'rejected', but the executor writes 'accepted'"),
        (3, "+", "event 3: labels '\\+', but the executor writes ''"),
        (0, "", "event 1: disposition 'rejected', but the executor writes 'accepted'"),
    ],
    ids=["accepted-minus", "rejected-plus", "rejected-bare", "traceback-plus", "late-verified"],
)
def test_labels_the_executor_cannot_write_are_refused(index, labels, message):
    obj = record_to_json(_synthetic_rtbs_record())
    obj["events"][index]["labels"] = labels
    with pytest.raises(CorpusFormatError, match=message):
        record_from_json(obj)


def test_stored_labels_decode_to_the_shared_verifications():
    shared = {"": UNVERIFIED, "+": verdict(True), "-": verdict(False)}
    for text, verification in shared.items():
        assert corpus._labels_from_text(text) is verification
    several = corpus._labels_from_text("+-+")
    assert several.labels == (True, False, True)
    assert several is not corpus._labels_from_text("+-+")
    # A value that is not a string iterates, or fails, as it always has.
    assert corpus._labels_from_text(["+"]).labels == (True,)
    with pytest.raises(TypeError, match="'NoneType' object is not iterable"):
        corpus._labels_from_text(None)
    record = record_from_json(_synthetic_rtbs_line())
    held = {id(event.verified.verification) for event in record.events}
    assert held == {id(v) for v in shared.values()}


@pytest.mark.parametrize("alias", [True, 1.0, "1"], ids=["true", "float", "text"])
def test_a_fill_stored_as_an_alias_of_1_loads_only_where_it_equals_1(alias):
    obj = _sudoku_record_line()
    original = record_from_json(copy.deepcopy(obj))
    fill = next(
        fill
        for item in obj["events"]
        if item["disposition"] != "traceback" and not item["is_answer"]
        for fill in item["step"]["fills"]
        if 1 in fill
    )
    fill[fill.index(1)] = alias
    if alias == 1:
        assert record_from_json(obj) == original
    else:
        with pytest.raises(CorpusFormatError, match=r"event \d+: step .*'1'.*executor writes"):
            record_from_json(obj)


def test_a_tier_on_a_task_without_tiers_is_refused():
    obj = record_to_json(_synthetic_rtbs_record())
    obj["tier"] = "id_easy"
    with pytest.raises(CorpusFormatError, match="task 'synthetic' has no tiers"):
        record_from_json(obj)


def test_a_query_the_task_refuses_is_refused():
    # The states follow from scale -1, but no episode runs on that query.
    obj = {
        "task": "synthetic", "tier": None, "query": -1, "answer": True, "outcome": "correct",
        "events": [{"state": "scale -1+", "step": True, "is_answer": True, "labels": "+",
                    "disposition": "accepted"}],
    }
    with pytest.raises(CorpusFormatError, match="synthetic scale must be >= 0"):
        record_from_json(obj)


def _mult_example_line(seed=4):
    return example_to_json(next(iter(generate_corpus(small_spec(example_count=1, seed=seed)))))


def _task_record(task, seed, mode="rtbs", root_unlimited=True):
    rng = rng_mod.stream(seed, 0)
    query = gen_query(task, DifficultyTier.ID_EASY, rng)
    return run_rtbs(
        SelfVerifying(
            make_noisy_policy(expert_policy(task), 0.3),
            make_noisy_verifier(binary_verifier(task), 0.1, 0.1),
        ),
        transition_for(task),
        query,
        mode_config(mode, 2, 24, 32, root_unlimited),
        rng,
    )


def _items(obj):
    """A record line's events or an example line's steps."""
    return obj["events"] if "events" in obj else obj["steps"]


def _first_move(obj):
    """The stored content of a line's first non-answer step."""
    return next((item["step"] for item in _items(obj) if not item.get("is_answer")), None)


def _set(field, value):
    def edit(obj):
        obj[field] = value(obj[field])
    return edit


def _set_move(field, value):
    def edit(obj):
        move = _first_move(obj)
        move[field] = value(move[field])
    return edit


def _synthetic_rtbs_line():
    return record_to_json(_synthetic_rtbs_record())


def _sudoku_record_line():
    return record_to_json(_task_record(TaskName.SUDOKU, 3))


@pytest.mark.parametrize(
    "line, decode, edit, message",
    [
        pytest.param(
            _synthetic_rtbs_line, record_from_json,
            lambda obj: obj["events"][-1].update(is_answer="false"),
            "event 7: is_answer 'false', but the executor writes True",
            id="synthetic-is-answer-text",
        ),
        pytest.param(
            _synthetic_rtbs_line, record_from_json, _set_move("on_track", lambda _: "no"),
            "event 0: step {'on_track': 'no'}, but the executor writes {'on_track': True}",
            id="synthetic-on-track-text",
        ),
        pytest.param(
            _mult_example_line, example_from_json, _set("query", lambda q: [q[0] + 0.4, q[1]]),
            r"query \[\d+\.4, \d+\], but the encoder writes \[\d+, \d+\]",
            id="mult-query-float",
        ),
        pytest.param(
            _mult_example_line, example_from_json, _set_move("digit", str),
            r"step 0: step \{'side': 'y', 'digit': '\d'", id="mult-digit-text",
        ),
        pytest.param(
            _mult_example_line, example_from_json, _set("answer", str),
            r"answer '\d+', but the encoder writes \d+", id="mult-answer-text",
        ),
        pytest.param(
            _mult_example_line, example_from_json, _set("tier", lambda _: ""),
            "tier '', but the encoder writes None", id="mult-tier-empty",
        ),
        pytest.param(
            _sudoku_record_line, record_from_json, _set_move("guess", lambda _: "no"),
            "event 0: step .*'guess': 'no'", id="sudoku-guess-text",
        ),
        pytest.param(
            _sudoku_record_line, record_from_json,
            _set("query", lambda board: board.replace("\n", "\r\n")),
            r"query '[0-9]{9}\\r\\n", id="sudoku-query-crlf",
        ),
    ],
)
def test_values_a_decoder_converts_are_refused(line, decode, edit, message):
    # Each stored value decodes to what the package would write for another
    # value, so the line does not equal its own re-encoding.
    obj = line()
    assert decode(copy.deepcopy(obj)) is not None
    edit(obj)
    with pytest.raises(CorpusFormatError, match=message):
        decode(obj)


def _set_answer(value):
    """Store `value` as a record's answer, in its answer event and field."""
    def edit(obj):
        obj["events"][-1]["step"] = obj["answer"] = value
    return edit


@pytest.mark.parametrize(
    "line, decode, edit, message",
    [
        pytest.param(
            _mult_example_line, example_from_json, _set_move("side", lambda _: 7),
            "side must be 'x' or 'y', got 7", id="mult-side-int",
        ),
        pytest.param(
            _mult_example_line, example_from_json, _set_move("side", lambda _: ["z"]),
            r"side must be 'x' or 'y', got \['z'\]", id="mult-side-list",
        ),
        pytest.param(
            _synthetic_rtbs_line, record_from_json, _set_answer("no"),
            "synthetic answer must be true or false, got 'no'", id="synthetic-answer-text",
        ),
        pytest.param(
            _synthetic_rtbs_line, record_from_json, _set_answer(float("nan")),
            "synthetic answer must be true or false, got nan", id="synthetic-answer-nan",
        ),
        pytest.param(
            _synthetic_rtbs_line, record_from_json, _set_answer(1),
            "synthetic answer must be true or false, got 1", id="synthetic-answer-int",
        ),
    ],
)
def test_values_a_decoder_would_copy_must_have_their_type(line, decode, edit, message):
    # These decoders hand the stored value back, so it would encode back to
    # itself and pass the round trip; each checks the value's type instead.
    obj = line()
    edit(obj)
    with pytest.raises(CorpusFormatError, match=message):
        decode(obj)


def test_an_infinite_query_is_a_format_error(tmp_path):
    obj = _mult_example_line()
    obj["query"][0] = float("inf")
    path = tmp_path / "corpus.jsonl"
    path.write_text(dumps_json_line(obj) + "\n", encoding="utf-8")
    assert '"query":[Infinity,' in path.read_text(encoding="utf-8")
    with pytest.raises(
        CorpusFormatError, match="corpus.jsonl: line 1: cannot convert float infinity"
    ):
        list(read_examples(str(path)))


def test_an_infinite_move_field_is_a_format_error(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text(_infinite_delta_record_line() + "\n", encoding="utf-8")
    with pytest.raises(
        CorpusFormatError, match="records.jsonl: line 1: cannot convert float infinity"
    ):
        list(read_records(str(path)))


def _infinite_delta_record_line():
    """A Mult record line whose first move stores its delta as 1e400."""
    obj = record_to_json(_mult_rmtp_record(21))
    _first_move(obj)["delta"] = "DELTA"
    return dumps_json_line(obj).replace('"DELTA"', "1e400")


# --- small-scope check of the record codec ---


class _Unwritable(Exception):
    pass


class _Script:
    """Proposes a record's stored steps and returns their stored labels,
    as a verifier that never returns empty labels."""

    def __init__(self, proposals):
        self.proposals = iter(proposals)

    def sample(self, state, rng):
        self.step, self.labels = next(self.proposals, (None, None))
        if self.step is None:
            raise _Unwritable
        return self.step

    def verify(self, state, step, rng):
        if not self.labels:
            raise _Unwritable
        return Verification(tuple(ch == "+" for ch in self.labels))


def _writable(obj):
    """Whether run_rtbs writes obj under some (width <= P + 1, reflective
    budget <= P, root policy) at total budget P, P its proposal count."""
    hooks = task_hooks(TaskName.SYNTHETIC)
    try:
        proposals = [
            (
                Step(hooks.answer_from_json(item["step"]), is_answer=True)
                if item["is_answer"]
                else Step(hooks.move_from_json(item["step"])),
                item["labels"],
            )
            for item in obj["events"]
            if item["disposition"] != "traceback"
        ]
    except (TypeError, ValueError):  # a step's content read as the other kind
        return False
    count = len(proposals)
    if count == 0:  # run_rtbs proposes at least once
        return False
    query = Query(TaskName.SYNTHETIC, obj["query"])
    for width in range(1, count + 2):
        for reflective in range(count + 1):
            for root_unlimited in (True, False):
                script = _Script(proposals)
                config = ReflectConfig(reflective, count, width, root_unlimited)
                try:
                    record = run_rtbs(
                        SelfVerifying(script, script), SyntheticTransition(), query, config, None
                    )
                except _Unwritable:
                    continue
                if record_to_json(record) == obj:
                    return True
    return False


def _single_field_edits(obj):
    events = obj["events"]

    def edited(**fields):
        return {**obj, **fields}

    def event_edited(index, **fields):
        return edited(events=[*events[:index], {**events[index], **fields}, *events[index + 1:]])

    for index, item in enumerate(events):
        for disposition in ("accepted", "rejected", "traceback"):
            yield event_edited(index, disposition=disposition)
        for labels in ("", "+", "-", "+-", "-+"):
            yield event_edited(index, labels=labels)
        yield event_edited(index, is_answer=not item["is_answer"])
        step = item["step"]
        flipped = {"on_track": not step["on_track"]} if isinstance(step, dict) else not step
        yield event_edited(index, step=flipped)
        yield edited(events=[*events[:index], *events[index + 1:]])
        yield edited(events=[*events[: index + 1], item, *events[index + 1:]])
        if index + 1 < len(events):
            swapped = [*events[:index], events[index + 1], item, *events[index + 2:]]
            yield edited(events=swapped)
    for answer in (None, True, False):
        yield edited(answer=answer)
    for outcome in Outcome:
        yield edited(outcome=outcome.value)


def test_a_record_loads_exactly_when_some_configuration_writes_it():
    # Every synthetic record at n <= 2 over modes none, rmtp and rtbs m <= 2,
    # reflective budgets 0, 2 and 6, budgets 3 and 6, both root policies and
    # five seeds, and every distinct single-field edit of them.
    params = SimplifiedParams(0.8, 0.3, 0.2, 0.8)
    originals = {}
    for n, (mode, m), reflective, budget, root_unlimited, seed in itertools.product(
        range(3),
        (("none", None), ("rmtp", None), ("rtbs", 1), ("rtbs", 2)),
        (0, 2, 6),
        (3, 6),
        (True, False),
        range(5),
    ):
        record = run_rtbs(
            SyntheticSelfVerifier(Law(params, mode, m)),
            SyntheticTransition(),
            Query(TaskName.SYNTHETIC, n),
            mode_config(mode, m, reflective, budget, root_unlimited),
            rng_mod.stream(seed, 0),
        )
        obj = record_to_json(record)
        assert record_from_json(obj) == record
        originals[dumps_json_line(obj)] = obj
    edits = {}
    for obj in originals.values():
        for edit in _single_field_edits(obj):
            line = dumps_json_line(edit)
            if line not in originals:
                edits[line] = edit
    assert len(edits) > 500
    loaded = 0
    for edit in edits.values():
        try:
            record = record_from_json(edit)
        except CorpusFormatError:
            assert not _writable(edit), edit
        else:
            assert _writable(edit), edit
            assert record_to_json(record) == edit
            loaded += 1
    assert 0 < loaded < len(edits)


# --- small-scope sweep over the task codecs ---


def _honest_lines():
    """(decode, decoded, line): Mult and Sudoku records over both modes,
    both root policies and two seeds, and Mult and Sudoku examples in every
    style at both training tiers."""
    lines = []
    for task in (TaskName.MULT, TaskName.SUDOKU):
        for style in CotStyle:
            spec = CorpusSpec(
                task=task,
                example_count=2,
                tier_mix=((DifficultyTier.ID_EASY, 1.0), (DifficultyTier.ID_HARD, 1.0)),
                style=style,
                proposal_noise=0.0 if style is CotStyle.NONE else 0.3,
                seed=5,
            )
            lines += [(example_from_json, e, example_to_json(e)) for e in generate_corpus(spec)]
        for seed, mode, root_unlimited in itertools.product(
            (1, 2), ("rmtp", "rtbs"), (True, False)
        ):
            record = _task_record(task, seed, mode, root_unlimited)
            lines.append((record_from_json, record, record_to_json(record)))
    return lines


def _misstored(value):
    """Stored forms that no line the package writes has, for one value
    of the mult or sudoku codec: each decodes as written for another value
    or not at all."""
    if isinstance(value, bool):
        return ["no", str(value).lower()]
    if isinstance(value, int):
        return [str(value), value + 0.4]
    if isinstance(value, str):
        return [" " + value, value.replace("\n", "\r\n")] if "\n" in value else [" " + value]
    if isinstance(value, list):
        return [[misstored, *value[1:]] for misstored in _misstored(value[0])]
    return [0, ""]


def _codec_edits(obj):
    """(what, edited line) for every single edit the sweep makes."""
    def edited(**fields):
        return {**copy.deepcopy(obj), **fields}

    for task in ("synthetic", "mult", "sudoku", "Mult"):
        if task != obj["task"]:
            yield "task", edited(task=task)
    for tier in ("", 0, False, "ID_EASY", "ood"):
        yield "tier", edited(tier=tier)
    for query in _misstored(obj["query"]):
        yield "query", edited(query=query)
    yield "query", edited(query=[obj["query"]])
    for answer in _misstored(obj["answer"]):
        yield "answer", edited(answer=answer)
    move = _first_move(obj)
    for field in sorted(move or ()):
        for value in _misstored(move[field]):
            line = edited()
            _first_move(line)[field] = value
            yield f"move {field}", line
    if move is not None:
        line = edited()
        _first_move(line)["note"] = ""
        yield "move note", line
    for field in obj:
        yield f"drop {field}", {key: value for key, value in obj.items() if key != field}
    for field in _items(obj)[0]:
        line = edited()
        del _items(line)[0][field]
        yield f"drop first item's {field}", line
    yield "note", edited(note="")
    line = edited()
    _items(line)[0]["note"] = ""
    yield "first item's note", line


def test_every_honest_line_loads_and_every_misstored_value_is_refused():
    lines = _honest_lines()
    assert {(decode, line["task"]) for decode, _, line in lines} == {
        (decode, task) for decode in (example_from_json, record_from_json)
        for task in ("mult", "sudoku")
    }
    edits = 0
    for decode, decoded, line in lines:
        stored = json.loads(dumps_json_line(line))
        assert decode(stored) == decoded
        assert stored == line
        for what, edit in _codec_edits(line):
            with pytest.raises(CorpusFormatError):
                decode(edit)
                pytest.fail(f"{line['task']} {what}: {edit}")
            edits += 1
    assert edits > 1000


# --- the codec law, edit by edit ---


_LINE_KINDS = {
    (example_from_json, TaskName.MULT): tuple(CotStyle),
    (example_from_json, TaskName.SUDOKU): tuple(CotStyle),
    (record_from_json, TaskName.MULT): ("rmtp", "rtbs"),
    (record_from_json, TaskName.SUDOKU): ("rmtp", "rtbs"),
    (record_from_json, TaskName.SYNTHETIC): ("rmtp", "rtbs"),
}


@functools.lru_cache(maxsize=None)
def _written_line(decode, task, variant, seed):
    """(value, its line as read back) for one honest example or record."""
    if decode is example_from_json:
        spec = CorpusSpec(
            task=task,
            example_count=1,
            tier_mix=((DifficultyTier.ID_EASY, 1.0), (DifficultyTier.ID_HARD, 1.0)),
            style=variant,
            proposal_noise=0.0 if variant is CotStyle.NONE else 0.3,
            seed=seed,
        )
        value = next(iter(generate_corpus(spec)))
        return value, json.loads(dumps_json_line(example_to_json(value)))
    if task is TaskName.SYNTHETIC:
        m = 2 if variant == "rtbs" else None
        value = run_rtbs(
            SyntheticSelfVerifier(Law(SimplifiedParams(0.8, 0.3, 0.2, 0.8), variant, m)),
            SyntheticTransition(),
            Query(TaskName.SYNTHETIC, 3),
            mode_config(variant, m, 24, 32, seed % 2 == 0),
            rng_mod.stream(seed, 0),
        )
    else:
        value = _task_record(task, seed, variant, seed % 2 == 0)
    return value, json.loads(dumps_json_line(record_to_json(value)))


def _paths(tree, path=()):
    """The path of every value in a JSON tree, the root's included."""
    yield path
    if isinstance(tree, (dict, list)):
        for key, value in tree.items() if isinstance(tree, dict) else enumerate(tree):
            yield from _paths(value, (*path, key))


def _at_path(tree, path):
    for key in path:
        tree = tree[key]
    return tree


_DROP = object()
_OTHER_TYPES = (None, False, 0, 2.5, "", "x", [], {})


def _edits(value, in_dict, at):
    """The values that may replace `value` (_DROP deletes its key): another
    type, a neighbouring int, an alias of 1, a dropped or extra key, a
    shorter or longer list, and a string with the character at `at` moved
    to a neighbouring code point, or with a line break moved one place."""
    edits = [other for other in _OTHER_TYPES if type(other) is not type(value)]
    if type(value) is int:
        edits += [value - 1, value + 1]
    if type(value) in (int, float, bool) and value == 1:
        edits += [alias for alias in (1, 1.0, True) if type(alias) is not type(value)]
    if in_dict:
        edits.append(_DROP)
    if isinstance(value, dict):
        edits.append({**value, "note": 0})
    if isinstance(value, list) and value:
        edits += [value[:-1], value[1:], [*value, value[-1]], [value[0], *value]]
    if isinstance(value, str) and value:
        at %= len(value)
        edits += [value[:at] + chr(ord(value[at]) + step) + value[at + 1 :] for step in (-1, 1)]
        brk = value.find("\n", at)
        if brk > 0:
            edits.append(value[: brk - 1] + "\n" + value[brk - 1] + value[brk + 1 :])
    return edits


@st.composite
def _edited_lines(draw):
    """(decode, encode, original, line, edited): an honest value, its line,
    and a copy of the line with one value replaced, as read from a file."""
    decode, task = draw(st.sampled_from(sorted(_LINE_KINDS, key=repr)))
    variant = draw(st.sampled_from(_LINE_KINDS[decode, task]))
    original, line = _written_line(decode, task, variant, draw(st.integers(0, 3)))
    edited = copy.deepcopy(line)
    paths = list(_paths(edited))
    # Half the edits land on a string, so that board texts are edited often.
    strings = [path for path in paths if isinstance(_at_path(edited, path), str)]
    path = draw(st.sampled_from(paths) | st.sampled_from(strings))
    parent = _at_path(edited, path[:-1])
    value = parent[path[-1]] if path else edited
    in_dict = bool(path) and isinstance(parent, dict)
    new = draw(st.sampled_from(_edits(value, in_dict, draw(st.integers(0, 88)))))
    if not path:
        edited = new
    elif new is _DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    encode = example_to_json if decode is example_from_json else record_to_json
    return decode, encode, original, line, json.loads(dumps_json_line(edited))


@given(case=_edited_lines())
@settings(max_examples=500, deadline=None)
def test_an_edited_line_loads_exactly_as_what_encodes_back_to_it(case):
    # Either the edited line loads and its value encodes back to a tree equal
    # to it, or it is refused with CorpusFormatError: by a decoder, or by the
    # round trip, naming the first field _first_difference finds between the
    # edited line and what the writer writes for its value, which loads in
    # turn.  Decoding an edit changes nothing the original value holds, such
    # as the text of a board it shares.
    decode, encode, original, line, edited = case
    checked = []
    check = corpus._check_round_trip

    def spy(stored, written, writer):
        checked.append((stored, written, writer))
        check(stored, written, writer)

    try:
        with mock.patch.object(corpus, "_check_round_trip", spy):
            value = decode(edited)
    except CorpusFormatError as exc:
        if checked:
            stored, written, writer = checked[0]
            assert stored is edited and written != edited
            assert str(exc) == corpus._first_difference(edited, written, writer)
            assert encode(decode(written)) == written
        else:
            assert exc.__cause__ is None or isinstance(exc.__cause__, corpus._DECODE_ERRORS)
    else:
        assert encode(value) == edited
    assert encode(original) == line


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
    mode, m = ("rtbs", 2) if backtrack else ("rmtp", None)
    record = run_rtbs(
        SyntheticSelfVerifier(Law(SimplifiedParams(0.8, 0.3, 0.2, 0.8), mode, m)),
        SyntheticTransition(),
        Query(TaskName.SYNTHETIC, scale),
        mode_config(mode, m, 24, 32),
        rng_mod.stream(seed, 0),
    )
    line = dumps_json_line(record_to_json(record))
    assert record_from_json(json.loads(line)) == record
