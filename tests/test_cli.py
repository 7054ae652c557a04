"""End-to-end CLI behavior through click's test runner."""

import hashlib
import json
import os
import platform
import re

import numpy as np
import pytest
from click.testing import CliRunner

from reflect_lab import __version__, cli, corpus
from reflect_lab import rng as rng_mod
from reflect_lab.cli import main
from reflect_lab.engines import run_rtbs
from reflect_lab.mtp import Query, TaskName
from reflect_lab.sim import Law, SyntheticSelfVerifier, SyntheticTransition
from reflect_lab.theory import SimplifiedParams, rho_rmtp

REF_FLAGS = ["--mu", "0.8", "--e-minus", "0.3", "--e-plus", "0.2", "--f", "0.8"]


@pytest.fixture()
def runner():
    return CliRunner()


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_version_flag(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert __version__ in result.output


def test_missing_required_flag_is_usage_error(runner, tmp_path):
    result = runner.invoke(main, ["theory-curve", "--mu", "0.8"])
    assert result.exit_code == 2


def test_theory_curve_writes_table_and_manifest(runner, tmp_path):
    out = str(tmp_path / "curve.csv")
    result = runner.invoke(
        main, ["theory-curve", *REF_FLAGS, "--m", "1", "--m", "4", "--n", "6", "--out", out]
    )
    assert result.exit_code == 0, result.output
    lines = read_bytes(out).decode().strip().split("\n")
    assert lines[0] == "n,rho,rho_rmtp,rho_rtbs_m1,rho_rtbs_m4"
    assert len(lines) == 8  # header + n=0..6
    row3 = lines[4].split(",")
    assert float(row3[2]) == pytest.approx(
        rho_rmtp(SimplifiedParams(0.8, 0.3, 0.2, 0.8), 3)
    )
    manifest = json.loads(read_bytes(out + ".manifest.json"))
    assert manifest["command"] == "theory-curve"
    assert manifest["version"] == __version__
    assert manifest["m"] == [1, 4] and manifest["n"] == 6


def test_theory_curve_reruns_byte_identically(runner, tmp_path):
    args = ["theory-curve", *REF_FLAGS, "--n", "5"]
    out_a = str(tmp_path / "a.csv")
    out_b = str(tmp_path / "b.csv")
    assert runner.invoke(main, args + ["--out", out_a]).exit_code == 0
    assert runner.invoke(main, args + ["--out", out_b]).exit_code == 0
    assert read_bytes(out_a) == read_bytes(out_b)


def test_simulate_reports_theory_column(runner, tmp_path):
    out = str(tmp_path / "sim.csv")
    result = runner.invoke(
        main,
        [
            "simulate", *REF_FLAGS, "--mode", "rmtp", "--n", "3",
            "--episodes", "3000", "--seed", "7", "--threads", "1", "--out", out,
        ],
    )
    assert result.exit_code == 0, result.output
    lines = read_bytes(out).decode().strip().split("\n")
    assert lines[0] == "n,mode,m,episodes,acc_hat,ci_lo,ci_hi,theory,zscore"
    fields = lines[1].split(",")
    assert fields[:4] == ["3", "rmtp", "", "3000"]
    assert float(fields[7]) == pytest.approx(
        rho_rmtp(SimplifiedParams(0.8, 0.3, 0.2, 0.8), 3)
    )
    assert abs(float(fields[8])) < 4.5


def test_simulate_leaves_an_unlimited_root_unpriced(runner, tmp_path):
    # No closed form prices an unlimited root yet.  The capped-root curve
    # read 0.4713 here, for a measured accuracy near 0.9: a z-score of 47.
    out = str(tmp_path / "sim.csv")
    result = runner.invoke(
        main,
        [
            "simulate", *REF_FLAGS, "--mode", "rtbs", "--m", "2", "--n", "6",
            "--episodes", "3000", "--seed", "11", "--threads", "1", "--root-unlimited",
            "--out", out,
        ],
    )
    assert result.exit_code == 0, result.output
    fields = read_bytes(out).decode().strip().split("\n")[1].split(",")
    assert fields[:4] == ["6", "rtbs", "2", "3000"]
    assert float(fields[4]) > 0.85
    assert fields[7:] == ["", ""]


def test_simulate_budget_dominated_exits_3(runner, tmp_path):
    out = str(tmp_path / "starved.csv")
    result = runner.invoke(
        main,
        [
            "simulate", *REF_FLAGS, "--mode", "rmtp", "--n", "8",
            "--episodes", "400", "--budget", "3", "--threads", "1", "--out", out,
        ],
    )
    assert result.exit_code == 3
    assert os.path.exists(out)  # the estimate is still written, just flagged


def test_simulate_refuses_a_width_that_does_not_fit_the_mode(runner, tmp_path):
    out = str(tmp_path / "sim.csv")
    for width_flags in (["--mode", "rtbs"], ["--mode", "rmtp", "--m", "2"],
                        ["--mode", "none", "--m", "1"]):
        result = runner.invoke(
            main,
            ["simulate", *REF_FLAGS, *width_flags, "--n", "3", "--episodes", "10", "--out", out],
        )
        assert result.exit_code == 2, width_flags
        assert "'--m'" in result.output
        assert not os.path.exists(out)


def test_episode_engine_ends_mode_none_at_the_budget(runner, tmp_path):
    # Five steps do not fit in three proposals, so every episode is exhausted.
    out = str(tmp_path / "none.csv")
    result = runner.invoke(
        main,
        [
            "simulate", *REF_FLAGS, "--mode", "none", "--n", "5", "--budget", "3",
            "--episodes", "200", "--engine", "episode", "--out", out,
        ],
    )
    assert result.exit_code == 3
    assert "200 of 200 episodes hit the proposal budget" in result.output


def test_gen_data_counts_and_determinism(runner, tmp_path):
    args = [
        "gen-data", "--task", "mult", "--count", "12", "--seed", "4",
        "--noise", "0.2",
    ]
    out_a = str(tmp_path / "a.jsonl")
    out_b = str(tmp_path / "b.jsonl")
    result = runner.invoke(main, args + ["--out", out_a])
    assert result.exit_code == 0, result.output
    assert "wrote 12 examples" in result.output
    assert runner.invoke(main, args + ["--out", out_b]).exit_code == 0
    assert read_bytes(out_a) == read_bytes(out_b)
    lines = read_bytes(out_a).decode().strip().split("\n")
    assert len(lines) == 12
    first = json.loads(lines[0])
    assert first["task"] == "mult" and first["style"] == "binary"
    manifest = json.loads(read_bytes(out_a + ".manifest.json"))
    assert manifest["count"] == 12 and manifest["command"] == "gen-data"


def test_gen_data_style_none_defaults_to_zero_noise(runner, tmp_path):
    out = str(tmp_path / "clean.jsonl")
    result = runner.invoke(
        main,
        ["gen-data", "--task", "mult", "--style", "none", "--count", "3", "--out", out],
    )
    assert result.exit_code == 0, result.output
    for line in read_bytes(out).decode().strip().split("\n"):
        obj = json.loads(line)
        assert all(item["labels"] == "" for item in obj["steps"])


def test_gen_data_rejects_bad_configs(runner, tmp_path):
    out = str(tmp_path / "x.jsonl")
    bad_style = runner.invoke(
        main,
        [
            "gen-data", "--task", "mult", "--style", "none", "--count", "2",
            "--noise", "0.3", "--out", out,
        ],
    )
    assert bad_style.exit_code == 2
    assert "'--noise'" in bad_style.output
    bad_mix = runner.invoke(
        main,
        [
            "gen-data", "--task", "mult", "--count", "2",
            "--tier-mix", "id_easy", "--out", out,
        ],
    )
    assert bad_mix.exit_code == 2
    assert "'--tier-mix'" in bad_mix.output
    held_out = runner.invoke(
        main,
        [
            "gen-data", "--task", "mult", "--count", "2",
            "--tier-mix", "ood_hard=1.0", "--out", out,
        ],
    )
    assert held_out.exit_code == 2
    assert "'--tier-mix'" in held_out.output
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "mix", ["id_easy=0.5,id_easy=0.5", "id_easy=nan", "id_easy=1,id_hard=inf", "id_easy=1e308"]
)
def test_gen_data_refuses_a_mix_it_cannot_apportion(runner, tmp_path, mix):
    # A repeated tier once wrote more examples than --count; a non-finite
    # weight, or one whose share of the count overflows, once failed with a
    # traceback.
    out = str(tmp_path / "x.jsonl")
    result = runner.invoke(
        main, ["gen-data", "--task", "mult", "--count", "10", "--tier-mix", mix, "--out", out]
    )
    assert result.exit_code == 2, result.output
    assert "'--tier-mix'" in result.output
    assert not os.path.exists(out)


def test_run_task_writes_records_and_prints_accuracy(runner, tmp_path):
    out = str(tmp_path / "episodes.jsonl")
    result = runner.invoke(
        main,
        [
            "run-task", "--task", "mult", "--tier", "id_easy",
            "--mode", "rmtp", "--episodes", "25", "--seed", "1", "--out", out,
        ],
    )
    assert result.exit_code == 0, result.output
    assert result.output.startswith("tier,episodes,correct,accuracy")
    assert ",25," in result.output.splitlines()[1]
    lines = read_bytes(out).decode().strip().split("\n")
    assert len(lines) == 25
    record = json.loads(lines[0])
    assert record["outcome"] == "correct"  # expert policy, exact verifier
    manifest = json.loads(read_bytes(out + ".manifest.json"))
    assert manifest["command"] == "run-task" and manifest["episodes"] == 25


def test_run_task_writes_each_record_before_the_next_episode(runner, tmp_path, monkeypatch):
    # Records stream to the writer: memory does not grow with --episodes.
    log = []

    def logged(name, fn):
        def wrapper(*args, **kwargs):
            log.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "run_rtbs", logged("episode", cli.run_rtbs))
    monkeypatch.setattr(corpus, "record_to_json", logged("write", corpus.record_to_json))
    out = str(tmp_path / "episodes.jsonl")
    result = runner.invoke(
        main, ["run-task", "--task", "mult", "--tier", "id_easy", "--episodes", "3",
               "--out", out],
    )
    assert result.exit_code == 0, result.output
    assert log == ["episode", "write"] * 3


def test_run_task_then_estimate_errors_recovers_injection(runner, tmp_path):
    records = str(tmp_path / "noisy.jsonl")
    run = runner.invoke(
        main,
        [
            "run-task", "--task", "mult", "--tier", "id_easy",
            "--mode", "rmtp", "--episodes", "400", "--seed", "3",
            "--noise", "0.3", "--e-minus", "0.2", "--e-plus", "0.1",
            "--reflective-budget", "512", "--budget", "512",
            "--out", records,
        ],
    )
    assert run.exit_code == 0, run.output
    out = str(tmp_path / "errors.csv")
    est = runner.invoke(
        main, ["estimate-errors", "--records", records, "--oracle", "rule", "--out", out]
    )
    assert est.exit_code == 0, est.output
    header, values = read_bytes(out).decode().strip().split("\n")
    assert header == (
        "e_minus_hat,e_plus_hat,n_first_attempts,n_oracle_positive,n_oracle_negative"
    )
    e_minus_hat, e_plus_hat, n_first, n_pos, n_neg = values.split(",")
    assert int(n_first) == int(n_pos) + int(n_neg)
    assert int(n_first) > 800
    assert abs(float(e_minus_hat) - 0.2) < 0.06
    assert abs(float(e_plus_hat) - 0.1) < 0.06
    manifest = json.loads(read_bytes(out + ".manifest.json"))
    assert manifest["oracle"] == "rule"


def test_estimate_errors_truth_oracle_runs(runner, tmp_path):
    records = str(tmp_path / "clean.jsonl")
    assert (
        runner.invoke(
            main,
            [
                "run-task", "--task", "mult", "--tier", "id_easy",
                "--mode", "rmtp", "--episodes", "10", "--seed", "0",
                "--out", records,
            ],
        ).exit_code
        == 0
    )
    out = str(tmp_path / "t.csv")
    result = runner.invoke(
        main, ["estimate-errors", "--records", records, "--oracle", "truth", "--out", out]
    )
    assert result.exit_code == 0, result.output
    values = read_bytes(out).decode().strip().split("\n")[1].split(",")
    assert values[0] == "0.0"  # exact verifier never falsely rejects


def test_run_task_with_the_oracle_verifier_makes_no_verifier_error(runner, tmp_path):
    # The oracle verifier judges each step by the query's true answer, so
    # with no injected error both oracles find none, on noisy proposals.
    records = str(tmp_path / "oracle.jsonl")
    run = runner.invoke(
        main,
        [
            "run-task", "--task", "mult", "--tier", "id_easy", "--mode", "rtbs",
            "--m", "2", "--episodes", "20", "--noise", "0.3", "--verifier", "oracle",
            "--out", records,
        ],
    )
    assert run.exit_code == 0, run.output
    for oracle in ("truth", "rule"):
        out = str(tmp_path / f"{oracle}.csv")
        est = runner.invoke(
            main, ["estimate-errors", "--records", records, "--oracle", oracle, "--out", out]
        )
        assert est.exit_code == 0, est.output
        values = read_bytes(out).decode().strip().split("\n")[1].split(",")
        assert values == ["0.0", "0.0", "70", "57", "13"], oracle


def test_estimate_errors_rule_oracle_on_a_synthetic_task_is_usage_error(runner, tmp_path):
    # Synthetic records load, but their task has no rule to check steps by.
    law = Law(SimplifiedParams(0.8, 0.3, 0.2, 0.8), "rtbs", 2)
    records = str(tmp_path / "syn.jsonl")
    corpus.write_records(
        (
            run_rtbs(SyntheticSelfVerifier(law), SyntheticTransition(),
                     Query(TaskName.SYNTHETIC, 3), law.config(40), rng_mod.stream(4, i))
            for i in range(5)
        ),
        records,
    )
    out = str(tmp_path / "errors.csv")
    result = runner.invoke(
        main, ["estimate-errors", "--records", records, "--oracle", "rule", "--out", out]
    )
    assert result.exit_code == 2, result.output
    assert "'--oracle'" in result.output
    assert "task 'synthetic' has no rule verifier; --oracle truth works for it" in result.output
    assert not os.path.exists(out)
    truth = runner.invoke(
        main, ["estimate-errors", "--records", records, "--oracle", "truth", "--out", out]
    )
    assert truth.exit_code == 0, truth.output


def test_estimate_errors_reports_a_malformed_records_file_as_usage_error(runner, tmp_path):
    records = tmp_path / "bad.jsonl"
    records.write_text('{"task": "mult"}\n', encoding="utf-8")
    out = str(tmp_path / "errors.csv")
    result = runner.invoke(main, ["estimate-errors", "--records", str(records), "--out", out])
    assert result.exit_code == 2, result.output
    assert "'--records'" in result.output
    assert "bad.jsonl: line 1: missing field 'query'" in result.output
    assert not os.path.exists(out)


def test_estimate_errors_reports_an_infinite_number_as_usage_error(runner, tmp_path):
    records = tmp_path / "records.jsonl"
    run = runner.invoke(
        main,
        ["run-task", "--task", "mult", "--tier", "id_easy", "--episodes", "3",
         "--seed", "1", "--out", str(records)],
    )
    assert run.exit_code == 0, run.output
    lines = records.read_text(encoding="utf-8").splitlines()
    index = next(i for i, line in enumerate(lines) if '"delta":' in line)
    lines[index] = re.sub(r'"delta":\d+', '"delta":1e400', lines[index], count=1)
    records.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = str(tmp_path / "errors.csv")
    result = runner.invoke(main, ["estimate-errors", "--records", str(records), "--out", out])
    assert result.exit_code == 2, result.output
    assert f"records.jsonl: line {index + 1}: cannot convert float infinity" in result.output
    assert not os.path.exists(out)


def test_report_covers_requested_grid(runner, tmp_path):
    out = str(tmp_path / "report.csv")
    args = [
        "report", *REF_FLAGS, "--n", "1", "--n", "2", "--m", "1",
        "--episodes", "1500", "--seed", "5", "--threads", "1", "--out", out,
    ]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    lines = read_bytes(out).decode().strip().split("\n")
    assert lines[0] == "n,mode,m,episodes,acc_hat,ci_lo,ci_hi,theory,zscore"
    assert len(lines) == 1 + 2 * 3
    modes = [line.split(",")[1] for line in lines[1:]]
    assert modes == ["none", "rmtp", "rtbs"] * 2
    out_b = str(tmp_path / "report_b.csv")
    rerun = runner.invoke(main, args[:-1] + [out_b])
    assert rerun.exit_code == 0
    assert read_bytes(out) == read_bytes(out_b)
    manifest = json.loads(read_bytes(out + ".manifest.json"))
    assert manifest["n"] == [1, 2] and manifest["mode"] == ["none", "rmtp", "rtbs"]


def test_report_budget_dominated_exits_3(runner, tmp_path):
    # e- = 1 and e+ = 0 reject every proposal (alpha = 1), so no episode
    # ends within its budget.
    out = str(tmp_path / "report.csv")
    with pytest.warns(RuntimeWarning, match="alpha = 1"):
        result = runner.invoke(
            main,
            [
                "report", "--mu", "0.5", "--e-minus", "1", "--e-plus", "0", "--f", "0.5",
                "--mode", "rmtp", "--n", "1", "--episodes", "1000", "--out", out,
            ],
        )
    assert result.exit_code == 3, result.output
    assert "warning: 1 of 1 points are budget-dominated" in result.stderr
    row = read_bytes(out).decode().strip().split("\n")[1].split(",")
    assert row[:5] == ["1", "rmtp", "", "1000", "0.0"]  # the estimate is still written


@pytest.mark.parametrize(
    "command",
    [
        ["simulate", *REF_FLAGS, "--mode", "rmtp", "--n", "3", "--episodes", "10"],
        ["gen-data", "--task", "mult", "--count", "1"],
        ["run-task", "--task", "mult", "--tier", "id_easy", "--episodes", "1"],
        ["report", *REF_FLAGS, "--n", "2", "--episodes", "10"],
    ],
    ids=lambda command: command[0],
)
def test_negative_seed_is_usage_error(runner, tmp_path, command):
    # seed & MASK64 would alias -1 to 2**64 - 1, so it is refused up front.
    out = str(tmp_path / "out")
    result = runner.invoke(main, [*command, "--seed", "-1", "--out", out])
    assert result.exit_code == 2
    assert "--seed" in result.output
    assert not os.path.exists(out)


_SIMULATE = ["simulate", *REF_FLAGS, "--mode", "rmtp", "--n", "3", "--episodes", "10"]
_RUN_TASK = ["run-task", "--task", "mult", "--tier", "id_easy", "--episodes", "1"]
_REPORT = ["report", *REF_FLAGS, "--n", "2", "--episodes", "10"]
_THEORY = ["theory-curve", *REF_FLAGS]


@pytest.mark.parametrize(
    "command",
    [
        [*_RUN_TASK, "--mode", "rtbs", "--m", "0"],
        [*_RUN_TASK, "--budget", "0"],
        [*_RUN_TASK, "--reflective-budget", "-1"],
        [*_RUN_TASK, "--episodes", "-1"],
        [*_SIMULATE, "--episodes", "0"],
        [*_SIMULATE, "--budget", "0"],
        [*_SIMULATE, "--threads", "0"],
        [*_SIMULATE, "--n", "-1"],
        ["simulate", *REF_FLAGS, "--mode", "rtbs", "--n", "3", "--m", "0"],
        [*_REPORT, "--episodes", "0"],
        [*_REPORT, "--m", "0"],
        [*_REPORT, "--threads", "0"],
        ["gen-data", "--task", "mult", "--count", "-1"],
        [*_THEORY, "--m", "0"],
        [*_THEORY, "--n", "-1"],
    ],
    ids=lambda command: " ".join([command[0], *command[-2:]]),
)
def test_out_of_range_integer_is_usage_error(runner, tmp_path, command):
    out = str(tmp_path / "out")
    result = runner.invoke(main, [*command, "--out", out])
    assert result.exit_code == 2, result.output
    assert command[-2] in result.output
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "command",
    [
        # A repeated option takes its last value, so these override REF_FLAGS.
        [*_THEORY, "--mu", "1.5"],
        [*_SIMULATE, "--mu", "1.5"],
        [*_SIMULATE, "--e-plus", "1.5"],
        [*_SIMULATE, "--f", "-0.1"],
        [*_REPORT, "--e-minus", "-0.2"],
        [*_RUN_TASK, "--noise", "-0.5"],
        [*_RUN_TASK, "--e-minus", "-0.2"],
        [*_RUN_TASK, "--e-plus", "1.5"],
        ["gen-data", "--task", "mult", "--count", "1", "--noise", "1.5"],
    ],
    ids=lambda command: " ".join([command[0], *command[-2:]]),
)
def test_out_of_range_rate_is_usage_error(runner, tmp_path, command):
    out = str(tmp_path / "out")
    result = runner.invoke(main, [*command, "--out", out])
    assert result.exit_code == 2, result.output
    assert command[-2] in result.output
    assert not os.path.exists(out)


# sha256 of small data outputs, recorded before the per-task code moved into
# one record per task module.  They tie every build to the same bytes, where
# the reproducibility checks compare two runs of one build.  The draws come
# from numpy's Philox generator, so a numpy release that changes a Generator
# method's stream would change them too.
PINNED_OUTPUTS = {
    "mult_detailed.jsonl": (
        ["gen-data", "--task", "mult", "--style", "detailed", "--count", "24",
         "--seed", "3"],
        "3b449386fc21789299e77567d56c6bda2db200eb959f6f12b3bc9476424489d4",
    ),
    "sudoku_optional.jsonl": (
        ["gen-data", "--task", "sudoku", "--style", "optional_detailed",
         "--count", "3", "--seed", "3"],
        "dcb9b049bd272e1ac7918f76aab3a8b4bb892718740359e8b556092a6100f411",
    ),
    "sudoku_rtbs.jsonl": (
        ["run-task", "--task", "sudoku", "--tier", "id_hard", "--mode", "rtbs",
         "--m", "2", "--episodes", "3", "--seed", "6", "--noise", "0.3",
         "--e-minus", "0.1", "--e-plus", "0.1"],
        "b6126e5addb54f871c3be1432319a315d7c9a3c856527f23354676f05bc6b701",
    ),
    "mult_detailed_rmtp.jsonl": (
        ["run-task", "--task", "mult", "--tier", "id_hard", "--verifier", "detailed",
         "--episodes", "12", "--seed", "4", "--noise", "0.2",
         "--e-minus", "0.1", "--e-plus", "0.1"],
        "c3cf0a51f3bcc9b9859f3675a4b1b7c62db928a71d2a5c4fd6f2a328178db50e",
    ),
    "sim_small.csv": (
        ["simulate", *REF_FLAGS, "--mode", "rtbs", "--m", "2", "--n", "6",
         "--episodes", "3000", "--seed", "11", "--threads", "1"],
        "4d1d583d6d4a85a9d2b238578de5308deab773ca1b6fb7c8f907847ed490ac60",
    ),
    # The closed-form curves at default widths, every float written by repr,
    # recorded before constant rates became the one-entry attempt table.
    "theory_curve.csv": (
        ["theory-curve", *REF_FLAGS],
        "cfbd4e0bc27044391ebe58ca1c09ed718a868951d743f73b4b8f82eec28b6963",
    ),
    # Reads the records above back, replaying every state, and asks the
    # solvability oracle about each first attempt.
    "sudoku_rtbs_errors.csv": (
        ["estimate-errors", "--records", "sudoku_rtbs.jsonl", "--oracle", "truth"],
        "a63f864f4fe0c6b7c38b04efb0b1ee506792cdab6a77359020646a56d1dee5e1",
    ),
}


def _pinned_output(runner, tmp_path, name):
    """Write one pinned output, first writing any pinned output it reads."""
    args, _ = PINNED_OUTPUTS[name]
    args = [
        _pinned_output(runner, tmp_path, arg) if arg in PINNED_OUTPUTS else arg
        for arg in args
    ]
    out = str(tmp_path / name)
    result = runner.invoke(main, [*args, "--out", out])
    assert result.exit_code == 0, result.output
    return out


@pytest.mark.parametrize("name", sorted(PINNED_OUTPUTS))
def test_data_outputs_match_pinned_sha256(runner, tmp_path, name):
    out = _pinned_output(runner, tmp_path, name)
    assert hashlib.sha256(read_bytes(out)).hexdigest() == PINNED_OUTPUTS[name][1]


# --- manifests ---


@pytest.mark.parametrize("name", sorted(main.commands))
def test_manifest_records_every_flag(runner, tmp_path, name):
    records = str(tmp_path / "records.jsonl")
    assert runner.invoke(main, [*_RUN_TASK, "--out", records]).exit_code == 0
    command = {
        "theory-curve": _THEORY,
        "simulate": _SIMULATE,
        "gen-data": ["gen-data", "--task", "mult", "--count", "1"],
        "run-task": _RUN_TASK,
        "estimate-errors": ["estimate-errors", "--records", records],
        "report": _REPORT,
    }[name]
    out = str(tmp_path / "out")
    result = runner.invoke(main, [*command, "--out", out])
    assert result.exit_code == 0, result.output
    manifest = json.loads(read_bytes(out + ".manifest.json"))
    flags = {param.name for param in main.commands[name].params}
    assert set(manifest) == flags | {"command", "version", "numpy_version", "python_version"}
    assert manifest["command"] == name and manifest["out"] == out


@pytest.mark.parametrize("style, noise", [("none", 0.0), ("binary", 0.2)])
def test_gen_data_manifest_records_the_resolved_noise(runner, tmp_path, style, noise):
    out = str(tmp_path / "corpus.jsonl")
    result = runner.invoke(
        main, ["gen-data", "--task", "mult", "--style", style, "--count", "2", "--out", out]
    )
    assert result.exit_code == 0, result.output
    manifest = json.loads(read_bytes(out + ".manifest.json"))
    assert manifest["noise"] == noise and manifest["count"] == 2


# The manifests of PINNED_OUTPUTS without `out` (and with `records` reduced to
# its file name), as written when each command still listed its flags by hand.
_GEN_DATA_SHARED = {
    "command": "gen-data", "noise": 0.2, "tier_mix": "id_easy=0.5,id_hard=0.5",
}
_RUN_TASK_SHARED = {
    "command": "run-task", "budget": 96, "e_minus": 0.1, "e_plus": 0.1,
    "reflective_budget": 64,
}
PINNED_MANIFESTS = {
    "mult_detailed.jsonl": {
        **_GEN_DATA_SHARED, "count": 24, "seed": 3, "style": "detailed", "task": "mult",
    },
    "sudoku_optional.jsonl": {
        **_GEN_DATA_SHARED, "count": 3, "seed": 3, "style": "optional_detailed",
        "task": "sudoku",
    },
    "sudoku_rtbs.jsonl": {
        **_RUN_TASK_SHARED, "episodes": 3, "m": 2, "mode": "rtbs", "noise": 0.3,
        "seed": 6, "task": "sudoku", "tier": "id_hard", "verifier": "binary",
    },
    "mult_detailed_rmtp.jsonl": {
        **_RUN_TASK_SHARED, "episodes": 12, "m": 4, "mode": "rmtp", "noise": 0.2,
        "seed": 4, "task": "mult", "tier": "id_hard", "verifier": "detailed",
    },
    "sim_small.csv": {
        "command": "simulate", "mu": 0.8, "e_minus": 0.3, "e_plus": 0.2, "f": 0.8,
        "budget": None, "engine": "vector", "episodes": 3000, "m": 2, "mode": "rtbs",
        "n": 6, "root_unlimited": False, "seed": 11, "threads": 1,
    },
    "theory_curve.csv": {
        "command": "theory-curve", "mu": 0.8, "e_minus": 0.3, "e_plus": 0.2, "f": 0.8,
        "m": [1, 2, 4, 16, 64], "n": 30,
    },
    "sudoku_rtbs_errors.csv": {
        "command": "estimate-errors", "oracle": "truth", "records": "sudoku_rtbs.jsonl",
    },
}


@pytest.mark.parametrize("name", sorted(PINNED_OUTPUTS))
def test_pinned_output_manifests_are_unchanged(runner, tmp_path, name):
    out = _pinned_output(runner, tmp_path, name)
    manifest = json.loads(read_bytes(out + ".manifest.json"))
    assert manifest.pop("out") == out
    if "records" in manifest:
        manifest["records"] = os.path.basename(manifest["records"])
    assert manifest == {
        **PINNED_MANIFESTS[name],
        "version": __version__,
        "numpy_version": np.__version__,
        "python_version": platform.python_version(),
    }
