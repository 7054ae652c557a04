"""The tools under tools/: the untested-line tool's statement list, runs of
the retained-bytes counter on files the CLI writes, and the engine A/B run
of the repo against itself."""

import importlib.util
import os
import subprocess
import sys

from click.testing import CliRunner

from reflect_lab.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOLS = os.path.join(ROOT, "tools")


def _load(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(TOOLS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_local_annotation_without_a_value_is_no_statement():
    # Inside a function `value: object` compiles to no code, so no line event
    # could ever mark it; at module and class level it stores an annotation.
    source = (
        "name: str\n"  # 1
        "class Board:\n"
        "    cells: bytes\n"  # 3
        "    def get(self, key):\n"
        "        value: object\n"  # 5
        "        if key:\n"  # 6
        "            other: int\n"  # 7
        "        self.seen: bool\n"  # 8
        "        return key\n"  # 9
    )
    assert _load("unexecuted_lines").statements(source) == [(1, 1), (3, 3), (6, 6), (8, 8), (9, 9)]


def test_retained_bytes_counts_records_and_examples(tmp_path):
    records = str(tmp_path / "records.jsonl")
    examples = str(tmp_path / "examples.jsonl")
    runner = CliRunner()
    for args in (
        ["run-task", "--task", "mult", "--tier", "id_easy", "--episodes", "2", "--out", records],
        ["gen-data", "--task", "mult", "--count", "2", "--out", examples],
    ):
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
    for args, kind in (([records], "records"), (["--examples", examples], "examples")):
        done = subprocess.run(
            [sys.executable, os.path.join(TOOLS, "retained_bytes.py"), *args],
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1].startswith(f"{kind}: 2")


def _retained_total(*paths):
    """(total bytes, last line) of the retained-bytes counter over paths."""
    done = subprocess.run(
        [sys.executable, os.path.join(TOOLS, "retained_bytes.py"), *paths],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    return int(lines[-2].split()[-1]), lines[-1]


def test_retained_bytes_counts_what_two_files_share_once(tmp_path):
    # A second decoding of a Sudoku file, made while the first's records
    # live, holds the first's boards: the pair retains far less than twice
    # the one.
    records = str(tmp_path / "records.jsonl")
    args = ["run-task", "--task", "sudoku", "--tier", "id_easy", "--episodes", "3",
            "--out", records]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    once, summary = _retained_total(records)
    twice, summary_twice = _retained_total(records, records)
    assert summary.startswith("records: 3") and summary_twice.startswith("records: 6")
    assert once < twice < 1.5 * once


def test_engine_ab_finds_the_repo_identical_to_itself():
    done = subprocess.run(
        [sys.executable, os.path.join(TOOLS, "engine_ab.py"), ROOT, ROOT,
         "--episodes", "200", "--n-max", "3"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "identical: 21 of 21 points"
