import contextlib
import errno
import hashlib
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iterqa.cli import build_parser, main
from iterqa.synth import make_chain_benchmark, write_benchmark


@pytest.fixture()
def workspace(tmp_path):
    corpus_path = tmp_path / "corpus.jsonl"
    questions_path = tmp_path / "questions.jsonl"
    assert main([
        "synth",
        "--corpus-out", str(corpus_path),
        "--questions-out", str(questions_path),
        "--per-hop", "4", "4", "2",
        "--distractors", "10",
        "--seed", "7",
    ]) == 0
    return tmp_path, corpus_path, questions_path


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def test_cli_oracle(workspace):
    tmp_path, corpus_path, questions_path = workspace
    out = tmp_path / "oracle.jsonl"
    assert main([
        "oracle", "--corpus", str(corpus_path),
        "--questions", str(questions_path), "--out", str(out),
    ]) == 0
    records = read_jsonl(out)
    assert records
    for record in records:
        assert record["achieved_rank"] >= 1
        assert record["query"]
        assert len(record["spans"]) == len(record["importances"])


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_cli_oracle_output_is_pinned(workspace):
    tmp_path, corpus_path, questions_path = workspace
    out = tmp_path / "oracle.jsonl"
    assert main([
        "oracle", "--corpus", str(corpus_path),
        "--questions", str(questions_path), "--out", str(out),
    ]) == 0
    assert sha256(out) == "74da3bb123135d9a50728a64724b68cf2794fa0885e7607c15769bc8803143c5"


def test_cli_traces_output_is_pinned(workspace):
    tmp_path, corpus_path, questions_path = workspace
    out = tmp_path / "traces.jsonl"
    assert main([
        "traces", "--corpus", str(corpus_path),
        "--questions", str(questions_path), "--out", str(out),
    ]) == 0
    assert sha256(out) == "215e36a842e44b42ade1b8884b692190f68fea8c6fd3025bbd859c99cf65d290"


@pytest.fixture()
def broken_chain(tmp_path):
    """Question "broken" has a second gold paragraph sharing no token with its path."""
    corpus_path = tmp_path / "corpus.jsonl"
    questions_path = tmp_path / "questions.jsonl"
    records = [
        {"article_id": "hall", "title": "Alpha Hall", "order": 0,
         "text": "the alpha hall stands beside the river mill"},
        {"article_id": "far", "title": "Far", "order": 0, "text": "zorbic quills vex nobody"},
        {"article_id": "d1", "title": "D1", "order": 0, "text": "a river mill grinds grain"},
        {"article_id": "d2", "title": "D2", "order": 0, "text": "the hall of mirrors"},
        {"article_id": "d3", "title": "D3", "order": 0, "text": "alpha particles decay"},
        {"article_id": "d4", "title": "D4", "order": 0, "text": "stands of pine trees"},
    ]
    corpus_path.write_text("".join(json.dumps(r) + "\n" for r in records))
    questions = [
        {"id": "broken", "question": "where does the alpha hall stand",
         "answers": ["nobody"], "gold_paragraph_ids": ["hall#0", "far#0"]},
        {"id": "whole", "question": "where does the alpha hall stand",
         "answers": ["river mill"], "gold_paragraph_ids": ["hall#0"]},
    ]
    questions_path.write_text("".join(json.dumps(q) + "\n" for q in questions))
    return tmp_path, corpus_path, questions_path


def test_cli_oracle_writes_steps_before_an_untrainable_one(broken_chain, capsys):
    tmp_path, corpus_path, questions_path = broken_chain
    out = tmp_path / "oracle.jsonl"
    assert main([
        "oracle", "--corpus", str(corpus_path),
        "--questions", str(questions_path), "--out", str(out),
    ]) == 0
    records = read_jsonl(out)
    assert [(r["qid"], r["target_id"]) for r in records] == [
        ("broken", "hall#0"), ("whole", "hall#0"),
    ]
    assert "oracle queries for 2 questions (1 skipped)" in capsys.readouterr().err


def test_cli_oracle_reports_recall_per_gold_step(broken_chain, capsys):
    tmp_path, corpus_path, questions_path = broken_chain
    assert main([
        "oracle", "--corpus", str(corpus_path),
        "--questions", str(questions_path), "--out", str(tmp_path / "oracle.jsonl"),
    ]) == 0
    # Both questions reach hall#0 at rank 1; the untrainable far#0 is a miss.
    assert capsys.readouterr().err.splitlines()[1:] == [
        "gold step 1 recall @1 1.0000, @5 1.0000, @10 1.0000 (2 steps)",
        "gold step 2 recall @1 0.0000, @5 0.0000, @10 0.0000 (1 steps)",
    ]


def test_cli_traces_skip_an_example_with_an_untrainable_step(broken_chain, capsys):
    tmp_path, corpus_path, questions_path = broken_chain
    out = tmp_path / "traces.jsonl"
    assert main([
        "traces", "--corpus", str(corpus_path),
        "--questions", str(questions_path), "--out", str(out),
    ]) == 0
    records = read_jsonl(out)
    assert records and {r["qid"] for r in records} == {"whole"}
    assert "(1 examples skipped" in capsys.readouterr().out


def test_cli_traces(workspace):
    tmp_path, corpus_path, questions_path = workspace
    out = tmp_path / "traces.jsonl"
    assert main([
        "traces", "--corpus", str(corpus_path),
        "--questions", str(questions_path), "--out", str(out),
    ]) == 0
    records = read_jsonl(out)
    assert any(r["reader_label"] == "SPAN" for r in records)
    assert all(len(r["candidates"]) == 5 for r in records)


def test_cli_run_single_question(workspace, capsys):
    tmp_path, corpus_path, questions_path = workspace
    single = tmp_path / "one.jsonl"
    single.write_text(questions_path.read_text().splitlines()[0] + "\n")
    assert main([
        "run", "--corpus", str(corpus_path), "--question-file", str(single),
    ]) == 0
    out = capsys.readouterr().out
    steps = [json.loads(line) for line in out.splitlines() if line.strip()]
    assert steps and steps[0]["query"]


def test_cli_run_and_bench_agree_on_a_questions_fixed_steps(chain_benchmark, tmp_path, capsys):
    # q0101 is a two-hop question that both commands answer at step 2 when
    # free to stop; its own fixed_steps must force the answer at step 1 in each.
    corpus_path, questions_path = tmp_path / "corpus.jsonl", tmp_path / "questions.jsonl"
    write_benchmark(chain_benchmark, corpus_path, questions_path)
    record = next(r for r in read_jsonl(questions_path) if r["id"] == "q0101")
    one = tmp_path / "one.jsonl"
    one.write_text(json.dumps({**record, "fixed_steps": 1}) + "\n")
    assert main(["run", "--corpus", str(corpus_path), "--question-file", str(one)]) == 0
    captured = capsys.readouterr()
    steps = [json.loads(line) for line in captured.out.splitlines()]
    answer = re.fullmatch(r"answer: '(.*)' \(answerability \S+, (\d+) steps\)\n", captured.err)
    report_dir = tmp_path / "reports"
    assert main([
        "bench", "--corpus", str(corpus_path), "--questions", str(one),
        "--report-dir", str(report_dir),
    ]) == 0
    [row] = read_jsonl(report_dir / "per_question.jsonl")
    assert (row["prediction"], row["steps_used"], row["em"]) == (answer[1], 1, 0.0)
    assert len(steps) == int(answer[2]) == 1


def test_cli_run_with_baseline_manifest(workspace, tmp_path, capsys):
    _, corpus_path, _ = workspace
    manifest = tmp_path / "models.json"
    manifest.write_text(json.dumps({"retriever": "baseline", "reader": "gold",
                                    "reranker": "baseline"}))
    assert main([
        "run", "--corpus", str(corpus_path),
        "--question", "which secret is kept somewhere",
        "--models", str(manifest),
    ]) == 0


def test_cli_bench(workspace, capsys):
    tmp_path, corpus_path, questions_path = workspace
    report_dir = tmp_path / "reports"
    assert main([
        "bench", "--corpus", str(corpus_path), "--questions", str(questions_path),
        "--report-dir", str(report_dir), "--fixed-k-grid", "1", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert "exact match: 1.0000" in out
    assert (report_dir / "summary.txt").exists()
    rows = read_jsonl(report_dir / "per_question.jsonl")
    assert len(rows) == 10


def test_cli_bench_reports_do_not_depend_on_corpus_line_order(tmp_path, capsys):
    corpus_path, questions_path = tmp_path / "corpus.jsonl", tmp_path / "questions.jsonl"
    assert main([
        "synth", "--corpus-out", str(corpus_path), "--questions-out", str(questions_path),
        "--per-hop", "10", "10", "10", "--distractors", "40", "--seed", "29",
    ]) == 0
    lines = corpus_path.read_text().splitlines(keepends=True)
    random.Random(5).shuffle(lines)
    shuffled = tmp_path / "shuffled.jsonl"
    shuffled.write_text("".join(lines))
    for retriever in ("oracle", "baseline"):
        manifest = tmp_path / f"{retriever}.json"
        manifest.write_text(json.dumps({"retriever": retriever}))
        reports = []
        for corpus in (corpus_path, shuffled):
            reports.append(tmp_path / f"{retriever}-{corpus.stem}")
            assert main([
                "bench", "--corpus", str(corpus), "--questions", str(questions_path),
                "--models", str(manifest), "--report-dir", str(reports[-1]),
                "--fixed-k-grid", "1", "2", "3", "--docs-grid", "3", "9", "50",
            ]) == 0
        for name in ("summary.txt", "per_question.jsonl"):
            assert (reports[0] / name).read_bytes() == (reports[1] / name).read_bytes()


def test_cli_bench_reports_do_not_depend_on_question_order(tmp_path, capsys):
    corpus_path, questions_path = tmp_path / "corpus.jsonl", tmp_path / "questions.jsonl"
    assert main([
        "synth", "--corpus-out", str(corpus_path), "--questions-out", str(questions_path),
        "--per-hop", "10", "10", "10", "--distractors", "40", "--seed", "29",
    ]) == 0
    reversed_path = tmp_path / "reversed.jsonl"
    reversed_path.write_text("".join(reversed(questions_path.read_text().splitlines(True))))
    for retriever in ("oracle", "baseline"):
        manifest = tmp_path / f"{retriever}.json"
        manifest.write_text(json.dumps({"retriever": retriever}))
        reports = []
        for questions in (questions_path, reversed_path):
            reports.append(tmp_path / f"{retriever}-{questions.stem}")
            assert main([
                "bench", "--corpus", str(corpus_path), "--questions", str(questions),
                "--models", str(manifest), "--report-dir", str(reports[-1]),
                "--fixed-k-grid", "1", "2", "3", "--docs-grid", "3", "9", "50",
            ]) == 0
        summaries = [(report / "summary.txt").read_bytes() for report in reports]
        assert summaries[0] == summaries[1]
        rows = [(report / "per_question.jsonl").read_text().splitlines() for report in reports]
        assert rows[0] != rows[1] and sorted(rows[0]) == sorted(rows[1])


def test_cli_map(workspace, tmp_path, capsys):
    _, corpus_path, _ = workspace
    # Map the corpus onto an edited copy of itself: every paragraph should match.
    edited = tmp_path / "edited.jsonl"
    records = read_jsonl(corpus_path)
    for record in records:
        record["text"] = record["text"] + " with a freshly appended remark"
    edited.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    out = tmp_path / "mapping.jsonl"
    assert main([
        "map", "--original", str(corpus_path), "--candidate", str(edited),
        "--out", str(out),
    ]) == 0
    verdicts = read_jsonl(out)
    assert verdicts
    assert all(v["matched"] for v in verdicts)


def test_cli_map_compares_every_article_of_the_title(tmp_path, capsys):
    # The original's article id is not in the candidate, which holds two exact
    # copies titled "Paris" (the earlier id wins the tie) and, last, a third
    # "Paris" with other text.
    text = "Paris is the capital of France and its largest city on the Seine"
    original = tmp_path / "original.jsonl"
    original.write_text(json.dumps(
        {"article_id": "paris-old", "title": "Paris", "order": 0, "text": text}) + "\n")
    candidate = tmp_path / "candidate.jsonl"
    candidate.write_text("".join(json.dumps(r) + "\n" for r in [
        {"article_id": "paris-b", "title": "Paris", "order": 0, "text": text},
        {"article_id": "paris-a", "title": "Paris", "order": 0, "text": text},
        {"article_id": "paris-c", "title": "Paris", "order": 0,
         "text": "Paris hosts many museums and the city holds a famous tower"},
    ]))
    out = tmp_path / "mapping.jsonl"
    assert main([
        "map", "--original", str(original), "--candidate", str(candidate), "--out", str(out),
    ]) == 0
    assert capsys.readouterr().out == f"mapped 1/1 paragraphs -> {out}\n"
    assert read_jsonl(out) == [{
        "paragraph_id": "paris-old#0", "matched": True, "unigram_recall": 1.0,
        "lcs_coverage": 1.0, "target_paragraph_ids": ["paris-a#0"],
    }]


# ---------------------------------------------------------------------------
# bad input: exit code 2 and one line on stderr, before any question runs
# ---------------------------------------------------------------------------

def cli_error(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    return lines[0]


def test_cli_reports_bad_corpus_line(tmp_path, capsys):
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_text('{"article_id": "a", "title": "A", "order": 0}\n')
    message = cli_error(["run", "--corpus", str(corpus_path), "--question", "where"], capsys)
    assert message == f"iterqa run: corpus {str(corpus_path)!r}: line 1: missing field 'text'"


def test_cli_reports_bad_question_record(workspace, capsys):
    tmp_path, corpus_path, _ = workspace
    questions_path = tmp_path / "bad.jsonl"
    questions_path.write_text("[1, 2]\n")
    message = cli_error([
        "oracle", "--corpus", str(corpus_path), "--questions", str(questions_path),
    ], capsys)
    assert message == (
        f"iterqa oracle: questions file {str(questions_path)!r}: line 1: record is not an object"
    )


def test_cli_refuses_an_article_whose_paragraphs_disagree_on_its_title(tmp_path, capsys):
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_text("".join(json.dumps(r) + "\n" for r in [
        {"article_id": "a", "title": "T", "order": 0, "text": "red stone"},
        {"article_id": "a", "title": "U", "order": 1, "text": "blue stone"},
    ]))
    message = cli_error(["run", "--corpus", str(corpus_path), "--question", "where"], capsys)
    assert message == (
        f"iterqa run: corpus {str(corpus_path)!r}: "
        "line 2: title 'U' differs from 'T', the title of article 'a'"
    )


def test_cli_reports_bad_manifest(workspace, capsys):
    tmp_path, corpus_path, questions_path = workspace
    manifest = tmp_path / "models.json"
    manifest.write_text(json.dumps({"retriever": "psychic"}))
    message = cli_error([
        "bench", "--corpus", str(corpus_path), "--questions", str(questions_path),
        "--models", str(manifest),
    ], capsys)
    assert message == f"iterqa bench: manifest {str(manifest)!r}: unknown retriever 'psychic'"


@pytest.mark.parametrize("manifest, expected", [
    ({"retriever": ["x"]}, "retriever must be a string, got ['x']"),
    ("{bad", "not JSON: Expecting property name enclosed in double quotes: "
             "line 1 column 2 (char 1)"),
    ('["retriever"]', "not a JSON object"),
    ({"retriever": "baseline", "keep_fracton": 0.9}, "unknown manifest key 'keep_fracton'"),
    ({"retriever": "baseline", "keep_fraction": 0.4}, "unknown manifest key 'keep_fraction'"),
    ({"retriever": "baseline", "max_query_len": 20}, "unknown manifest key 'max_query_len'"),
], ids=["role-not-a-string", "not-json", "not-an-object", "misspelled-key",
        "keep-fraction-key", "max-query-len-key"])
def test_cli_reports_malformed_manifest(workspace, capsys, manifest, expected):
    tmp_path, corpus_path, questions_path = workspace
    manifest_path = tmp_path / "models.json"
    manifest_path.write_text(manifest if isinstance(manifest, str) else json.dumps(manifest))
    message = cli_error([
        "bench", "--corpus", str(corpus_path), "--questions", str(questions_path),
        "--models", str(manifest_path),
    ], capsys)
    assert message == f"iterqa bench: manifest {str(manifest_path)!r}: {expected}"


@pytest.mark.parametrize("command", ["run", "bench"])
@pytest.mark.parametrize("role, factory, problem", [
    ("retriever", "string_retriever_factory", "str, not a list of str"),
    ("reranker", "nan_reranker_factory", "nan for '[^']+' is not a finite real number"),
    ("reader", "nan_class_reader_factory",
     "class logit SPAN nan is not a finite real number, reading '[^']+'"),
    ("reader", "far_span_reader_factory",
     r"best_span \(1000000, 1000000\) is neither \(0, 0\) nor inside one paragraph's tokens, "
     "reading '[^']+'"),
], ids=["string-retriever", "nan-reranker", "nan-class-logit-reader", "far-span-reader"])
def test_cli_refuses_a_model_output_outside_its_contract(
    workspace, capsys, command, role, factory, problem
):
    tmp_path, corpus_path, questions_path = workspace
    manifest = tmp_path / "models.json"
    manifest.write_text(json.dumps({"retriever": "baseline", role: f"external:conftest:{factory}"}))
    argv = [command, "--corpus", str(corpus_path), "--models", str(manifest)]
    if command == "run":
        argv += ["--question", "where is the secret"]
    else:
        argv += ["--questions", str(questions_path)]
    message = cli_error(argv, capsys)
    question = "where is the secret" if command == "run" else ".+"
    assert re.fullmatch(
        f"iterqa {command}: {role} output for question '{question}': {problem}", message
    ), message


@pytest.mark.parametrize("command", ["run", "bench"])
@pytest.mark.parametrize("role", ["retriever", "reader", "reranker"])
def test_cli_refuses_an_external_role_that_is_not_callable(workspace, capsys, command, role):
    tmp_path, corpus_path, questions_path = workspace
    manifest = tmp_path / "models.json"
    manifest.write_text(json.dumps({role: "external:conftest:int_role_factory"}))
    # A two-hop question, so every role would be called.
    record = next(r for r in read_jsonl(questions_path) if len(r["gold_paragraph_ids"]) == 2)
    one = tmp_path / "one.jsonl"
    one.write_text(json.dumps(record) + "\n")
    argv = [command, "--corpus", str(corpus_path), "--models", str(manifest)]
    argv += ["--question-file" if command == "run" else "--questions", str(one)]
    assert cli_error(argv, capsys) == (
        f"iterqa {command}: {role} for question {record['question']!r}: "
        "the external constructor returned int, not a callable"
    )


@pytest.mark.parametrize("command", ["run", "bench"])
@pytest.mark.parametrize("role", ["retriever", "reader", "reranker"])
def test_cli_refuses_an_external_reference_that_is_not_callable(workspace, capsys, command, role):
    tmp_path, corpus_path, questions_path = workspace
    manifest = tmp_path / "models.json"
    manifest.write_text(json.dumps({role: "external:math:pi"}))
    argv = [command, "--corpus", str(corpus_path), "--models", str(manifest)]
    argv += ["--question-file" if command == "run" else "--questions", str(questions_path)]
    assert cli_error(argv, capsys) == (
        f"iterqa {command}: manifest {str(manifest)!r}: external model 'math:pi' is float, "
        "not callable"
    )


@pytest.mark.parametrize("command", ["run", "bench"])
@pytest.mark.parametrize("role, ref, problem", [
    ("retriever", "os:getcwd", "too many positional arguments"),
    ("reranker", "math:floor", "too many positional arguments"),
    ("reader", "conftest:two_argument_factory", "too many positional arguments"),
    ("retriever", "conftest:keyword_factory", "missing a required argument: 'model'"),
])
def test_cli_refuses_an_external_reference_that_cannot_take_three_arguments(
    workspace, capsys, command, role, ref, problem
):
    tmp_path, corpus_path, questions_path = workspace
    manifest = tmp_path / "models.json"
    manifest.write_text(json.dumps({role: f"external:{ref}"}))
    argv = [command, "--corpus", str(corpus_path), "--models", str(manifest)]
    argv += ["--question-file" if command == "run" else "--questions", str(questions_path)]
    assert cli_error(argv, capsys) == (
        f"iterqa {command}: manifest {str(manifest)!r}: external model {ref!r} cannot be called "
        f"with (example, index, corpus): {problem}"
    )


@pytest.mark.parametrize("command", ["oracle", "traces", "bench"])
def test_cli_reports_unknown_gold_id_before_running(workspace, capsys, command):
    tmp_path, corpus_path, questions_path = workspace
    records = read_jsonl(questions_path)
    records[3]["gold_paragraph_ids"] = [records[3]["gold_paragraph_ids"][0], "nope#0"]
    questions_path.write_text("".join(json.dumps(r) + "\n" for r in records))
    out = tmp_path / "out.jsonl"
    argv = [command, "--corpus", str(corpus_path), "--questions", str(questions_path)]
    if command != "bench":
        argv += ["--out", str(out)]
    message = cli_error(argv, capsys)
    assert message == (
        f"iterqa {command}: questions file {str(questions_path)!r}: "
        "line 4: gold paragraph 'nope#0' is not in the corpus"
    )
    assert not out.exists() or out.read_text() == ""


@pytest.mark.parametrize("command, flags, name", [
    ("traces", ["--docs-per-step", "0"], "docs_per_step"),
    ("traces", ["--k-cap", "0"], "k_cap"),
    ("bench", ["--k-cap", "-1"], "k_cap"),
    ("bench", ["--fixed-k-grid", "2", "0"], "fixed_steps"),
    ("bench", ["--docs-grid", "0"], "docs_per_step"),
    ("run", ["--docs-per-step", "0"], "docs_per_step"),
    ("run", ["--stop-threshold", "nan"], "stop_threshold"),
])
def test_cli_reports_bad_config_value(workspace, capsys, command, flags, name):
    tmp_path, corpus_path, questions_path = workspace
    argv = [command, "--corpus", str(corpus_path)] + flags
    if command == "run":
        argv += ["--question", "where is the secret"]
    else:
        argv += ["--questions", str(questions_path)]
    out = tmp_path / "out"
    if command == "traces":
        argv += ["--out", str(out)]
    if command == "bench":
        argv += ["--report-dir", str(out)]
    message = cli_error(argv, capsys)
    rule = "a number" if name == "stop_threshold" else ">= 1"
    assert message.startswith(f"iterqa {command}: {name} must be {rule}, got ")
    assert not out.exists()


def test_cli_reports_bad_fixed_steps_in_question_record(workspace, capsys):
    tmp_path, corpus_path, questions_path = workspace
    records = read_jsonl(questions_path)
    records[3]["fixed_steps"] = 0
    questions_path.write_text("".join(json.dumps(r) + "\n" for r in records))
    message = cli_error([
        "bench", "--corpus", str(corpus_path), "--questions", str(questions_path),
    ], capsys)
    assert message == (
        f"iterqa bench: questions file {str(questions_path)!r}: "
        "line 4: fixed_steps must be null or an integer >= 1, got 0"
    )


@pytest.mark.parametrize("field, value, expected", [
    ("answers", "junhol", "answers must be a list of strings, got 'junhol'"),
    ("answer_kind", "maybe", "answer_kind must be 'span', 'yes' or 'no', got 'maybe'"),
    ("question", 17, "question must be a string, got 17"),
    ("gold_paragraph_ids", "q0001-hop1#0",
     "gold_paragraph_ids must be a list of strings, got 'q0001-hop1#0'"),
    ("id", None, "id must be a string, got None"),
    ("id", [1], "id must be a string, got [1]"),
    ("dataset", 5, "dataset must be a string, got 5"),
    ("dataset", None, "dataset must be a string, got None"),
    ("dataset", ["x"], "dataset must be a string, got ['x']"),
])
def test_cli_reports_bad_question_field(workspace, capsys, field, value, expected):
    tmp_path, corpus_path, questions_path = workspace
    records = read_jsonl(questions_path)
    records[2][field] = value
    questions_path.write_text("".join(json.dumps(r) + "\n" for r in records))
    message = cli_error([
        "bench", "--corpus", str(corpus_path), "--questions", str(questions_path),
    ], capsys)
    assert message == f"iterqa bench: questions file {str(questions_path)!r}: line 3: {expected}"


@pytest.mark.parametrize("field", ["id", "question"])
def test_cli_reports_missing_question_field(workspace, capsys, field):
    tmp_path, corpus_path, questions_path = workspace
    records = read_jsonl(questions_path)
    del records[2][field]
    questions_path.write_text("".join(json.dumps(r) + "\n" for r in records))
    message = cli_error([
        "bench", "--corpus", str(corpus_path), "--questions", str(questions_path),
    ], capsys)
    assert message == (
        f"iterqa bench: questions file {str(questions_path)!r}: line 3: missing field {field!r}"
    )


@pytest.mark.parametrize("field, value, expected", [
    ("article_id", "", "article_id must be a non-empty string, got ''"),
    ("article_id", 7, "article_id must be a non-empty string, got 7"),
    ("title", 3, "title must be a string, got 3"),
    ("title", None, "title must be a string, got None"),
    ("order", -1, "order must be an integer >= 0, got -1"),
    ("order", True, "order must be an integer >= 0, got True"),
    ("order", 1.0, "order must be an integer >= 0, got 1.0"),
    ("text", ["x"], "text must be a string, got ['x']"),
])
def test_cli_reports_bad_corpus_field(workspace, capsys, field, value, expected):
    tmp_path, corpus_path, _ = workspace
    records = read_jsonl(corpus_path)
    records[2][field] = value
    corpus_path.write_text("".join(json.dumps(r) + "\n" for r in records))
    message = cli_error(["run", "--corpus", str(corpus_path), "--question", "where"], capsys)
    assert message == f"iterqa run: corpus {str(corpus_path)!r}: line 3: {expected}"


def test_cli_reports_duplicate_question_id(workspace, capsys):
    tmp_path, corpus_path, questions_path = workspace
    records = read_jsonl(questions_path)
    records[4]["id"] = records[1]["id"]
    questions_path.write_text("".join(json.dumps(r) + "\n" for r in records))
    message = cli_error([
        "bench", "--corpus", str(corpus_path), "--questions", str(questions_path),
    ], capsys)
    assert message == (
        f"iterqa bench: questions file {str(questions_path)!r}: "
        f"line 5: id {records[1]['id']!r} is already used on line 2"
    )


@pytest.mark.parametrize("flag", ["--corpus", "--questions", "--models"])
def test_cli_reports_missing_input_file(workspace, capsys, flag):
    tmp_path, corpus_path, questions_path = workspace
    manifest_path = tmp_path / "models.json"
    manifest_path.write_text(json.dumps({"retriever": "baseline"}))
    paths = {"--corpus": corpus_path, "--questions": questions_path, "--models": manifest_path}
    missing = tmp_path / "missing.jsonl"
    paths[flag] = missing
    argv = ["bench"] + [part for name, path in paths.items() for part in (name, str(path))]
    message = cli_error(argv, capsys)
    assert message.startswith("iterqa bench: ") and str(missing) in message


@pytest.mark.parametrize("flag, kind, fault", [
    ("--corpus", "corpus", ": line 1: not UTF-8 text"),
    ("--questions", "questions file", ": line 1: not UTF-8 text"),
    ("--models", "manifest", ": not UTF-8 text"),
], ids=["corpus", "questions", "manifest"])
def test_cli_refuses_an_input_that_is_not_utf8(workspace, capsys, flag, kind, fault):
    tmp_path, corpus_path, questions_path = workspace
    manifest_path = tmp_path / "models.json"
    manifest_path.write_text(json.dumps({"retriever": "baseline"}))
    paths = {"--corpus": corpus_path, "--questions": questions_path, "--models": manifest_path}
    # A Latin-1 e-acute in the first string value: valid JSON bytes, but not UTF-8.
    paths[flag].write_bytes(paths[flag].read_bytes().replace(b'": "', b'": "\xe9', 1))
    argv = ["bench"] + [part for name, path in paths.items() for part in (name, str(path))]
    message = cli_error(argv, capsys)
    assert message == f"iterqa bench: {kind} {str(paths[flag])!r}{fault}"


def questions_argv(command, tmp_path, corpus_path, questions_path):
    """The arguments that run ``command`` over these inputs, with oracle and
    traces writing to ``out.jsonl``; ``run`` takes the first question."""
    argv = [command, "--corpus", str(corpus_path)]
    if command == "run":
        argv += ["--question-file", str(questions_path)]
    else:
        argv += ["--questions", str(questions_path)]
    if command in ("oracle", "traces"):
        argv += ["--out", str(tmp_path / "out.jsonl")]
    return argv


@pytest.mark.parametrize("command", ["oracle", "traces", "run", "bench"])
def test_cli_refuses_an_empty_corpus(workspace, capsys, command):
    tmp_path, _, questions_path = workspace
    empty = tmp_path / "empty.jsonl"
    empty.write_text("\n")
    message = cli_error(questions_argv(command, tmp_path, empty, questions_path), capsys)
    assert message == f"iterqa {command}: corpus {str(empty)!r} holds no paragraphs"
    assert not (tmp_path / "out.jsonl").exists()


@pytest.mark.parametrize("role", ["original", "candidate"])
def test_cli_map_refuses_an_empty_corpus(workspace, capsys, role):
    tmp_path, corpus_path, _ = workspace
    empty = tmp_path / "empty.jsonl"
    empty.write_text("\n")
    inputs = {"original": corpus_path, "candidate": corpus_path, role: empty}
    out = tmp_path / "mapping.jsonl"
    message = cli_error([
        "map", "--original", str(inputs["original"]), "--candidate", str(inputs["candidate"]),
        "--out", str(out),
    ], capsys)
    assert message == f"iterqa map: corpus {str(empty)!r} holds no paragraphs"
    assert not out.exists()


@pytest.mark.parametrize("command", ["oracle", "traces", "run", "bench"])
def test_cli_refuses_a_questions_file_without_questions(workspace, capsys, command):
    tmp_path, corpus_path, _ = workspace
    empty = tmp_path / "empty.jsonl"
    empty.write_text("\n")
    message = cli_error(questions_argv(command, tmp_path, corpus_path, empty), capsys)
    assert message == f"iterqa {command}: questions file {str(empty)!r} holds no questions"
    assert not (tmp_path / "out.jsonl").exists()


@pytest.mark.parametrize("command", ["oracle", "traces", "run", "bench"])
def test_cli_refuses_a_repeated_gold_id(workspace, capsys, command):
    tmp_path, corpus_path, questions_path = workspace
    records = read_jsonl(questions_path)
    gold_id = records[0]["gold_paragraph_ids"][0]
    records[0]["gold_paragraph_ids"] = [gold_id, gold_id]
    questions_path.write_text("".join(json.dumps(r) + "\n" for r in records))
    message = cli_error(questions_argv(command, tmp_path, corpus_path, questions_path), capsys)
    assert message == (
        f"iterqa {command}: questions file {str(questions_path)!r}: "
        f"line 1: gold paragraph {gold_id!r} is listed twice"
    )
    assert not (tmp_path / "out.jsonl").exists()


@pytest.mark.parametrize("command", ["oracle", "traces", "run", "bench"])
@pytest.mark.parametrize("question", ["", "?!"], ids=["empty", "punctuation"])
def test_cli_runs_a_question_with_no_tokens(workspace, capsys, command, question):
    # The oracle finds no overlap with an empty path, as with any untrainable
    # step: oracle and traces skip the question, and the oracle retriever
    # falls back to the lexical one, whose empty query exhausts the run.
    tmp_path, corpus_path, questions_path = workspace
    records = read_jsonl(questions_path)
    records[0]["question"] = question
    questions_path.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert main(questions_argv(command, tmp_path, corpus_path, questions_path)) == 0
    captured = capsys.readouterr()
    expected = {
        "oracle": (captured.err, "oracle queries for 10 questions (1 skipped)"),
        "traces": (captured.out, "(1 examples skipped: no path/target overlap)"),
        "run": (captured.out, '"exhausted": "empty query"'),
        "bench": (captured.out, "  0 steps:     1  (10.0%)"),
    }
    text, line = expected[command]
    assert line in text


@pytest.mark.parametrize("per_hop, distractors", [
    (["-1", "0", "0"], "-4"),
    (["2", "2", "2"], "-1"),
    (["0", "0", "0"], "3"),
], ids=["negative-per-hop", "negative-distractors", "no-question"])
def test_cli_synth_refuses_counts_that_make_no_benchmark(tmp_path, capsys, per_hop, distractors):
    corpus_out, questions_out = tmp_path / "corpus.jsonl", tmp_path / "questions.jsonl"
    message = cli_error([
        "synth", "--corpus-out", str(corpus_out), "--questions-out", str(questions_out),
        "--per-hop", *per_hop, "--distractors", distractors,
    ], capsys)
    assert message == (
        "iterqa synth: counts must be >= 0 and ask for a question, "
        f"got per hop [{', '.join(per_hop)}] and distractors {distractors}"
    )
    assert not corpus_out.exists() and not questions_out.exists()


def test_cli_synth_refuses_counts_that_need_more_names_than_it_can_make(tmp_path, capsys):
    corpus_out, questions_out = tmp_path / "corpus.jsonl", tmp_path / "questions.jsonl"
    # The default 300 questions name 900 titles and answers; 7,220 names exist.
    message = cli_error([
        "synth", "--corpus-out", str(corpus_out), "--questions-out", str(questions_out),
        "--distractors", "6321",
    ], capsys)
    assert message == (
        "iterqa synth: per hop [100, 100, 100] and distractors 6321 need 7221 distinct "
        "names, more than the 7220 the generator can make"
    )
    assert not corpus_out.exists() and not questions_out.exists()
    # At the capacity it still finishes: 7,219 distinct titles and one answer.
    assert main([
        "synth", "--corpus-out", str(corpus_out), "--questions-out", str(questions_out),
        "--per-hop", "0", "0", "1", "--distractors", "7216",
    ]) == 0
    titles = {r["title"] for r in read_jsonl(corpus_out)}
    assert len(titles) == 7219


@pytest.mark.parametrize("missing", ["corpus", "questions"])
def test_cli_synth_writes_no_record_when_an_output_cannot_be_opened(tmp_path, capsys, missing):
    outputs = {"corpus": tmp_path / "corpus.jsonl", "questions": tmp_path / "questions.jsonl"}
    outputs[missing] = tmp_path / "nodir" / f"{missing}.jsonl"
    message = cli_error([
        "synth", "--corpus-out", str(outputs["corpus"]),
        "--questions-out", str(outputs["questions"]),
        "--per-hop", "2", "2", "2", "--distractors", "3",
    ], capsys)
    assert message.startswith("iterqa synth: ") and str(outputs[missing]) in message
    assert all(not path.exists() or path.read_text() == "" for path in outputs.values())


def test_cli_synth_refuses_one_file_for_both_outputs(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    same = tmp_path / "same.jsonl"
    same.write_text("kept\n")
    message = cli_error([
        "synth", "--corpus-out", "same.jsonl", "--questions-out", str(same),
        "--per-hop", "2", "2", "2", "--distractors", "3",
    ], capsys)
    assert message == "iterqa synth: --corpus-out and --questions-out are one file, 'same.jsonl'"
    assert same.read_text() == "kept\n"


def test_cli_readme_walkthrough_parses():
    # Every `iterqa ...` line of the README's bash blocks, continuations joined.
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```bash\n(.*?)^```", text, flags=re.MULTILINE | re.DOTALL)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("iterqa ")]
    assert [argv[0] for argv in commands] == [
        "synth", "run", "bench", "oracle", "traces", "map"
    ]
    for argv in commands:
        build_parser().parse_args(argv)


class ClosedPipe:
    """A standard output whose reader has gone: every write raises BrokenPipeError."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

    def flush(self):
        pass

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("command", ["run", "bench"])
def test_cli_exits_quietly_when_standard_output_is_closed(workspace, capsys, monkeypatch, command):
    tmp_path, corpus_path, questions_path = workspace
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(fd))
        assert main(questions_argv(command, tmp_path, corpus_path, questions_path)) == 1
        monkeypatch.undo()
        assert capsys.readouterr().err == ""
        # What is left to flush at exit goes to devnull, not to the closed pipe.
        devnull = os.stat(os.devnull)
        assert (os.fstat(fd).st_dev, os.fstat(fd).st_ino) == (devnull.st_dev, devnull.st_ino)
    finally:
        os.close(fd)


def test_cli_leaves_no_traceback_when_standard_output_is_closed(workspace):
    # A pipe whose read end is closed before the command starts, so every
    # write fails, the interpreter's own flush at exit included.
    tmp_path, corpus_path, _ = workspace
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "iterqa.cli", "run", "--corpus", str(corpus_path),
             "--question", "which secret is kept somewhere"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, "")


def must_not_run(*args, **kwargs):
    raise AssertionError("questions ran before the output was opened")


def test_cli_traces_opens_its_output_before_any_question_runs(workspace, capsys, monkeypatch):
    tmp_path, corpus_path, questions_path = workspace
    monkeypatch.setattr("iterqa.cli.generate_training_traces", must_not_run)
    out = tmp_path / "missing" / "traces.jsonl"
    message = cli_error([
        "traces", "--corpus", str(corpus_path), "--questions", str(questions_path),
        "--out", str(out),
    ], capsys)
    assert message.startswith("iterqa traces: ") and str(out) in message


def test_cli_bench_makes_its_report_dir_before_any_question_runs(workspace, capsys, monkeypatch):
    tmp_path, corpus_path, questions_path = workspace
    monkeypatch.setattr("iterqa.cli.run_benchmark", must_not_run)
    taken = tmp_path / "taken"
    taken.write_text("")
    message = cli_error([
        "bench", "--corpus", str(corpus_path), "--questions", str(questions_path),
        "--fixed-k-grid", "1", "2", "3", "--report-dir", str(taken),
    ], capsys)
    assert message.startswith("iterqa bench: ") and str(taken) in message



# ---------------------------------------------------------------------------
# property: a one-record fault in any input exits 0, or exits 2 with one line
# ---------------------------------------------------------------------------

JSON_VALUES = (None, True, 0, 2, -1, 1.5, "", "x", [], ["x"], {}, {"x": 1})
EXTERNAL_REFS = ("external:math:pi", "external:os:getcwd", "external:nope:x")
LINE_FAULTS = ("delete", "swap", "duplicate", "add", "non-utf8", "cut")
FAULTS = {  # input -> (fault kinds, keys an "add" may add)
    "corpus": (LINE_FAULTS, ("extra",)),
    "questions": (LINE_FAULTS, ("extra", "fixed_steps")),
    "manifest": (LINE_FAULTS + ("external",), ("extra", "reader")),
}
READERS = {  # input -> the commands that read it
    "corpus": ("oracle", "traces", "run", "bench", "map"),
    "questions": ("oracle", "traces", "run", "bench"),
    "manifest": ("run", "bench"),
}


@pytest.fixture(scope="module")
def small_inputs(tmp_path_factory):
    """Paths of a valid 9-paragraph corpus, 3-question file and manifest."""
    directory = tmp_path_factory.mktemp("faults")
    paths = {name: directory / f"{name}.jsonl" for name in ("corpus", "questions", "manifest")}
    write_benchmark(make_chain_benchmark(n_per_hop=(1, 1, 1), n_distractors=2, seed=3),
                    paths["corpus"], paths["questions"])
    paths["manifest"].write_text(json.dumps({"retriever": "baseline", "reranker": "baseline"}))
    return paths


def with_one_fault(lines, target, data):
    """``lines`` with one record changed by a fault that ``data`` draws."""
    kinds, added_keys = FAULTS[target]
    lines = list(lines)
    i = data.draw(st.integers(0, len(lines) - 1), label="line")
    kind = data.draw(st.sampled_from(kinds), label="fault")
    if kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "non-utf8":  # any byte would do: each line is decoded whole
        half = len(lines[i]) // 2
        lines[i] = lines[i][:half] + b"\xff" + lines[i][half + 1:]
    elif kind == "cut":  # any length would do: no prefix of an object is JSON
        lines[i] = lines[i][:len(lines[i]) // 2]
    else:
        record = json.loads(lines[i])
        if kind == "add":
            key = data.draw(st.sampled_from(added_keys), label="key")
            values = JSON_VALUES + EXTERNAL_REFS if target == "manifest" else JSON_VALUES
        else:
            key = data.draw(st.sampled_from(sorted(record)), label="key")
            values = [v for v in JSON_VALUES if type(v) is not type(record[key])]
            if kind == "external":
                values = EXTERNAL_REFS
        if kind == "delete":
            del record[key]
        else:
            record[key] = data.draw(st.sampled_from(values), label="value")
        lines[i] = json.dumps(record).encode()
    return lines


@pytest.mark.parametrize("target", ["corpus", "questions", "manifest"])
@settings(max_examples=60, derandomize=True, deadline=None)
@given(data=st.data())
def test_cli_exits_0_or_2_with_one_line_on_any_one_record_fault(small_inputs, target, data):
    faulty = small_inputs[target].with_name("fault.jsonl")
    lines = with_one_fault(small_inputs[target].read_bytes().splitlines(), target, data)
    faulty.write_bytes(b"".join(line + b"\n" for line in lines))
    paths = {name: str(faulty if name == target else path) for name, path in small_inputs.items()}
    for command in READERS[target]:
        if command == "map":  # onto the valid corpus
            argv = ["map", "--original", paths["corpus"], "--candidate",
                    str(small_inputs["corpus"]), "--out", str(faulty.with_name("out.jsonl"))]
        else:
            argv = questions_argv(command, faulty.parent, paths["corpus"], paths["questions"])
            argv += ["--models", paths["manifest"]] if command in ("run", "bench") else []
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            status = main(argv)
        errors = stderr.getvalue().splitlines()
        assert status == 0 or (
            status == 2 and len(errors) == 1 and errors[0].startswith(f"iterqa {command}: ")
        ), (command, status, stderr.getvalue())
