import hashlib
import json

import pytest

from iterqa.cli import main


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


def test_cli_index(workspace, capsys):
    tmp_path, corpus_path, _ = workspace
    index_path = tmp_path / "index.jsonl"
    assert main(["index", "--corpus", str(corpus_path), "--out", str(index_path)]) == 0
    header = json.loads(index_path.read_text().splitlines()[0])
    assert header["magic"] == "iterqa-index"
    assert header["k1"] == 1.2 and header["b"] == 0.75


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


def test_cli_index_output_is_pinned(workspace):
    tmp_path, corpus_path, _ = workspace
    out = tmp_path / "index.jsonl"
    assert main(["index", "--corpus", str(corpus_path), "--out", str(out)]) == 0
    assert sha256(out) == "474d16f47576fa0c8573379359f637c99aad56b566f5a4a33de9f6020d1902a7"


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


def test_cli_run_with_index_and_baseline_manifest(workspace, tmp_path, capsys):
    _, corpus_path, _ = workspace
    index_path = tmp_path / "idx.jsonl"
    main(["index", "--corpus", str(corpus_path), "--out", str(index_path)])
    manifest = tmp_path / "models.json"
    manifest.write_text(json.dumps({"retriever": "baseline", "reader": "gold",
                                    "reranker": "baseline"}))
    assert main([
        "run", "--corpus", str(corpus_path), "--index", str(index_path),
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
    message = cli_error(
        ["index", "--corpus", str(corpus_path), "--out", str(tmp_path / "i.jsonl")], capsys
    )
    assert message == "iterqa index: line 1: missing field 'text'"


def test_cli_reports_bad_index(workspace, capsys):
    tmp_path, corpus_path, questions_path = workspace
    index_path = tmp_path / "index.jsonl"
    index_path.write_text('{"magic": "something-else"}\n')
    message = cli_error([
        "bench", "--corpus", str(corpus_path), "--questions", str(questions_path),
        "--index", str(index_path),
    ], capsys)
    assert message.startswith("iterqa bench: ") and "magic" in message


def test_cli_refuses_an_index_cut_short(workspace, capsys):
    tmp_path, corpus_path, questions_path = workspace
    index_path = tmp_path / "index.jsonl"
    assert main(["index", "--corpus", str(corpus_path), "--out", str(index_path)]) == 0
    capsys.readouterr()
    lines = index_path.read_text().splitlines(keepends=True)
    index_path.write_text("".join(lines[:-3]))
    message = cli_error([
        "bench", "--corpus", str(corpus_path), "--questions", str(questions_path),
        "--index", str(index_path),
    ], capsys)
    n = len(lines) - 1
    assert message == (
        f"iterqa bench: index file has {n - 3} paragraph records, not the {n} its header names"
    )


def test_cli_reports_format_1_index(workspace, capsys):
    tmp_path, corpus_path, _ = workspace
    index_path = tmp_path / "index.jsonl"
    index_path.write_text(
        '{"magic": "iterqa-index", "format_version": 1, "k1": 1.2, "b": 0.75, "article_k1": 1.2, '
        '"article_b": 0.0, "n_para": 1, "n_article": 1, "avg_doc_length": 2.0}\n'
        '{"kind": "para", "id": "a#0", "len": 2, "article": "a"}\n'
    )
    message = cli_error([
        "run", "--corpus", str(corpus_path), "--index", str(index_path),
        "--question", "which secret is kept somewhere",
    ], capsys)
    assert message == "iterqa run: unsupported index format version 1"


def test_cli_reports_bad_question_record(workspace, capsys):
    tmp_path, corpus_path, _ = workspace
    questions_path = tmp_path / "bad.jsonl"
    questions_path.write_text("[1, 2]\n")
    message = cli_error([
        "oracle", "--corpus", str(corpus_path), "--questions", str(questions_path),
    ], capsys)
    assert message == "iterqa oracle: line 1: record is not an object"


def test_cli_reports_bad_manifest(workspace, capsys):
    tmp_path, corpus_path, questions_path = workspace
    manifest = tmp_path / "models.json"
    manifest.write_text(json.dumps({"retriever": "psychic"}))
    message = cli_error([
        "bench", "--corpus", str(corpus_path), "--questions", str(questions_path),
        "--models", str(manifest),
    ], capsys)
    assert message == "iterqa bench: unknown retriever 'psychic'"


@pytest.mark.parametrize("manifest, expected", [
    ({"retriever": ["x"]}, "retriever must be a string, got ['x']"),
    ({"retriever": "baseline", "keep_fraction": 2},
     "baseline retriever: keep_fraction must be in (0, 1]"),
    ("{bad", "manifest is not JSON: Expecting property name enclosed in double quotes: "
             "line 1 column 2 (char 1)"),
    ({"retriever": "baseline", "max_query_len": "x"},
     "baseline retriever: max_query_len must be an integer >= 1, got 'x'"),
], ids=["role-not-a-string", "bad-keep-fraction", "not-json", "bad-max-query-len"])
def test_cli_reports_malformed_manifest(workspace, capsys, manifest, expected):
    tmp_path, corpus_path, questions_path = workspace
    manifest_path = tmp_path / "models.json"
    manifest_path.write_text(manifest if isinstance(manifest, str) else json.dumps(manifest))
    message = cli_error([
        "bench", "--corpus", str(corpus_path), "--questions", str(questions_path),
        "--models", str(manifest_path),
    ], capsys)
    assert message == f"iterqa bench: {expected}"


@pytest.mark.parametrize("command", ["oracle", "traces", "bench"])
def test_cli_reports_unknown_gold_id_before_running(workspace, capsys, command):
    tmp_path, corpus_path, questions_path = workspace
    records = read_jsonl(questions_path)
    records[-1]["gold_paragraph_ids"] = [records[-1]["gold_paragraph_ids"][0], "nope#0"]
    questions_path.write_text("".join(json.dumps(r) + "\n" for r in records))
    out = tmp_path / "out.jsonl"
    argv = [command, "--corpus", str(corpus_path), "--questions", str(questions_path)]
    if command != "bench":
        argv += ["--out", str(out)]
    message = cli_error(argv, capsys)
    assert message == (
        f"iterqa {command}: question {records[-1]['id']!r}: "
        "gold paragraph 'nope#0' is not in the corpus"
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
    if command == "traces":
        argv += ["--out", str(tmp_path / "traces.jsonl")]
    message = cli_error(argv, capsys)
    rule = "a number" if name == "stop_threshold" else ">= 1"
    assert message.startswith(f"iterqa {command}: {name} must be {rule}, got ")


def test_cli_reports_bad_fixed_steps_in_question_record(workspace, capsys):
    tmp_path, corpus_path, questions_path = workspace
    records = read_jsonl(questions_path)
    records[3]["fixed_steps"] = 0
    questions_path.write_text("".join(json.dumps(r) + "\n" for r in records))
    message = cli_error([
        "bench", "--corpus", str(corpus_path), "--questions", str(questions_path),
    ], capsys)
    assert message == (
        "iterqa bench: line 4: fixed_steps must be null or an integer >= 1, got 0"
    )


@pytest.mark.parametrize("field, value, expected", [
    ("answers", "junhol", "answers must be a list of strings, got 'junhol'"),
    ("answer_kind", "maybe", "answer_kind must be 'span', 'yes' or 'no', got 'maybe'"),
    ("question", 17, "question must be a string, got 17"),
    ("gold_paragraph_ids", "q0001-hop1#0",
     "gold_paragraph_ids must be a list of strings, got 'q0001-hop1#0'"),
    ("id", None, "id must be a string, got None"),
    ("id", [1], "id must be a string, got [1]"),
])
def test_cli_reports_bad_question_field(workspace, capsys, field, value, expected):
    tmp_path, corpus_path, questions_path = workspace
    records = read_jsonl(questions_path)
    records[2][field] = value
    questions_path.write_text("".join(json.dumps(r) + "\n" for r in records))
    message = cli_error([
        "bench", "--corpus", str(corpus_path), "--questions", str(questions_path),
    ], capsys)
    assert message == f"iterqa bench: line 3: {expected}"


def test_cli_reports_duplicate_question_id(workspace, capsys):
    tmp_path, corpus_path, questions_path = workspace
    records = read_jsonl(questions_path)
    records[4]["id"] = records[1]["id"]
    questions_path.write_text("".join(json.dumps(r) + "\n" for r in records))
    message = cli_error([
        "bench", "--corpus", str(corpus_path), "--questions", str(questions_path),
    ], capsys)
    assert message == f"iterqa bench: line 5: id {records[1]['id']!r} is already used on line 2"


@pytest.mark.parametrize("flag", ["--corpus", "--questions", "--index", "--models"])
def test_cli_reports_missing_input_file(workspace, capsys, flag):
    tmp_path, corpus_path, questions_path = workspace
    index_path = tmp_path / "index.jsonl"
    assert main(["index", "--corpus", str(corpus_path), "--out", str(index_path)]) == 0
    manifest_path = tmp_path / "models.json"
    manifest_path.write_text(json.dumps({"retriever": "baseline"}))
    capsys.readouterr()
    paths = {"--corpus": corpus_path, "--questions": questions_path,
             "--index": index_path, "--models": manifest_path}
    missing = tmp_path / "missing.jsonl"
    paths[flag] = missing
    argv = ["bench"] + [part for name, path in paths.items() for part in (name, str(path))]
    message = cli_error(argv, capsys)
    assert message.startswith("iterqa bench: ") and str(missing) in message


@pytest.fixture()
def foreign_index(workspace):
    """An index of the workspace's benchmark drawn with another seed."""
    tmp_path = workspace[0]
    other = tmp_path / "other"
    other.mkdir()
    assert main([
        "synth", "--corpus-out", str(other / "corpus.jsonl"),
        "--questions-out", str(other / "questions.jsonl"),
        "--per-hop", "4", "4", "2", "--distractors", "10", "--seed", "13",
    ]) == 0
    index_path = other / "index.jsonl"
    assert main(["index", "--corpus", str(other / "corpus.jsonl"), "--out", str(index_path)]) == 0
    return index_path


@pytest.mark.parametrize("command", ["oracle", "traces", "run", "bench"])
def test_cli_refuses_index_of_another_corpus(workspace, foreign_index, capsys, command):
    tmp_path, corpus_path, questions_path = workspace
    capsys.readouterr()
    argv = [command, "--corpus", str(corpus_path), "--index", str(foreign_index)]
    if command == "run":
        argv += ["--question-file", str(questions_path)]
    else:
        argv += ["--questions", str(questions_path)]
    out = tmp_path / "out.jsonl"
    if command in ("oracle", "traces"):
        argv += ["--out", str(out)]
    message = cli_error(argv, capsys)
    assert message == (
        f"iterqa {command}: index does not match the corpus at paragraph 'dist0001#0'"
    )
    assert not out.exists()


def test_cli_refuses_index_with_other_token_counts(workspace, capsys):
    tmp_path, corpus_path, questions_path = workspace
    records = read_jsonl(corpus_path)
    records[2]["text"] += " plus two"
    edited = tmp_path / "edited.jsonl"
    edited.write_text("".join(json.dumps(r) + "\n" for r in records))
    index_path = tmp_path / "index.jsonl"
    assert main(["index", "--corpus", str(edited), "--out", str(index_path)]) == 0
    capsys.readouterr()
    message = cli_error([
        "bench", "--corpus", str(corpus_path), "--questions", str(questions_path),
        "--index", str(index_path),
    ], capsys)
    pid = f"{records[2]['article_id']}#{records[2]['order']}"
    assert message == f"iterqa bench: index does not match the corpus at paragraph {pid!r}"


def test_cli_refuses_index_with_other_words_at_equal_token_counts(workspace, capsys):
    tmp_path, corpus_path, questions_path = workspace
    records = read_jsonl(corpus_path)
    records[2]["text"] = " ".join(["zzzword"] + records[2]["text"].split()[1:])
    edited = tmp_path / "edited.jsonl"
    edited.write_text("".join(json.dumps(r) + "\n" for r in records))
    index_path = tmp_path / "index.jsonl"
    assert main(["index", "--corpus", str(edited), "--out", str(index_path)]) == 0
    capsys.readouterr()
    message = cli_error([
        "bench", "--corpus", str(corpus_path), "--questions", str(questions_path),
        "--index", str(index_path),
    ], capsys)
    pid = f"{records[2]['article_id']}#{records[2]['order']}"
    assert message == f"iterqa bench: index does not match the corpus at paragraph {pid!r}"


def empty_input_argv(command, tmp_path, corpus_path, questions_path):
    argv = [command, "--corpus", str(corpus_path)]
    if command == "run":
        argv += ["--question-file", str(questions_path)]
    elif command != "index":
        argv += ["--questions", str(questions_path)]
    if command in ("index", "oracle", "traces"):
        argv += ["--out", str(tmp_path / "out.jsonl")]
    return argv


@pytest.mark.parametrize("command", ["index", "oracle", "traces", "run", "bench"])
def test_cli_refuses_an_empty_corpus(workspace, capsys, command):
    tmp_path, _, questions_path = workspace
    empty = tmp_path / "empty.jsonl"
    empty.write_text("\n")
    message = cli_error(empty_input_argv(command, tmp_path, empty, questions_path), capsys)
    assert message == f"iterqa {command}: corpus {str(empty)!r} holds no paragraphs"
    assert not (tmp_path / "out.jsonl").exists()


@pytest.mark.parametrize("command", ["oracle", "traces", "run", "bench"])
def test_cli_refuses_a_questions_file_without_questions(workspace, capsys, command):
    tmp_path, corpus_path, _ = workspace
    empty = tmp_path / "empty.jsonl"
    empty.write_text("\n")
    message = cli_error(empty_input_argv(command, tmp_path, corpus_path, empty), capsys)
    assert message == f"iterqa {command}: questions file {str(empty)!r} holds no questions"
    assert not (tmp_path / "out.jsonl").exists()
