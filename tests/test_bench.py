import json
from dataclasses import astuple, replace
from unittest import mock

import pytest

from conftest import BruteForceScorer, corpus_from, reference_bench
import iterqa.bench as bench
import iterqa.pipeline
from iterqa.bench import (
    QuestionsFormatError,
    format_summary,
    load_examples,
    run_benchmark,
    write_reports,
)
from iterqa.models import ModelBundle, build_model_factory
from iterqa.pipeline import ConfigError, PipelineConfig, QuestionExample, run_question
from iterqa.search import build_index, search_topk


BENCH_RECORDS = [
    {"article_id": "hop1", "title": "Quorind Vale", "order": 0,
     "text": "the quorind vale opens toward the braxmoor heath past the mill"},
    {"article_id": "hop2", "title": "Braxmoor Heath", "order": 0,
     "text": "the braxmoor heath hides the silver chalice under the cairn"},
    {"article_id": "solo", "title": "River Gate", "order": 0,
     "text": "the river gate guards the amber lantern at night"},
    {"article_id": "d1", "title": "D1", "order": 0, "text": "a mill by a stream"},
    {"article_id": "d2", "title": "D2", "order": 0, "text": "lanterns and chalices for sale"},
    {"article_id": "d3", "title": "D3", "order": 0, "text": "old cairns on the moor"},
]

ONE_HOP = QuestionExample(
    qid="one", question="what does the river gate guard",
    answers=("amber lantern",), gold_ids=("solo#0",),
)
TWO_HOP = QuestionExample(
    qid="two", question="what is hidden beyond the quorind vale",
    answers=("silver chalice",), gold_ids=("hop1#0", "hop2#0"),
)


@pytest.fixture()
def bench_setup():
    corpus = corpus_from(BENCH_RECORDS)
    index = build_index(corpus)
    factory = build_model_factory(
        {"retriever": "oracle", "reader": "gold", "reranker": "baseline"}, index, corpus
    )
    return corpus, index, factory


def test_perfect_run_scores_one(bench_setup):
    corpus, index, factory = bench_setup
    report = run_benchmark([ONE_HOP, TWO_HOP], corpus, index, factory)
    assert report.em == 1.0
    assert report.f1 == 1.0
    assert report.n_scored == 2


def test_aggregates_are_means_of_per_question(bench_setup):
    corpus, index, factory = bench_setup
    report = run_benchmark([ONE_HOP, TWO_HOP], corpus, index, factory)
    scored = [r for r in report.per_question if r.em is not None]
    assert abs(report.em - sum(r.em for r in scored) / len(scored)) < 1e-12
    assert abs(report.f1 - sum(r.f1 for r in scored) / len(scored)) < 1e-12


def test_fixed_one_step_fails_two_hop(bench_setup):
    corpus, index, factory = bench_setup
    report = run_benchmark([TWO_HOP], corpus, index, factory, PipelineConfig(fixed_steps=1))
    assert report.em == 0.0


def test_question_without_gold_answers_counted_unscored(bench_setup):
    corpus, index, factory = bench_setup
    no_gold = QuestionExample(qid="ng", question="what does the river gate guard",
                              gold_ids=("solo#0",))
    report = run_benchmark([ONE_HOP, no_gold], corpus, index, factory)
    assert report.n_scored == 1
    assert report.n_unscored == 1
    row = next(r for r in report.per_question if r.qid == "ng")
    assert row.em is None and row.steps_used >= 1


def test_per_question_fixed_override(bench_setup):
    corpus, index, factory = bench_setup
    overridden = QuestionExample(
        qid="two", question=TWO_HOP.question, answers=TWO_HOP.answers,
        gold_ids=TWO_HOP.gold_ids, fixed_steps=1,
    )
    report = run_benchmark([overridden], corpus, index, factory)
    assert report.em == 0.0
    assert report.per_question[0].steps_used == 1


def test_run_benchmark_reports(bench_setup, tmp_path):
    corpus, index, factory = bench_setup
    report = run_benchmark(
        [ONE_HOP, TWO_HOP], corpus, index, factory,
        fixed_k_grid=(1, 2), docs_grid=(3, 6),
    )
    assert report.step_histogram == {1: 1, 2: 1}
    names = [name for name, _, _ in report.dynamic_vs_fixed]
    assert names == ["dynamic", "fixed-1", "fixed-2"]
    dynamic_f1 = report.dynamic_vs_fixed[0][2]
    assert all(dynamic_f1 >= f1 for _, _, f1 in report.dynamic_vs_fixed[1:])
    assert len(report.budget_table) == 2
    write_reports(report, tmp_path / "reports")
    assert (tmp_path / "reports" / "per_question.jsonl").exists()
    summary = (tmp_path / "reports" / "summary.txt").read_text()
    assert "exact match" in summary and "stopping policy" in summary
    assert format_summary(report).startswith("questions scored")


def test_run_benchmark_fixed_rows_equal_fixed_step_runs(bench_setup):
    corpus, index, factory = bench_setup
    stray = QuestionExample(
        qid="stray", question="which mill stands by the stream", answers=("quorind vale",)
    )
    # At k_cap 3 no path reaches step 4; ONE_HOP and "stray" run out of new
    # candidates at step 2, so K = 2 and K = 3 fall back to their best attempt.
    # "two-at-1" keeps its own fixed_steps whatever the K.
    examples = [ONE_HOP, TWO_HOP, replace(TWO_HOP, qid="two-at-1", fixed_steps=1), stray]
    config = PipelineConfig(k_cap=3)
    calls = []

    def counting_factory(example):
        calls.append(example.qid)
        return factory(example)

    grid = (2, 4, 1, 3)
    report = run_benchmark(examples, corpus, index, counting_factory, config, fixed_k_grid=grid)
    assert calls == [example.qid for example in examples]  # one bundle per question
    topk = BruteForceScorer(corpus).topk
    (em, f1), rows = reference_bench(examples, corpus, factory, config, topk)
    assert [astuple(row) for row in report.per_question] == rows
    assert (report.em, report.f1) == (em, f1)
    expected = [("dynamic", em, f1)]
    for k in grid:
        fixed, _ = reference_bench(examples, corpus, factory, replace(config, fixed_steps=k), topk)
        expected.append((f"fixed-{k}", *fixed))
    assert report.dynamic_vs_fixed == expected


def test_run_benchmark_calls_each_role_and_search_once_per_distinct_key(bench_setup):
    corpus, index, factory = bench_setup
    stray = QuestionExample(
        qid="stray", question="which mill stands by the stream", answers=("quorind vale",)
    )
    examples = [ONE_HOP, TWO_HOP, stray]
    grids = dict(fixed_k_grid=(1, 2, 3), docs_grid=(1, 2, 6, 60))
    calls = []  # (role, question id, step ids of the path, candidate id or "")
    searches = []  # (question id, query, k)
    qid = None

    def counting_factory(example):
        nonlocal qid
        qid = example.qid
        models = factory(example)

        def retriever(path):
            calls.append(("retriever", qid, path.step_ids(), ""))
            return iter(models.retriever(path))  # an iterator can be read only once

        def reader(path):
            calls.append(("reader", qid, path.step_ids()[:-1], path.step_ids()[-1]))
            return models.reader(path)

        def reranker(path, candidate):
            calls.append(("reranker", qid, path.step_ids(), candidate.id))
            return models.reranker(path, candidate)

        return ModelBundle(retriever, reader, reranker)

    def counting_search(index, query, k):
        searches.append((qid, tuple(query), k))
        return search_topk(index, query, k)

    def one_setting_at_a_time(question, corpus, index, models, configs):
        return [run_question(question, corpus, index, models, config) for config in configs]

    with (
        mock.patch.object(iterqa.pipeline, "search_topk", counting_search),
        mock.patch.object(bench, "run_policies", one_setting_at_a_time),
    ):
        expected = run_benchmark(examples, corpus, index, counting_factory, **grids)
    unshared_calls, unshared_searches = calls[:], searches[:]
    for role in ("retriever", "reader", "reranker"):  # premise: the settings share reads
        role_calls = [call for call in calls if call[0] == role]
        assert len(set(role_calls)) < len(role_calls)
    calls.clear()
    searches.clear()
    with mock.patch.object(iterqa.pipeline, "search_topk", counting_search):
        report = run_benchmark(examples, corpus, index, counting_factory, **grids)
    assert report == expected
    assert sorted(calls) == sorted(set(unshared_calls))
    assert len(searches) == len(set(searches))
    assert {s[:2] for s in searches} == {s[:2] for s in unshared_searches}
    assert {s[2] for s in searches} == {60}


def test_run_benchmark_empty_rejected(bench_setup):
    corpus, index, factory = bench_setup
    with pytest.raises(ValueError):
        run_benchmark([], corpus, index, factory)


def test_benchmark_deterministic(bench_setup):
    corpus, index, factory = bench_setup
    a = run_benchmark([ONE_HOP, TWO_HOP], corpus, index, factory, fixed_k_grid=(1, 2))
    b = run_benchmark([ONE_HOP, TWO_HOP], corpus, index, factory, fixed_k_grid=(1, 2))
    assert a == b


# ---------------------------------------------------------------------------
# questions file parsing
# ---------------------------------------------------------------------------

def test_load_examples(tmp_path):
    path = tmp_path / "questions.jsonl"
    path.write_text(
        "\n".join([
            json.dumps({"id": "a", "question": "q1", "answers": ["x"],
                        "gold_paragraph_ids": ["p#0"]}),
            json.dumps({"id": "b", "question": "q2", "answers": ["yes"]}),
            json.dumps({"id": "c", "question": "q3", "answers": ["no"],
                        "answer_kind": "no", "fixed_steps": 2, "dataset": "squad-like"}),
            "",
        ])
    )
    examples = load_examples(path)
    assert [e.qid for e in examples] == ["a", "b", "c"]
    assert examples[0].gold_ids == ("p#0",)
    assert examples[1].answer_kind == "yes"  # inferred from the answer text
    assert examples[2].fixed_steps == 2
    assert examples[2].dataset == "squad-like"


def test_load_examples_rejects_malformed(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"question": "missing id"}\n')
    with pytest.raises(QuestionsFormatError, match="line 1"):
        load_examples(path)


@pytest.mark.parametrize("line", ['"just a string"', "42", '["id", "question"]', "null"])
def test_load_examples_rejects_non_object_records(tmp_path, line):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({"id": "a", "question": "q1"}) + "\n" + line + "\n")
    with pytest.raises(QuestionsFormatError, match="^line 2: record is not an object$"):
        load_examples(path)


@pytest.mark.parametrize("value", [0, -1, "2", 1.5, True, [2]])
def test_load_examples_rejects_bad_fixed_steps(tmp_path, value):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        json.dumps({"id": "a", "question": "q1", "fixed_steps": None}) + "\n"
        + json.dumps({"id": "b", "question": "q2", "fixed_steps": value}) + "\n"
    )
    with pytest.raises(
        QuestionsFormatError, match="^line 2: fixed_steps must be null or an integer >= 1, got "
    ):
        load_examples(path)


@pytest.mark.parametrize("grids", [
    {"fixed_k_grid": (1, 0)}, {"docs_grid": (50, 0)}, {"docs_grid": (50,), "fixed_k_grid": (-1,)},
])
def test_run_benchmark_rejects_grid_values_before_any_question(bench_setup, grids):
    corpus, index, factory = bench_setup
    calls = []

    def counting_factory(example):
        calls.append(example.qid)
        return factory(example)

    with pytest.raises(ConfigError, match=" must be >= 1, got "):
        run_benchmark([ONE_HOP, TWO_HOP], corpus, index, counting_factory, **grids)
    assert calls == []
