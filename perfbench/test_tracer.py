"""Checks of the benchmark's own tracer against independent counts.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import iterqa.bench  # noqa: E402
import iterqa.models  # noqa: E402
import iterqa.pipeline  # noqa: E402
import iterqa.search  # noqa: E402
from harness import (  # noqa: E402
    WORKLOADS,
    Inputs,
    Runner,
    fingerprint,
    paired_pass,
    pass_layer_metrics,
    result_answer,
    set_up,
)
from inputs import write_inputs  # noqa: E402
from tracer import Tracer, traced_api  # noqa: E402


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> Inputs:
    directory = tmp_path_factory.mktemp("inputs")
    found = Inputs(directory / "corpus.jsonl", directory / "questions.jsonl",
                   directory / "index.jsonl")
    write_inputs(7, 25, found.corpus, found.questions, n_per_hop=(6, 6, 6))
    return found


def _traced(workload, inputs):
    corpus, index, _ = set_up(inputs)
    runner = Runner(workload, corpus, index)
    examples = iterqa.bench.load_examples(inputs.questions)
    tracer = Tracer()
    plain, traced = paired_pass(runner, examples, tracer)
    return runner, examples, plain, traced, tracer


def _independent_results(runner, examples):
    """RunResults from direct, untraced calls, one per example."""
    return [
        iterqa.pipeline.run_question(ex.question, runner.corpus, runner.index,
                                     runner.factory(ex), runner.config)
        for ex in examples
    ]


def _check_against(tracer, results):
    metrics = pass_layer_metrics(tracer)
    steps = [outcome for result in results for outcome in result.steps]
    assert metrics["pipeline.questions_run"] == len(results)
    assert metrics["pipeline.steps"] == sum(len(result.steps) for result in results)
    reached_search = [s for s in steps if s.exhausted_reason != "empty query"]
    assert metrics["search.topk.calls"] == len(reached_search)
    assert metrics["models.retriever.calls"] == len(steps)
    assert metrics["models.reader.calls"] == sum(len(s.candidate_answerabilities) for s in steps)
    assert all(seconds >= 0.0 for seconds in tracer.self_times().values())
    return metrics


def test_oracle_counts_match_independent_runs(inputs):
    workload = WORKLOADS["oracle-chain"]
    runner, examples, plain, traced, tracer = _traced(workload, inputs)
    assert plain.failed == traced.failed == 0
    metrics = _check_against(tracer, _independent_results(runner, examples))

    assert metrics["oracle.queries"] > 0
    assert metrics["oracle.rank_evals"] == metrics["search.rank.calls"] > 0
    for call in tracer.oracle_calls:
        assert 1 <= call.rank_evals <= call.budget()
    assert 0.0 < metrics["oracle.budget_used"] <= 1.0


def test_baseline_counts_match_independent_runs(inputs):
    runner, examples, plain, traced, tracer = _traced(WORKLOADS["baseline-large"], inputs)
    assert plain.failed == traced.failed == 0
    metrics = _check_against(tracer, _independent_results(runner, examples))
    assert metrics["oracle.queries"] == metrics["search.rank.calls"] == 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_outputs_hash_like_untraced(inputs, name):
    _, examples, plain, traced, _ = _traced(WORKLOADS[name], inputs)
    assert fingerprint(traced.answers, examples) == fingerprint(plain.answers, examples)


def test_spans_nest_and_carry_question_ids(inputs):
    _, examples, _, _, tracer = _traced(WORKLOADS["oracle-chain"], inputs)
    qids = {ex.qid for ex in examples}
    for span in tracer.spans:
        assert span.qid in qids
        assert span.start <= span.end
        if span.parent is not None:
            parent = tracer.spans[span.parent]
            assert parent.start <= span.start and span.end <= parent.end
    assert {s.name for s in tracer.spans if s.parent is None} == {"pipeline"}


def test_originals_restored_after_tracing():
    originals = (iterqa.pipeline.search_topk, iterqa.models.build_oracle_query,
                 iterqa.pipeline.run_question, iterqa.search.load_index)
    with traced_api(Tracer()):
        assert iterqa.pipeline.search_topk is not originals[0]
    assert (iterqa.pipeline.search_topk, iterqa.models.build_oracle_query,
            iterqa.pipeline.run_question, iterqa.search.load_index) == originals


def test_missing_lookup_site_raises(monkeypatch):
    """A moved callable stops the traced run instead of reading as zero calls."""
    load_index = iterqa.search.load_index  # patched before the missing site
    monkeypatch.delattr(iterqa.pipeline, "search_topk")
    with pytest.raises(AttributeError):
        with traced_api(Tracer()):
            pass
    assert iterqa.search.load_index is load_index


def test_answered_without_gold_answer_is_a_failure(inputs):
    """An answered question must carry a gold answer; one left exhausted is a model error."""
    corpus, index, _ = set_up(inputs)
    runner = Runner(WORKLOADS["oracle-chain"], corpus, index)
    example = iterqa.bench.load_examples(inputs.questions)[-1]  # a 3-hop question
    result = runner.call(example, runner.factory)
    assert result.status == "answered" and result_answer(example, result).ok
    wrong = replace(result, answer=replace(result.answer, text="not the answer"))
    assert not result_answer(example, wrong).ok
    assert result_answer(example, replace(wrong, status="exhausted")).ok
