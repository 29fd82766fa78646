"""The pipeline against the reference loop in conftest, compared with ``==``.

``run_question`` must give the reference's steps, hit scores, status, answer
and final path for any setting; ``run_policies`` must give, for any list of
settings, what ``run_question`` gives for each; ``run_benchmark`` must give,
row for row, what the reference gives when each setting (the main one, every
docs-grid budget, every fixed K) is run on its own.
"""

from __future__ import annotations

import math
import random
from dataclasses import astuple, replace

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    BruteForceScorer,
    TieReader,
    TieReranker,
    make_random_corpus,
    random_chain_example,
    reference_bench,
    reference_run,
    run_record,
)
from iterqa.bench import run_benchmark
from iterqa.models import (
    GoldReader, LexicalReranker, LexicalRetriever, ModelBundle, OracleRetriever,
)
from iterqa.pipeline import RERANKER_CANDIDATES, PipelineConfig, run_policies, run_question
from iterqa.search import build_index

# The gold reader scores 10.0 or -11.0; the tie reader multiples of 0.5 in [-3, 3].
THRESHOLDS = (-math.inf, -11.0, -1.0, -0.5, 0.0, 0.5, 1.0, 10.0, math.inf)


def role_factory(index, corpus, retriever: str, reader: str, reranker: str, seed: int):
    lexical = LexicalRetriever(index)

    def factory(example) -> ModelBundle:
        return ModelBundle(
            retriever=lexical if retriever == "baseline"
            else OracleRetriever(index, corpus, example.gold_ids, lexical),
            reader=GoldReader(example.answers, example.gold_ids, example.answer_kind)
            if reader == "gold" else TieReader(seed),
            reranker=LexicalReranker(index) if reranker == "baseline" else TieReranker(seed),
        )

    return factory


def setup(seed: int, roles: tuple[str, str, str], n_questions: int):
    rng = random.Random(seed)
    corpus = make_random_corpus(rng, n_articles=rng.randint(2, 25), max_paras=3, vocab_size=60)
    index = build_index(corpus)
    examples = [random_chain_example(rng, corpus, f"q{i}") for i in range(n_questions)]
    return corpus, index, examples, role_factory(index, corpus, *roles, seed)


roles = st.tuples(
    st.sampled_from(("baseline", "oracle")),
    st.sampled_from(("gold", "ties")),
    st.sampled_from(("baseline", "ties")),
)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    roles=roles,
    k_cap=st.integers(1, 5),
    docs=st.integers(1, 20),
    threshold=st.sampled_from(THRESHOLDS),
    fixed_steps=st.one_of(st.none(), st.none(), st.integers(1, 6), st.just("own")),
)
def test_run_question_equals_the_reference_loop(seed, roles, k_cap, docs, threshold, fixed_steps):
    corpus, index, examples, factory = setup(seed, roles, 4)
    topk = BruteForceScorer(corpus).topk
    for example in examples:
        fixed = example.fixed_steps if fixed_steps == "own" else fixed_steps
        config = PipelineConfig(k_cap, docs, threshold, fixed)
        result = run_question(example.question, corpus, index, factory(example), config)
        expected = reference_run(example.question, corpus, factory(example), config, topk)
        assert run_record(result) == expected


configs = st.lists(
    st.builds(
        PipelineConfig,
        k_cap=st.integers(1, 5),
        docs_per_step=st.integers(1, 20),
        stop_threshold=st.sampled_from(THRESHOLDS),
        fixed_steps=st.one_of(st.none(), st.integers(1, 6)),
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), roles=roles, configs=configs)
def test_run_policies_equals_run_question_per_config(seed, roles, configs):
    corpus, index, examples, factory = setup(seed, roles, 4)
    for example in examples:
        results = run_policies(example.question, corpus, index, factory(example), configs)
        assert results == [
            run_question(example.question, corpus, index, factory(example), config)
            for config in configs
        ]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    roles=roles,
    k_cap=st.integers(1, 5),
    docs=st.one_of(st.integers(1, 20), st.just("bound - 1")),
    threshold=st.sampled_from(THRESHOLDS),
    fixed_steps=st.one_of(st.none(), st.none(), st.integers(1, 6)),
    fixed_k_grid=st.lists(st.integers(1, 6), max_size=4),
    extra_docs=st.lists(st.integers(1, 20), max_size=2),
)
def test_run_benchmark_rows_equal_reference_runs_one_setting_at_a_time(
    seed, roles, k_cap, docs, threshold, fixed_steps, fixed_k_grid, extra_docs
):
    corpus, index, examples, factory = setup(seed, roles, 5)
    topk = BruteForceScorer(corpus).topk
    bound = RERANKER_CANDIDATES + k_cap - 1  # budgets at or above it read the same candidates
    if docs == "bound - 1":  # the largest budget that can read fewer
        docs = bound - 1
    config = PipelineConfig(k_cap, docs, threshold, fixed_steps)
    docs_grid = [bound - 1, bound, *extra_docs]
    report = run_benchmark(examples, corpus, index, factory, config, fixed_k_grid, docs_grid)

    (em, f1), rows = reference_bench(examples, corpus, factory, config, topk)
    assert [astuple(row) for row in report.per_question] == rows
    assert (report.em, report.f1) == (em, f1)
    histogram = {}
    for row in rows:
        histogram[row[3]] = histogram.get(row[3], 0) + 1
    assert report.step_histogram == histogram

    budget_table = []
    for d in docs_grid:
        (em_d, f1_d), rows_d = reference_bench(
            examples, corpus, factory, replace(config, docs_per_step=d), topk
        )
        budget_table.append((d, sum(row[4] for row in rows_d) / len(rows_d), em_d, f1_d))
    assert report.budget_table == budget_table

    expected = [("dynamic", em, f1)] if fixed_k_grid else []
    for k in fixed_k_grid:
        (em_k, f1_k), _ = reference_bench(
            examples, corpus, factory, replace(config, fixed_steps=k), topk
        )
        expected.append((f"fixed-{k}", em_k, f1_k))
    assert report.dynamic_vs_fixed == expected
