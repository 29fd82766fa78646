"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 5 and 6 read one run_benchmark pass with the fixed-K grid 1-5; the
benchmark-grid test after criterion 6 checks its rows against criterion 6's
independent per-K runs of the reference loop in conftest.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Empirically frozen values (criterion 3) were recorded from the
first run at seed 113 and must not drift.
"""

from __future__ import annotations

import itertools
import math
import random
import string
import time

import pytest

from conftest import (
    BruteForceScorer,
    CountingRank,
    article_level,
    exhaustive_best_rank,
    make_random_corpus,
    make_random_query,
    oracle_ranks,
    reference_bench,
)
from iterqa.bench import run_benchmark
from iterqa.corpus import map_paragraph
from iterqa.metrics import exact_match, unigram_f1
from iterqa.models import (
    NO,
    NOANSWER,
    SPAN,
    YES,
    ReaderOutput,
    answerability_span,
    build_model_factory,
    pick_answer,
)
from iterqa.oracle import build_oracle_query, extract_overlap_spans, recall_curve
from iterqa.pipeline import PipelineConfig, initial_path
from iterqa.search import build_index, rank_of, search_topk

from test_corpus import corpus_of


def _report(criterion: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion} ({name}): {status} - {detail}")
    assert ok, f"criterion {criterion} ({name}): {detail}"


# ---------------------------------------------------------------------------
# shared expensive runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def model_factory(chain_benchmark, chain_index):
    manifest = {"retriever": "oracle", "reader": "gold", "reranker": "baseline"}
    return build_model_factory(manifest, chain_index, chain_benchmark.corpus)


@pytest.fixture(scope="module")
def benchmark_run(chain_benchmark, chain_index, model_factory):
    """The dynamic run and its fixed-K rows for K = 1..5, with the seconds taken."""
    started = time.time()
    report = run_benchmark(
        chain_benchmark.examples, chain_benchmark.corpus, chain_index, model_factory,
        PipelineConfig(k_cap=5, docs_per_step=50), fixed_k_grid=(1, 2, 3, 4, 5),
    )
    return report, time.time() - started


# ---------------------------------------------------------------------------
# criterion 1: scoring exactness against brute force
# ---------------------------------------------------------------------------

def test_criterion_1_scoring_exactness():
    started = time.time()
    rng = random.Random(401)
    corpora = 25
    queries_per_corpus = 100
    order_mismatches = 0
    worst_score_gap = 0.0
    for _ in range(corpora):
        corpus = make_random_corpus(rng, n_articles=rng.randint(30, 200), max_paras=5)
        assert len(corpus.paragraphs) <= 1000
        assert len(corpus.articles) <= 200
        index = build_index(corpus)
        brute = BruteForceScorer(corpus)
        for _ in range(queries_per_corpus):
            query = make_random_query(rng)
            k = rng.randint(1, 50)
            hits = search_topk(index, query, k)
            expected = brute.topk(query, k)
            if [h.paragraph_id for h in hits] != [pid for pid, _ in expected]:
                order_mismatches += 1
                continue
            for hit, (_, score) in zip(hits, expected):
                worst_score_gap = max(worst_score_gap, abs(hit.score - score))
    elapsed = time.time() - started
    ok = order_mismatches == 0 and worst_score_gap == 0.0 and elapsed < 60.0
    _report(
        1, "scoring exactness", ok,
        f"{corpora} corpora x {queries_per_corpus} queries, "
        f"{order_mismatches} order mismatches, max score gap {worst_score_gap:.2e}, "
        f"{elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 2: article-scoring formula unit values
# ---------------------------------------------------------------------------

def test_criterion_2_article_scoring_values():
    two = corpus_of({"a": ["shared term"], "b": ["other words"]})
    ten = corpus_of(
        {"a0": ["zebra grazing zebra plains"]}
        | {f"a{i}": [f"filler{i} words here"] for i in range(1, 10)}
    )
    # The article values are the search engine's per-term contributions; the
    # paragraph value is a search score on a one-article corpus, whose
    # clamped article idf is 0.0.
    zero_case = article_level(build_index(two), "shared").get("a", 0.0)
    got = article_level(build_index(ten), "zebra")["a0"]
    expected = math.log(9.5 / 1.5) ** 2 * (2 * 2.2 / 3.2)  # 4.6847297...
    para = search_topk(build_index(corpus_of({"art": ["a b a"]})), ["a"], 1)[0].score
    para_expected = math.log(4.0 / 3.0) * (2 * 2.2 / 3.2)  # 0.39556...
    ok = (
        zero_case == 0.0
        and abs(got - expected) < 1e-6
        and abs(got - 4.6847) < 1e-3
        and abs(para - para_expected) < 1e-6
    )
    _report(
        2, "article scoring unit values", ok,
        f"N=2,n=1 -> {zero_case}; N=10,n=1,f=2 -> {got:.6f} (want {expected:.6f}); "
        f"paragraph value {para:.6f}",
    )


# ---------------------------------------------------------------------------
# criterion 3: oracle optimality gap vs exhaustive enumeration
# ---------------------------------------------------------------------------

def _synthesize_span_instances(seed=113, n_instances=200, n_corpora=8):
    rng = random.Random(seed)
    instances = []
    per = n_instances // n_corpora
    for _ in range(n_corpora):
        corpus = make_random_corpus(
            rng, n_articles=rng.randint(20, 60), max_paras=4, vocab_size=250
        )
        assert len(corpus.paragraphs) <= 500
        index = build_index(corpus)
        pids = [p for p in sorted(corpus.paragraphs) if len(corpus.paragraphs[p].tokens) >= 10]
        made = attempts = 0
        while made < per and attempts < 4000:
            attempts += 1
            target = corpus.paragraphs[rng.choice(pids)]
            path = []
            for _ in range(rng.randint(2, 7)):
                path.extend(f"zzglue{rng.randint(0, 50)}" for _ in range(rng.randint(0, 2)))
                source = (
                    target if rng.random() < 0.75 else corpus.paragraphs[rng.choice(pids)]
                )
                start = rng.randrange(len(source.tokens))
                path.extend(source.tokens[start : start + rng.randint(1, 3)])
            n_spans = len(extract_overlap_spans(path, target))
            if 1 <= n_spans <= 12:
                instances.append((index, path, target))
                made += 1
    return instances


def test_criterion_3_oracle_optimality_gap():
    instances = _synthesize_span_instances()
    matches = 0
    singleton_wins = 0
    max_ratio = 1.0
    budget_violations = 0
    sentinel_violations = 0
    for index, path, target in instances:
        counter = CountingRank()
        query = build_oracle_query(index, path, target, rank_fn=counter)
        spans = extract_overlap_spans(path, target)
        if counter.calls > 3 * len(spans) + 1:
            budget_violations += 1
        if query.achieved_rank > index.sentinel_rank:
            sentinel_violations += 1
        optimum = exhaustive_best_rank(index, target, spans)
        if query.achieved_rank == optimum:
            matches += 1
        else:
            max_ratio = max(max_ratio, query.achieved_rank / optimum)
        best_singleton = min(rank_of(index, target.id, list(s.tokens)) for s in spans)
        if query.achieved_rank <= best_singleton:
            singleton_wins += 1

    match_rate = matches / len(instances)
    singleton_rate = singleton_wins / len(instances)
    # Frozen from the first run at seed 113: 193/200 optimal, max ratio 6.0,
    # 199/200 at or below the best singleton rank.
    ok = (
        len(instances) == 200
        and match_rate >= 0.80
        and max_ratio <= 6.0 + 1e-9
        and budget_violations == 0
        and sentinel_violations == 0
        and singleton_rate >= 0.99
    )
    _report(
        3, "oracle optimality gap", ok,
        f"{matches}/{len(instances)} equal the 2^N optimum ({match_rate:.1%}), "
        f"max rank ratio {max_ratio:.1f}, rank budget <= 3N+1 "
        f"({budget_violations} violations), singleton dominance {singleton_rate:.1%}",
    )


# ---------------------------------------------------------------------------
# criterion 4: oracle recall monotonicity and 2-hop recall@10
# ---------------------------------------------------------------------------

def test_criterion_4_oracle_recall(chain_benchmark, chain_index):
    corpus = chain_benchmark.corpus
    two_hop = [ex for ex in chain_benchmark.examples if ex.dataset == "synth-2hop"]
    doc1, doc2 = [], []
    for ex in two_hop:
        first = corpus.paragraphs[ex.gold_ids[0]]
        second = corpus.paragraphs[ex.gold_ids[1]]
        start = initial_path(ex.question)
        doc1.append((start.path_tokens(), first))
        doc2.append((start.extended(first).path_tokens(), second))

    ks = [1, 2, 5, 10]
    curves = [recall_curve(oracle_ranks(chain_index, ex), ks) for ex in (doc1, doc2)]
    monotone = all(
        later >= earlier
        for curve in curves
        for earlier, later in itertools.pairwise(curve.values())
    )
    # Random-corpus curves must be monotone too.
    rng = random.Random(402)
    rnd_corpus = make_random_corpus(rng, n_articles=40)
    rnd_index = build_index(rnd_corpus)
    rnd_examples = []
    for pid in sorted(rnd_corpus.paragraphs)[:40]:
        para = rnd_corpus.paragraphs[pid]
        if len(para.tokens) >= 3:
            rnd_examples.append((list(para.tokens[:2]) + ["pad"], para))
    rnd_curve = recall_curve(oracle_ranks(rnd_index, rnd_examples), ks)
    monotone = monotone and all(
        later >= earlier for earlier, later in itertools.pairwise(rnd_curve.values())
    )

    recall10_doc1 = curves[0][10]
    recall10_doc2 = curves[1][10]
    ok = monotone and recall10_doc1 >= 0.95 and recall10_doc2 >= 0.95
    _report(
        4, "oracle recall curves", ok,
        f"monotone={monotone}, 2-hop recall@10: doc1 {recall10_doc1:.1%}, "
        f"doc2 {recall10_doc2:.1%}",
    )


# ---------------------------------------------------------------------------
# criterion 5: end-to-end multi-hop recovery
# ---------------------------------------------------------------------------

def test_criterion_5_end_to_end_multi_hop(chain_benchmark, benchmark_run):
    report, elapsed = benchmark_run
    correct_by_hop: dict[int, list[float]] = {1: [], 2: [], 3: []}
    for ex, row in zip(chain_benchmark.examples, report.per_question):
        hops = len(ex.gold_ids)
        correct_by_hop[hops].append(row.em)
    rates = {h: sum(v) / len(v) for h, v in correct_by_hop.items()}
    ok = (
        len(chain_benchmark.examples) == 300
        and rates[1] >= 0.95
        and rates[2] >= 0.95
        and rates[3] >= 0.85
        and elapsed < 300.0
    )
    _report(
        5, "end-to-end multi-hop recovery", ok,
        f"EM by hop count: 1-hop {rates[1]:.1%}, 2-hop {rates[2]:.1%}, "
        f"3-hop {rates[3]:.1%}; {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 6: dynamic stopping dominates fixed-step policies
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def fixed_runs(chain_benchmark, chain_index, model_factory):
    """(EM, F1) of an independent reference run per fixed-step policy K = 1..5.

    The reference loop ranks with the package's search_topk here, which
    criterion 1 checks against the brute-force scorer: a brute-force ranking
    of 809 paragraphs per step would take most of a minute.
    """
    def topk(query, k):
        return [(hit.paragraph_id, hit.score) for hit in search_topk(chain_index, query, k)]

    return {
        k: reference_bench(
            chain_benchmark.examples, chain_benchmark.corpus, model_factory,
            PipelineConfig(k_cap=5, docs_per_step=50, fixed_steps=k), topk,
        )[0]
        for k in (1, 2, 3, 4, 5)
    }


def test_criterion_6_dynamic_stopping(chain_benchmark, benchmark_run, fixed_runs):
    dynamic = benchmark_run[0]
    fixed_f1 = {k: f1 for k, (_, f1) in fixed_runs.items()}
    dominates = all(dynamic.f1 >= f1 - 1e-9 for f1 in fixed_f1.values())

    concentration = {}
    for hops in (1, 2, 3):
        rows = [
            row
            for ex, row in zip(chain_benchmark.examples, dynamic.per_question)
            if len(ex.gold_ids) == hops
        ]
        concentration[hops] = sum(1 for r in rows if r.steps_used == hops) / len(rows)
    concentrated = all(v >= 0.80 for v in concentration.values())

    ok = dominates and concentrated
    fixed_text = ", ".join(f"K={k}: {f1:.4f}" for k, f1 in fixed_f1.items())
    _report(
        6, "dynamic stopping dominance", ok,
        f"dynamic F1 {dynamic.f1:.4f} vs fixed ({fixed_text}); "
        f"step mass at true hop count: "
        + ", ".join(f"{h}-hop {concentration[h]:.1%}" for h in (1, 2, 3)),
    )


def test_run_benchmark_fixed_rows_equal_per_k_runs(benchmark_run, fixed_runs):
    # run_benchmark reads every fixed-K row off one trajectory per question;
    # the rows must equal the independent per-K runs of criterion 6 exactly.
    report = benchmark_run[0]
    assert report.dynamic_vs_fixed == [("dynamic", report.em, report.f1)] + [
        (f"fixed-{k}", em, f1) for k, (em, f1) in fixed_runs.items()
    ]


# ---------------------------------------------------------------------------
# criterion 7: answerability algebra and tie order
# ---------------------------------------------------------------------------

def test_criterion_7_answerability_algebra():
    class_logits = {SPAN: 2.0, YES: 0.0, NO: 0.0, NOANSWER: -1.0}
    start = (1.0, 0.0, 3.0, 0.0)
    end = (0.5, 0.0, 0.0, 2.5)
    worked = answerability_span(class_logits, start, end, (2, 3))

    invariant = True
    for shift in (1.0, -2.5, 100.0, 0.125, 4096.0):
        shifted = answerability_span(
            {k: v + shift for k, v in class_logits.items()},
            tuple(v + shift for v in start),
            tuple(v + shift for v in end),
            (2, 3),
        )
        invariant = invariant and shifted == worked

    tie_ok = True
    for values in itertools.product((0.0, 1.0, 2.0), repeat=3):
        span_l, yes_l, no_l = values
        output = ReaderOutput(
            {SPAN: span_l, YES: yes_l, NO: no_l, NOANSWER: 0.0},
            (0.0, 1.0), (0.0, 1.0), (1, 1),
        )
        kind, _ = pick_answer(output)
        top = max(values)
        expected = "span" if span_l == top else ("yes" if yes_l == top else "no")
        tie_ok = tie_ok and kind == expected

    ok = worked == 5.0 and invariant and tie_ok
    _report(
        7, "answerability algebra", ok,
        f"worked example -> {worked} (want 5.0); shift-invariant={invariant}; "
        f"tie order over all 27 logit patterns={tie_ok}",
    )


# ---------------------------------------------------------------------------
# criterion 8: metric suite
# ---------------------------------------------------------------------------

def test_criterion_8_metric_suite():
    examples_ok = (
        exact_match("four", ["four"]) == 1
        and exact_match("Four.", ["four"]) == 1
        and exact_match("150 million", ["150 million copies"]) == 0
        and unigram_f1("same words", ["same words"]) == 1.0
        and unigram_f1("150 million copies", ["150 million"]) == pytest.approx(0.8)
        and unigram_f1("alpha beta", ["gamma delta"]) == 0.0
    )

    rng = random.Random(88)
    alphabet = string.ascii_letters + string.digits + ".,'!? "
    violations = 0
    for _ in range(10_000):
        prediction = "".join(rng.choices(alphabet, k=rng.randint(0, 25)))
        golds = [
            "".join(rng.choices(alphabet, k=rng.randint(0, 25)))
            for _ in range(rng.randint(1, 3))
        ]
        if exact_match(prediction, golds) > unigram_f1(prediction, golds) + 1e-12:
            violations += 1

    ok = examples_ok and violations == 0
    _report(
        8, "metric suite", ok,
        f"examples hold={examples_ok}; EM<=F1 violations over 10,000 pairs: {violations}",
    )


# ---------------------------------------------------------------------------
# criterion 9: paragraph mapping thresholds
# ---------------------------------------------------------------------------

def test_criterion_9_paragraph_mapping():
    identity = corpus_of({"a": ["alpha beta gamma delta"], "b": ["alpha beta gamma delta"]})
    identity_verdict = map_paragraph(identity.paragraphs["a#0"], identity.articles["b"])

    disjoint = corpus_of({"a": ["alpha beta gamma"], "b": ["delta epsilon zeta"]})
    disjoint_verdict = map_paragraph(disjoint.paragraphs["a#0"], disjoint.articles["b"])

    original_tokens = [f"t{i}" for i in range(10)]
    seven = corpus_of({
        "a": [" ".join(original_tokens)],
        "b": [" ".join(original_tokens[:7]) + " filler junk words"],
    })
    seven_verdict = map_paragraph(seven.paragraphs["a#0"], seven.articles["b"])

    boundary_tokens = [f"t{i:02d}" for i in range(50)]
    boundary = corpus_of({
        "a": [" ".join(boundary_tokens)],
        "b": [" ".join(reversed(boundary_tokens[:33]))],
    })
    boundary_verdict = map_paragraph(boundary.paragraphs["a#0"], boundary.articles["b"])

    ok = (
        identity_verdict.matched
        and identity_verdict.unigram_recall == 1.0
        and identity_verdict.lcs_coverage == 1.0
        and not disjoint_verdict.matched
        and disjoint_verdict.unigram_recall == 0.0
        and seven_verdict.matched
        and seven_verdict.unigram_recall == pytest.approx(0.7)
        and boundary_verdict.unigram_recall == pytest.approx(0.66)
        and not boundary_verdict.matched
    )
    _report(
        9, "paragraph mapping thresholds", ok,
        f"identity matched={identity_verdict.matched}, disjoint matched="
        f"{disjoint_verdict.matched}, 0.7-recall matched={seven_verdict.matched}, "
        f"exact-0.66 matched={boundary_verdict.matched}",
    )
