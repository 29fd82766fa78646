import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    CountingRank, corpus_from, exhaustive_best_rank, make_random_corpus, oracle_ranks
)
from iterqa.oracle import (
    OracleQuery,
    UntrainableExample,
    build_oracle_query,
    extract_overlap_spans,
    oracle_trace_record,
    recall_curve,
)
from iterqa.search import build_index, rank_of, search_topk
from test_search import GENERATED_ARTICLES, generated_corpus


def make_target(text, corpus=None):
    corpus = corpus or corpus_from(
        [{"article_id": "t", "title": "T", "order": 0, "text": text}]
    )
    return corpus.paragraphs["t#0"]


def contains_run(haystack, needle):
    n = len(needle)
    return any(list(haystack[i : i + n]) == list(needle) for i in range(len(haystack) - n + 1))


# ---------------------------------------------------------------------------
# extract_overlap_spans
# ---------------------------------------------------------------------------

def test_spans_merge_into_maximal_run():
    target = make_target("the film stars david dunn as the lead")
    spans = extract_overlap_spans(["david", "dunn", "plays"], target)
    assert [s.tokens for s in spans] == [("david", "dunn")]
    assert spans[0].path_offset == 0


def test_spans_disjoint_vocabulary():
    target = make_target("nothing in common here")
    assert extract_overlap_spans(["alpha", "beta"], target) == []


def test_spans_identity_path():
    target = make_target("one two three four")
    spans = extract_overlap_spans(list(target.tokens), target)
    assert [s.tokens for s in spans] == [("one", "two", "three", "four")]


def test_spans_two_overlapping_maximal_runs():
    # Path "a b c" vs target holding "a b" and "b c" but never "a b c":
    # both two-token runs are maximal.
    target = make_target("a b x b c")
    spans = extract_overlap_spans(["a", "b", "c"], target)
    assert [s.tokens for s in spans] == [("a", "b"), ("b", "c")]


def test_spans_deduplicated_keep_first_offset():
    target = make_target("rare word")
    spans = extract_overlap_spans(["rare", "filler", "rare"], target)
    assert len(spans) == 1
    assert spans[0].path_offset == 0


def test_spans_order_follows_path():
    target = make_target("beta junk alpha")
    spans = extract_overlap_spans(["alpha", "mid", "beta"], target)
    assert [s.tokens for s in spans] == [("alpha",), ("beta",)]


def test_spans_empty_path_is_no_overlap():
    # A question with no tokens gives an empty path, which shares nothing with
    # the target: the oracle finds it untrainable, as any path with no overlap.
    corpus = corpus_from([{"article_id": "t", "title": "T", "order": 0, "text": "x"}])
    target = corpus.paragraphs["t#0"]
    assert extract_overlap_spans([], target) == []
    with pytest.raises(UntrainableExample):
        build_oracle_query(build_index(corpus), [], target)


def test_spans_maximality_property():
    rng = random.Random(31)
    vocab = [f"v{i}" for i in range(12)]
    for _ in range(100):
        target_tokens = rng.choices(vocab, k=rng.randint(4, 20))
        path = rng.choices(vocab, k=rng.randint(3, 25))
        target = make_target(" ".join(target_tokens))
        spans = extract_overlap_spans(path, target)
        for span in spans:
            assert contains_run(target.tokens, span.tokens)
            i = span.path_offset
            j = i + len(span.tokens)
            if i > 0:
                assert not contains_run(target.tokens, path[i - 1 : j])
            if j < len(path):
                assert not contains_run(target.tokens, path[i : j + 1])


# ---------------------------------------------------------------------------
# span importance, as build_oracle_query reports it on every span
# ---------------------------------------------------------------------------

def importance_fixture():
    corpus = corpus_from([
        {"article_id": "t", "title": "T", "order": 0, "text": "unique anchor shared words"},
        {"article_id": "o1", "title": "O1", "order": 0, "text": "shared words elsewhere"},
        {"article_id": "o2", "title": "O2", "order": 0, "text": "shared words too"},
    ])
    return corpus, build_index(corpus)


def test_importance_single_span_uses_sentinel():
    corpus, index = importance_fixture()
    spans = build_oracle_query(index, ["unique"], corpus.paragraphs["t#0"]).spans
    assert [span.tokens for span in spans] == [("unique",)]
    imp = spans[0].importance
    assert imp == (index.sentinel_rank - rank_of(index, "t#0", ["unique"]))
    assert imp == index.sentinel_rank - 1


def test_importance_unique_span_nonnegative():
    corpus, index = importance_fixture()
    spans = build_oracle_query(index, ["shared", "zz", "unique"], corpus.paragraphs["t#0"]).spans
    assert [span.tokens for span in spans] == [("shared",), ("unique",)]
    imp = spans[1].importance
    others_rank = rank_of(index, "t#0", ["shared"])
    assert imp == others_rank - 1
    assert imp >= 0


def test_importance_duplicate_spans_complement_equals_full_set():
    # A repeated run is one span, so its complement is empty: its importance
    # is the sentinel minus its own rank.
    corpus, index = importance_fixture()
    path = ["shared", "words", "zz", "shared", "words"]
    spans = build_oracle_query(index, path, corpus.paragraphs["t#0"]).spans
    assert [span.tokens for span in spans] == [("shared", "words")]
    full_rank = rank_of(index, "t#0", ["shared", "words", "shared", "words"])
    removing_one = rank_of(index, "t#0", ["shared", "words"])
    assert [span.importance for span in spans] == [index.sentinel_rank - removing_one]
    assert full_rank == removing_one  # same multiset scaled; same ordering


# ---------------------------------------------------------------------------
# build_oracle_query
# ---------------------------------------------------------------------------

def chain_case():
    corpus = corpus_from([
        {"article_id": "t", "title": "T", "order": 0,
         "text": "the veldrin river keeps a secret token"},
        {"article_id": "d1", "title": "D1", "order": 0, "text": "a secret place of rivers"},
        {"article_id": "d2", "title": "D2", "order": 0, "text": "the token of another town"},
        {"article_id": "d3", "title": "D3", "order": 0, "text": "more filler text entirely"},
    ])
    return corpus, build_index(corpus)


def test_single_span_is_the_query():
    corpus, index = chain_case()
    target = corpus.paragraphs["t#0"]
    query = build_oracle_query(index, ["veldrin"], target)
    assert query.terms == ("veldrin",)
    assert query.achieved_rank == rank_of(index, "t#0", ["veldrin"])


def test_rank_one_stops_greedy_immediately():
    corpus, index = chain_case()
    target = corpus.paragraphs["t#0"]
    path = ["veldrin", "river", "xx", "secret", "yy", "token"]
    query = build_oracle_query(index, path, target)
    assert query.achieved_rank == 1
    # "veldrin river" alone pins the target at rank 1; nothing else is added.
    assert query.terms == ("veldrin", "river")


def test_terms_concatenate_included_spans():
    corpus, index = chain_case()
    target = corpus.paragraphs["t#0"]
    query = build_oracle_query(index, ["secret", "zz", "token"], target)
    included = sorted(query.spans, key=lambda span: (-span.importance, span.path_offset))
    assert any(query.terms == tuple(t for span in included[:n] for t in span.tokens)
               for n in range(1, len(included) + 1))
    assert query.achieved_rank == rank_of(index, "t#0", list(query.terms))


def test_untrainable_when_no_overlap():
    corpus, index = chain_case()
    target = corpus.paragraphs["t#0"]
    with pytest.raises(UntrainableExample):
        build_oracle_query(index, ["completely", "foreign"], target)


def plain_greedy(index, path_tokens, target, rank_fn):
    """The oracle as its docstring states it, with no memo: every query is
    asked when the greedy needs it. Returns the query and the queries asked."""
    spans = extract_overlap_spans(path_tokens, target)
    asked = []

    def ask(query):
        asked.append(tuple(query))
        return rank_fn(index, target.id, list(query))

    for i, span in enumerate(spans):
        alone = ask(span.tokens)
        others = ask([t for j, other in enumerate(spans) if j != i for t in other.tokens])
        span.importance = float(others - alone)
    order = sorted(range(len(spans)), key=lambda i: (-spans[i].importance, spans[i].path_offset))
    terms, best = [], index.sentinel_rank
    for i in order:
        rank = ask(terms + list(spans[i].tokens))
        if rank >= best:
            break
        terms += spans[i].tokens
        best = rank
        if best == 1:
            break
    return OracleQuery(tuple(terms), best, tuple(spans)), asked


def test_rank_budget_within_linear_bound():
    rng = random.Random(41)
    corpus = make_random_corpus(rng, n_articles=30)
    index = build_index(corpus)
    pids = sorted(index.doc_lengths)
    checked = repeats = 0
    for _ in range(120):
        target = corpus.paragraphs[rng.choice(pids)]
        if len(target.tokens) < 4:
            continue
        path = list(target.tokens[:3]) + ["zzglue"] + list(target.tokens[-2:])
        rng.shuffle(path)
        counter = CountingRank()
        try:
            query = build_oracle_query(index, path, target, rank_fn=counter)
        except UntrainableExample:
            continue
        n_spans = len(extract_overlap_spans(path, target))
        assert counter.calls <= 3 * n_spans + 1
        # Each distinct query is evaluated once per call, and the queries
        # are exactly those the plain greedy asks for, with the same result.
        assert len(set(counter.queries)) == counter.calls
        expected, asked = plain_greedy(index, path, target, rank_of)
        assert set(counter.queries) == set(asked)
        assert query == expected
        assert query.achieved_rank <= index.sentinel_rank
        checked += 1
        repeats += len(asked) - counter.calls
    assert checked > 50
    assert repeats > 0  # the plain greedy asks some query twice


def test_achieved_rank_never_worse_than_first_sorted_span():
    rng = random.Random(42)
    corpus = make_random_corpus(rng, n_articles=20)
    index = build_index(corpus)
    pids = sorted(index.doc_lengths)
    for _ in range(60):
        target = corpus.paragraphs[rng.choice(pids)]
        if len(target.tokens) < 5:
            continue
        path = list(target.tokens[1:4]) + ["qqq"] + list(target.tokens[0:1])
        try:
            query = build_oracle_query(index, path, target)
        except UntrainableExample:
            continue
        first = min(query.spans, key=lambda span: (-span.importance, span.path_offset))
        assert query.terms[:len(first.tokens)] == first.tokens
        assert query.achieved_rank <= rank_of(index, target.id, list(first.tokens))


def test_oracle_query_deterministic():
    corpus, index = chain_case()
    target = corpus.paragraphs["t#0"]
    path = ["secret", "zz", "token", "river"]
    a = build_oracle_query(index, path, target)
    b = build_oracle_query(index, path, target)
    assert a == b


# ---------------------------------------------------------------------------
# recall_curve
# ---------------------------------------------------------------------------

def test_recall_perfect_ranks():
    corpus, index = chain_case()
    target = corpus.paragraphs["t#0"]
    examples = [(["veldrin", "river"], target)] * 3
    assert recall_curve(oracle_ranks(index, examples), [1]) == {1: 1.0}


def test_recall_nondecreasing_in_k():
    rng = random.Random(43)
    corpus = make_random_corpus(rng, n_articles=25)
    index = build_index(corpus)
    pids = sorted(index.doc_lengths)
    examples = []
    for _ in range(30):
        target = corpus.paragraphs[rng.choice(pids)]
        if len(target.tokens) < 3:
            continue
        examples.append((list(target.tokens[:2]) + ["pad"], target))
    curve = recall_curve(oracle_ranks(index, examples), [1, 2, 5, 10, 20])
    for lo, hi in itertools.pairwise(curve.values()):
        assert hi >= lo


def test_recall_counts_untrainable_as_miss():
    corpus, index = chain_case()
    target = corpus.paragraphs["t#0"]
    examples = [(["veldrin"], target), (["foreign", "words"], target)]
    ranks = oracle_ranks(index, examples)
    assert ranks.count(None) == 1
    assert recall_curve(ranks, [1, 4])[4] == 0.5
    assert recall_curve([1, 3, None, 12], [1, 5, 10]) == {1: 0.25, 5: 0.5, 10: 0.5}


def test_recall_empty_examples_rejected():
    with pytest.raises(ValueError):
        recall_curve([], [1])
    with pytest.raises(ValueError):
        recall_curve([2], [5, 1])
    with pytest.raises(ValueError):
        recall_curve([2], [])


def test_recall_rank_cutoff_matches_topk_membership():
    corpus, index = chain_case()
    target = corpus.paragraphs["t#0"]
    path = ["secret", "token"]
    query = build_oracle_query(index, path, target)
    for k in (1, 2, 4):
        in_topk = target.id in {h.paragraph_id for h in search_topk(index, list(query.terms), k)}
        assert (query.achieved_rank <= k) == in_topk


def test_oracle_trace_record_shape():
    corpus, index = chain_case()
    target = corpus.paragraphs["t#0"]
    path = ["secret", "zz", "token"]
    record = oracle_trace_record(path, target, build_oracle_query(index, path, target))
    assert record["target_id"] == "t#0"
    assert len(record["spans"]) == len(record["importances"]) == 2
    assert 0 < len(record["query"]) <= 2
    assert record["achieved_rank"] >= 1
    json.dumps(record)  # must be serializable as one line


@settings(max_examples=60, deadline=None)
@given(
    articles=GENERATED_ARTICLES,
    path_tokens=st.lists(st.sampled_from("abcdefghz"), min_size=1, max_size=8),
    target=st.integers(min_value=0),
)
def test_oracle_rank_between_exhaustive_optimum_and_top_span(articles, path_tokens, target):
    corpus = generated_corpus(articles)
    index = build_index(corpus)
    pids = sorted(corpus.paragraphs)
    paragraph = corpus.paragraphs[pids[target % len(pids)]]
    spans = extract_overlap_spans(path_tokens, paragraph)
    if not spans:
        with pytest.raises(UntrainableExample):
            build_oracle_query(index, path_tokens, paragraph)
        return
    query = build_oracle_query(index, path_tokens, paragraph)
    assert query.achieved_rank == rank_of(index, paragraph.id, list(query.terms))
    assert query.achieved_rank >= exhaustive_best_rank(index, paragraph, spans)
    top = min(query.spans, key=lambda span: (-span.importance, span.path_offset))
    assert query.achieved_rank <= rank_of(index, paragraph.id, list(top.tokens))
