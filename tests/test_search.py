import contextlib
import hashlib
import json
import math
import os
import random
import sys
import tempfile
import threading
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    BruteForceScorer, article_level, corpus_from, make_random_corpus, make_random_query
)
import iterqa.search as search
from iterqa.search import (
    IndexFormatError,
    SearchHit,
    _accumulate,
    _bounded_top,
    _impacts,
    _ranking,
    _score_at,
    build_index,
    idf_paragraph,
    load_index,
    rank_of,
    save_index,
    search_topk,
)
from iterqa.synth import make_chain_benchmark


def single_para_corpus(text="a b a"):
    return corpus_from([{"article_id": "art", "title": "T", "order": 0, "text": text}])


def search_scores(index, query):
    """Every paragraph's search score, by id."""
    return {h.paragraph_id: h.score for h in search_topk(index, query, index.n_para)}


# ---------------------------------------------------------------------------
# build_index
# ---------------------------------------------------------------------------

def test_index_single_paragraph_counts():
    index = build_index(single_para_corpus("a b a"))
    assert index.postings["a"] == {"art#0": 2}
    assert index.doc_lengths["art#0"] == 3
    assert index.n_para == 1 and index.n_article == 1
    # "a" is in 1 of 1 paragraphs and 1 of 1 articles.
    assert idf_paragraph(index, "a") == math.log(1.0 + (1 - 1 + 0.5) / (1 + 0.5))
    assert article_level(index, "a") == {}


def test_index_same_article_df_levels():
    corpus = corpus_from([
        {"article_id": "a", "title": "A", "order": 0, "text": "toad pond"},
        {"article_id": "a", "title": "A", "order": 1, "text": "toad garden"},
        {"article_id": "b", "title": "B", "order": 0, "text": "river"},
        {"article_id": "c", "title": "C", "order": 0, "text": "lake"},
        {"article_id": "d", "title": "D", "order": 0, "text": "hill"},
    ])
    index = build_index(corpus)
    # "toad" is in 2 of 5 paragraphs but 1 of 4 articles, with tf 2 in "a".
    assert idf_paragraph(index, "toad") == math.log(1.0 + (5 - 2 + 0.5) / (2 + 0.5))
    idf = math.log((4 - 1 + 0.5) / (1 + 0.5))
    assert article_level(index, "toad") == {"a": idf * idf * 2 * (1.2 + 1.0) / (2 + 1.2)}


def test_index_absent_term_df_zero():
    index = build_index(single_para_corpus())
    assert idf_paragraph(index, "missing") == math.log(1.0 + (1 - 0 + 0.5) / (0 + 0.5))
    assert article_level(index, "missing") == {}


def test_index_empty_corpus_rejected():
    from iterqa.corpus import Corpus

    with pytest.raises(ValueError):
        build_index(Corpus(paragraphs={}, articles={}))


def test_index_invariants_on_random_corpus():
    corpus = make_random_corpus(random.Random(3), n_articles=30)
    index = build_index(corpus)
    brute = BruteForceScorer(corpus)
    assert (index.n_para, index.n_article) == (brute.n_para, brute.n_article)
    assert set(index.postings) == set(brute.df_para)
    for term in brute.df_para:
        n = brute.df_para[term]
        assert idf_paragraph(index, term) == math.log(1.0 + (brute.n_para - n + 0.5) / (n + 0.5))
        assert article_level(index, term) == {
            aid: score for aid in brute.art_tf if (score := brute.article(aid, [term])) > 0.0
        }
    mean = sum(index.doc_lengths.values()) / len(index.doc_lengths)
    assert abs(index.avg_doc_length - mean) < 1e-9


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------

# On a one-article corpus every clamped article idf is 0.0, so a paragraph's
# search score is its paragraph part alone.

def test_score_paragraph_empty_query():
    index = build_index(single_para_corpus())
    assert search_scores(index, [])["art#0"] == 0.0


def test_score_paragraph_absent_term_contributes_nothing():
    index = build_index(single_para_corpus("a b a"))
    assert search_scores(index, ["zzz"])["art#0"] == 0.0
    assert search_scores(index, ["a", "zzz"]) == search_scores(index, ["a"])


def test_score_paragraph_hand_derived_value():
    # Corpus of one paragraph "a b a": idf = ln(4/3), tf part = 2*2.2/3.2.
    index = build_index(single_para_corpus("a b a"))
    assert article_level(index, "a") == {}
    expected = math.log(4.0 / 3.0) * (2 * 2.2 / 3.2)
    got = search_scores(index, ["a"])["art#0"]
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(0.3956, abs=1e-4)


def test_score_paragraph_duplicate_terms_count_multiply():
    index = build_index(single_para_corpus("a b a"))
    single = search_scores(index, ["a"])["art#0"]
    double = search_scores(index, ["a", "a"])["art#0"]
    assert double == pytest.approx(2 * single, rel=1e-12)


def ten_article_corpus():
    # "zebra" occurs twice in article a0's full text and nowhere else.
    records = [
        {"article_id": "a0", "title": "A0", "order": 0, "text": "zebra grazing zebra plains"},
    ]
    for i in range(1, 10):
        records.append(
            {"article_id": f"a{i}", "title": f"A{i}", "order": 0, "text": f"filler{i} words here"}
        )
    return corpus_from(records)


def test_score_article_idf_zero_when_half_ratio_is_one():
    corpus = corpus_from([
        {"article_id": "a", "title": "A", "order": 0, "text": "shared term"},
        {"article_id": "b", "title": "B", "order": 0, "text": "other words"},
    ])
    index = build_index(corpus)
    # N=2, n=1: ln(1.5/1.5) = 0, so the term contributes nothing.
    assert article_level(index, "shared") == {}


def test_score_article_hand_derived_value():
    index = build_index(ten_article_corpus())
    idf = math.log(9.5 / 1.5)
    expected = idf * idf * (2 * 2.2 / 3.2)
    level = article_level(index, "zebra")
    assert list(level) == ["a0"]
    got = level["a0"]
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(4.6847, abs=1e-3)


def test_score_article_common_term_clamps_to_zero():
    records = [
        {"article_id": f"a{i}", "title": "T", "order": 0, "text": "common word"}
        for i in range(8)
    ] + [{"article_id": "a8", "title": "T", "order": 0, "text": "rare thing"}]
    index = build_index(corpus_from(records))
    # n=8 of N=9 -> ratio (1.5/8.5) < 1 -> clamped.
    assert article_level(index, "common") == {}


def test_combined_score_is_sum_of_parts():
    corpus = make_random_corpus(random.Random(5), n_articles=20)
    index = build_index(corpus)
    brute = BruteForceScorer(corpus)
    rng = random.Random(6)
    for _ in range(50):
        pid = rng.choice(sorted(index.doc_lengths))
        query = make_random_query(rng)
        expected = brute.paragraph(pid, query) + brute.article(brute.para_article[pid], query)
        assert search_scores(index, query)[pid] == expected


def test_combined_score_single_article_corpus_equals_paragraph_score():
    # With one article, every n=1 term has ratio 0.5/1.5 < 1 -> clamp to 0.
    corpus = corpus_from([
        {"article_id": "a", "title": "A", "order": 0, "text": "alpha beta"},
        {"article_id": "a", "title": "A", "order": 1, "text": "beta gamma"},
    ])
    index = build_index(corpus)
    brute = BruteForceScorer(corpus)
    assert all(article_level(index, term) == {} for term in index.postings)
    for pid in index.doc_lengths:
        for query in (["alpha"], ["beta", "gamma"], ["alpha", "alpha", "beta"]):
            assert search_scores(index, query)[pid] == brute.paragraph(pid, query)


def test_scores_finite_and_nonnegative():
    corpus = make_random_corpus(random.Random(8), n_articles=25)
    index = build_index(corpus)
    rng = random.Random(9)
    for _ in range(100):
        pid = rng.choice(sorted(index.doc_lengths))
        score = search_scores(index, make_random_query(rng))[pid]
        assert math.isfinite(score)
        assert score >= 0.0


def test_monotone_in_added_matching_term():
    corpus = make_random_corpus(random.Random(10), n_articles=25)
    index = build_index(corpus)
    rng = random.Random(11)
    pids = sorted(index.doc_lengths)
    for _ in range(60):
        pid = rng.choice(pids)
        present = [t for t, entry in index.postings.items() if pid in entry]
        if not present:
            continue
        query = make_random_query(rng)
        base = search_scores(index, query)[pid]
        assert search_scores(index, query + [rng.choice(present)])[pid] >= base


# ---------------------------------------------------------------------------
# search_topk / rank_of
# ---------------------------------------------------------------------------

def test_topk_k_zero_rejected():
    index = build_index(single_para_corpus())
    with pytest.raises(ValueError):
        search_topk(index, ["a"], 0)


def test_topk_saturates_at_corpus_size():
    corpus = corpus_from([
        {"article_id": "a", "title": "A", "order": 0, "text": "x y"},
        {"article_id": "b", "title": "B", "order": 0, "text": "y z"},
    ])
    index = build_index(corpus)
    hits = search_topk(index, ["y"], 10)
    assert [h.paragraph_id for h in hits] == ["a#0", "b#0"]


def test_topk_unique_match_ranks_first():
    corpus = corpus_from([
        {"article_id": "a", "title": "A", "order": 0, "text": "needle in text"},
        {"article_id": "b", "title": "B", "order": 0, "text": "other words"},
        {"article_id": "c", "title": "C", "order": 0, "text": "more words"},
    ])
    index = build_index(corpus)
    hits = search_topk(index, ["needle"], 1)
    assert hits[0].paragraph_id == "a#0"
    assert hits[0].score > 0


def test_search_hits_are_immutable_named_tuples():
    corpus = corpus_from([
        {"article_id": "a", "title": "A", "order": 0, "text": "owl night"},
        {"article_id": "b", "title": "B", "order": 0, "text": "owl"},
    ])
    hits = search_topk(build_index(corpus), ["owl"], 2)
    assert all(type(h) is SearchHit for h in hits)
    assert SearchHit._fields == ("paragraph_id", "score")  # a hit's rank is its position + 1
    hit = hits[0]
    assert hit == (hit.paragraph_id, hit.score) == tuple(hit)
    assert repr(hit) == f"SearchHit(paragraph_id='b#0', score={hit.score!r})"
    for name in ("paragraph_id", "score", "other"):
        with pytest.raises(AttributeError):
            setattr(hit, name, None)
    assert SearchHit("b#0", hit.score) == hit and hash(SearchHit(*hit)) == hash(hit)


def test_topk_ties_break_by_ascending_id():
    corpus = corpus_from([
        {"article_id": "b", "title": "B", "order": 0, "text": "twin text"},
        {"article_id": "a", "title": "A", "order": 0, "text": "twin text"},
        {"article_id": "c", "title": "C", "order": 0, "text": "something else"},
    ])
    index = build_index(corpus)
    hits = search_topk(index, ["twin"], 2)
    assert [h.paragraph_id for h in hits] == ["a#0", "b#0"]
    assert hits[0].score == hits[1].score


def test_topk_scores_nonincreasing_and_ranks_sequential():
    corpus = make_random_corpus(random.Random(12), n_articles=30)
    index = build_index(corpus)
    rng = random.Random(13)
    for _ in range(20):
        hits = search_topk(index, make_random_query(rng), rng.randint(1, 20))
        assert len({h.paragraph_id for h in hits}) == len(hits)
        for prev, cur in zip(hits, hits[1:]):
            assert (-prev.score, prev.paragraph_id) < (-cur.score, cur.paragraph_id)


def test_topk_matches_brute_force_small():
    rng = random.Random(14)
    for trial in range(5):
        corpus = make_random_corpus(rng, n_articles=rng.randint(5, 30))
        index = build_index(corpus)
        brute = BruteForceScorer(corpus)
        for _ in range(20):
            query = make_random_query(rng)
            k = rng.randint(1, 25)
            hits = search_topk(index, query, k)
            assert [(h.paragraph_id, h.score) for h in hits] == brute.topk(query, k)


def test_rank_of_unique_match():
    corpus = corpus_from([
        {"article_id": "a", "title": "A", "order": 0, "text": "needle here"},
        {"article_id": "b", "title": "B", "order": 0, "text": "hay stack"},
    ])
    index = build_index(corpus)
    assert rank_of(index, "a#0", ["needle"]) == 1


def test_rank_of_sentinel_on_empty_query():
    index = build_index(single_para_corpus())
    assert rank_of(index, "art#0", []) == index.n_para + 1


def test_rank_of_sentinel_on_zero_score():
    corpus = corpus_from([
        {"article_id": "a", "title": "A", "order": 0, "text": "alpha"},
        {"article_id": "b", "title": "B", "order": 0, "text": "beta"},
    ])
    index = build_index(corpus)
    assert rank_of(index, "b#0", ["alpha"]) == 3


def test_rank_of_unknown_target():
    index = build_index(single_para_corpus())
    with pytest.raises(KeyError):
        rank_of(index, "ghost#0", ["a"])


def test_rank_of_matches_brute_force():
    rng = random.Random(15)
    corpus = make_random_corpus(rng, n_articles=25)
    index = build_index(corpus)
    brute = BruteForceScorer(corpus)
    pids = sorted(index.doc_lengths)
    for _ in range(80):
        target = rng.choice(pids)
        query = make_random_query(rng)
        assert rank_of(index, target, query) == brute.rank_of(target, query)


def test_rank_of_agrees_with_topk_membership():
    rng = random.Random(16)
    corpus = make_random_corpus(rng, n_articles=20)
    index = build_index(corpus)
    pids = sorted(index.doc_lengths)
    for _ in range(40):
        target = rng.choice(pids)
        query = make_random_query(rng)
        k = rng.randint(1, 15)
        in_topk = target in {h.paragraph_id for h in search_topk(index, query, k)}
        rank = rank_of(index, target, query)
        if rank <= k:
            assert in_topk
        elif rank != index.sentinel_rank:  # reached, below the top k
            assert not in_topk


def twinned_corpus(rng):
    """A random corpus in which some articles are copied under a second id,
    so exact score ties between different paragraphs occur."""
    words = [f"w{i:02d}" for i in range(40)]
    records = []
    for a in range(rng.randint(3, 15)):
        paras = [" ".join(rng.choices(words, k=rng.randint(1, 12)))
                 for _ in range(rng.randint(1, 4))]
        copies = 2 if rng.random() < 0.3 else 1
        for c in range(copies):
            for order, text in enumerate(paras):
                records.append({"article_id": f"a{a:02d}c{c}", "title": "T",
                                "order": order, "text": text})
    return corpus_from(records), words


def duplicated_query(rng, words):
    query = rng.choices(words, k=rng.randint(1, 5))
    query += rng.choices(query, k=rng.randint(1, 3))  # repeated terms
    if rng.random() < 0.5:
        query.insert(rng.randrange(len(query) + 1), "zzqabsent")
    return query


def test_topk_scores_equal_combined_score_exactly():
    rng = random.Random(19)
    for _ in range(8):
        corpus, words = twinned_corpus(rng)
        index = build_index(corpus)
        brute = BruteForceScorer(corpus)
        for _ in range(25):
            query = duplicated_query(rng, words)
            k = rng.randint(1, 30)
            hits = search_topk(index, query, k)
            assert [(h.paragraph_id, h.score) for h in hits] == brute.topk(query, k)


def test_rank_of_equals_brute_force_exactly_with_ties():
    rng = random.Random(20)
    for _ in range(8):
        corpus, words = twinned_corpus(rng)
        index = build_index(corpus)
        brute = BruteForceScorer(corpus)
        pids = sorted(index.doc_lengths)
        for _ in range(25):
            query = duplicated_query(rng, words)
            target = rng.choice(pids)
            assert rank_of(index, target, query) == brute.rank_of(target, query)


# Articles of 1-3 paragraphs over an 8-word vocabulary; paragraphs may be empty.
GENERATED_ARTICLES = st.lists(
    st.lists(st.lists(st.sampled_from("abcdefgh"), max_size=8), min_size=1, max_size=3),
    min_size=1,
    max_size=6,
)


def generated_corpus(articles):
    return corpus_from(
        {"article_id": f"a{a}", "title": "T", "order": order, "text": " ".join(tokens)}
        for a, paras in enumerate(articles)
        for order, tokens in enumerate(paras)
    )


@settings(max_examples=60, deadline=None)
@given(
    articles=GENERATED_ARTICLES,
    query=st.lists(st.sampled_from("abcdefghz"), max_size=6),
    k=st.integers(min_value=1, max_value=20),
)
def test_topk_equals_brute_force_on_generated_corpora(articles, query, k):
    corpus = generated_corpus(articles)
    hits = search_topk(build_index(corpus), query, k)
    expected = BruteForceScorer(corpus).topk(query, k)
    assert [(h.paragraph_id, h.score) for h in hits] == expected


@settings(max_examples=60, deadline=None)
@given(
    articles=GENERATED_ARTICLES,
    query=st.lists(st.sampled_from("abcdefghz"), max_size=6),
    k=st.integers(min_value=1, max_value=20),
)
def test_save_load_preserves_topk_on_generated_corpora(articles, query, k):
    index = build_index(generated_corpus(articles))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "index.jsonl")
        save_index(index, path)
        loaded = load_index(path)
        resaved = os.path.join(tmp, "resaved.jsonl")
        save_index(loaded, resaved)
        with open(path, "rb") as first, open(resaved, "rb") as second:
            assert first.read() == second.read()
    assert search_topk(loaded, query, k) == search_topk(index, query, k)


@settings(max_examples=40, deadline=None)
@given(
    articles=st.lists(
        st.lists(st.lists(st.sampled_from("abcdefghijklmnop"), max_size=6), min_size=1, max_size=3),
        min_size=12,
        max_size=16,
    ),
    query=st.lists(st.sampled_from("abcdefghijklmnopz"), max_size=4),
    data=st.data(),
)
def test_topk_zero_score_fill_is_in_id_order(articles, query, data):
    # From 12 articles on, ingest order (a0, ..., a9, a10, a11) is not id order.
    corpus = generated_corpus(articles)
    brute = BruteForceScorer(corpus)
    n = len(corpus.paragraphs)
    reached = sum(1 for pid in corpus.paragraphs if brute.combined(pid, query) > 0.0)
    k = data.draw(st.integers(min_value=min(reached + 1, n), max_value=n), label="k")
    expected = brute.topk(query, k)
    index = build_index(corpus)
    assert list(index.doc_lengths) != sorted(index.doc_lengths)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "index.jsonl")
        save_index(index, path)
        loaded = load_index(path)
    for searched in (index, loaded):
        assert [(h.paragraph_id, h.score) for h in search_topk(searched, query, k)] == expected


@settings(max_examples=60, deadline=None)
@given(
    articles=GENERATED_ARTICLES,
    queries=st.lists(st.lists(st.sampled_from("abcdefghz"), max_size=6), min_size=1, max_size=4),
    target=st.integers(min_value=0),
)
def test_rank_of_equals_brute_force_cold_and_warm(articles, queries, target):
    corpus = generated_corpus(articles)
    index = build_index(corpus)
    brute = BruteForceScorer(corpus)
    pids = sorted(index.doc_lengths)
    for i, query in enumerate(queries):
        target_id = pids[(target + i) % len(pids)]
        expected = brute.rank_of(target_id, query)
        assert rank_of(index, target_id, query) == expected  # cold for new terms
        assert rank_of(index, target_id, query) == expected  # every term cached
    assert set(index.impacts) == {t for q in queries for t in q if t in index.postings}


# ---------------------------------------------------------------------------
# the dense score lists: edge cases on a built and on a saved-then-loaded index
# ---------------------------------------------------------------------------

def built_and_loaded(corpus, tmp_path):
    index = build_index(corpus)
    path = tmp_path / "index.jsonl"
    save_index(index, path)
    return index, load_index(path)


def corpus_of(*triples):
    """A corpus of (article id, order, text) triples, ingested in the given order."""
    return corpus_from(
        {"article_id": aid, "title": "T", "order": order, "text": text}
        for aid, order, text in triples
    )


def test_paragraph_reached_only_through_its_article(tmp_path):
    corpus = corpus_of(
        ("d", 0, "stone wall"), ("a", 0, "rare bird sings"), ("a", 1, "quiet morning"),
        ("b", 0, "quiet evening"), ("c", 0, "stone bridge"),
    )
    brute = BruteForceScorer(corpus)
    assert brute.paragraph("a#1", ["rare"]) == 0.0 < brute.combined("a#1", ["rare"])
    for index in built_and_loaded(corpus, tmp_path):
        for query in (["rare"], ["quiet", "rare"], ["rare", "stone", "rare"]):
            hits = search_topk(index, query, 5)
            assert [(h.paragraph_id, h.score) for h in hits] == brute.topk(query, 5)
            for pid in corpus.paragraphs:
                assert rank_of(index, pid, query) == brute.rank_of(pid, query)


def test_rank_of_counts_only_the_twins_below_the_target(tmp_path):
    # Three identical articles; "m" has a twin id on each side, and they are
    # ingested x, m, c, not in id order.
    twin = "twin pine lake"
    corpus = corpus_of(
        ("x", 0, twin), ("b", 0, "twin twin pine"), ("m", 0, twin), ("c", 0, twin),
        ("k", 0, "pine cone"), ("q", 0, "lake shore"),
    )
    brute = BruteForceScorer(corpus)
    for index in built_and_loaded(corpus, tmp_path):
        for query in (["twin"], ["lake", "pine"], ["pine", "twin", "twin"]):
            ranks = [rank_of(index, pid, query) for pid in ("c#0", "m#0", "x#0")]
            assert ranks == [brute.rank_of(pid, query) for pid in ("c#0", "m#0", "x#0")]
            assert ranks[1] == ranks[0] + 1 and ranks[2] == ranks[0] + 2


def test_articles_whose_paragraphs_are_apart_in_id_order(tmp_path):
    # Ids sort a#0 < a#1#0 < a#10 < a#2 < z#0, so article "a" sits at
    # ordinals 0, 2 and 3; ingest order is z#0, a#0, a#2, a#10, a#1#0.
    corpus = corpus_of(
        ("z", 0, "river delta mud"), ("a", 10, "heron river"), ("a#1", 0, "delta heron"),
        ("a", 2, "mud flats"), ("a", 0, "tidal river"), ("y", 0, "mud hut"),
    )
    assert list(build_index(corpus).doc_lengths) != sorted(corpus.paragraphs)
    brute = BruteForceScorer(corpus)
    for index in built_and_loaded(corpus, tmp_path):
        assert index.article_members[index.article_order.index("a")] == (0, 2, 3)
        for query in (["tidal"], ["heron", "mud"], ["flats", "delta", "river", "flats"]):
            hits = search_topk(index, query, index.n_para)
            assert [(h.paragraph_id, h.score) for h in hits] == brute.topk(query, index.n_para)
            for pid in corpus.paragraphs:
                assert rank_of(index, pid, query) == brute.rank_of(pid, query)


def test_topk_with_k_above_the_reached_paragraphs(tmp_path):
    corpus = corpus_of(
        ("g", 0, "owl night"), ("e", 0, "fern moss"), ("g", 1, "barn roof"),
        ("c", 0, "moss stone"), ("f", 0, "brook"), ("b", 0, "pebble"), ("a", 0, "sand"),
    )
    brute = BruteForceScorer(corpus)
    for index in built_and_loaded(corpus, tmp_path):
        for query, k in ((["owl"], 4), (["fern", "owl"], 6), (["absentword"], 3)):
            reached = [pid for pid in corpus.paragraphs if brute.combined(pid, query) > 0.0]
            assert len(reached) < k
            hits = search_topk(index, query, k)
            assert [(h.paragraph_id, h.score) for h in hits] == brute.topk(query, k)


def ranked_and_way(index, query, k):
    """search_topk's hits as (id, score) pairs, the query's rank table, and
    how both listed the reached paragraphs: "members" of the reached
    articles, or a "scan" of every paragraph's score through ``compress``."""
    selectors = []

    def compress(data, chosen):
        selectors.append(len(chosen))
        return real(data, chosen)

    real = search.compress
    with mock.patch.object(search, "compress", compress):
        hits = search_topk(index, query, k)
        table = search._rank_table(index, search._levels(index, query))
    assert index.n_para != index.n_article  # premise: a scan is told apart by its length
    scans = selectors.count(index.n_para)
    assert len(selectors) - scans == 2 and scans in (0, 2)  # two rankings, ranked alike
    return [(h.paragraph_id, h.score) for h in hits], list(table), "scan" if scans else "members"


@pytest.mark.parametrize("query, way", [
    (["heron"], "members"),                    # ties across articles "a" and "a!"
    (["reed", "heron", "reed"], "members"),
    (["the"], "scan"),                         # in 4 of 7 articles: article idf clamps to 0.0
    (["heron", "the", "mud"], "scan"),
    (["zzqabsent"], "members"),                # absent: reaches nothing, all fill
    (["mud", "zzqabsent"], "members"),
])
def test_ranking_lists_members_unless_an_article_idf_clamps(tmp_path, query, way):
    # Ids sort a!#0 < a#0 < a#1, but articles sort a < a!, so the members of
    # the reached articles come unsorted: a#0, a#1, a!#0.
    corpus = corpus_of(
        ("a", 0, "heron reed the"), ("a!", 0, "heron reed the"), ("a", 1, "mud flats"),
        ("b", 0, "reed bed the"), ("c", 0, "the tide pool the"), ("d", 0, "sand bar"),
        ("e", 0, "pine cone"), ("f", 0, "owl night"),
    )
    brute = BruteForceScorer(corpus)
    assert brute.combined("a!#0", ["heron"]) == brute.combined("a#0", ["heron"])
    assert (brute.df_article["the"], brute.n_article) == (4, 7)
    for index in built_and_loaded(corpus, tmp_path):
        assert index.para_order[:3] == ("a!#0", "a#0", "a#1")
        assert index.article_order[:2] == ("a", "a!")
        reached = [pid for pid in index.para_order if brute.combined(pid, query) > 0.0]
        for k in (1, 3, index.n_para):
            hits, table, ran = ranked_and_way(index, query, k)
            assert ran == way
            assert hits == brute.topk(query, k)
        assert len(reached) < index.n_para  # the zero-score fill ran at k = n_para
        assert table == [brute.rank_of(pid, query) for pid in index.para_order]


# ---------------------------------------------------------------------------
# rank_of's bound and its two ways of scoring the candidates, on a built and
# on a reloaded index
# ---------------------------------------------------------------------------

def bound_sum(index, query, terms):
    """rank_of's bound for ``terms``: their paragraph maxima summed in query
    order from 0.0, plus their article maxima summed the same way."""
    para = article = 0.0
    for term in query:
        if term in terms:
            (_, _, para_max), (_, _, article_max) = _impacts(index, term)
            para += para_max
            article += article_max
    return para + article


def rank_and_way(index, target_id, query):
    """rank_of's rank, the way it scored the candidates other than the
    target, and every candidate, the target included.

    The way is "lookup" (``_score_at`` at each candidate), "whole"
    (``_accumulate``, which adds every term's levels whole) or "lone" (the
    target is the only candidate and nothing else is scored). The target's
    own score is always looked up, first."""
    looked_up, accumulated = [], []

    def score_at(index, levels, i):
        looked_up.append(i)
        return _score_at(index, levels, i)

    def accumulate(index, levels, candidates=()):
        accumulated.append(list(candidates))
        return _accumulate(index, levels, candidates)

    with mock.patch.object(search, "_score_at", score_at), \
            mock.patch.object(search, "_accumulate", accumulate):
        rank = rank_of(index, target_id, query)
    target = index.para_order.index(target_id)
    assert looked_up[0] == target
    others = looked_up[1:]
    if accumulated:
        assert not others and len(accumulated) == 1
        return rank, "whole", sorted([target, *accumulated[0]])
    return rank, "lookup" if others else "lone", sorted([target, *others])


@contextlib.contextmanager
def forced(way):
    """Make rank_of score every evaluation's candidates the given way, with
    no rank table admitted."""
    with mock.patch.object(search, "_lookups_cost_less", lambda *_: way == "lookup"), \
            mock.patch.object(search, "_admit", lambda *_: None):
        yield


def assert_ranks_either_way(searched, brute, pids, query):
    """Every rank of ``pids`` under ``query``, by lookups and scored whole,
    equals the brute-force rank."""
    expected = [brute.rank_of(pid, query) for pid in pids]
    for way in ("lookup", "whole"):
        with forced(way):
            assert [rank_of(searched, pid, query) for pid in pids] == expected


def reloaded(index):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "index.jsonl")
        save_index(index, path)
        return load_index(path)


@st.composite
def edge_corpora(draw):
    """Small corpora in which "every" is in every paragraph, an article is
    copied under ids on both sides of its own when drawn so (c1 < m1 < x1),
    and the records are ingested in a drawn order."""
    articles = draw(st.lists(
        st.lists(st.lists(st.sampled_from("abcdef"), max_size=5), min_size=1, max_size=3),
        min_size=1,
        max_size=5,
    ))
    records = [
        {"article_id": f"{prefix}{a}", "title": "T", "order": order,
         "text": " ".join(["every", *tokens])}
        for a, paras in enumerate(articles)
        for prefix in draw(st.sampled_from(["m", "cmx"]))
        for order, tokens in enumerate(paras)
    ]
    return corpus_from(draw(st.permutations(records)))


EDGE_QUERIES = st.lists(
    st.lists(st.sampled_from([*"abcdef", "every", "zzqabsent"]), max_size=7),
    min_size=1,
    max_size=3,
)


@settings(max_examples=50, deadline=None)
@given(corpus=edge_corpora(), queries=EDGE_QUERIES)
def test_bounded_rank_of_equals_brute_force(corpus, queries):
    brute = BruteForceScorer(corpus)
    expected = [[brute.rank_of(pid, q) for pid in corpus.paragraphs] for q in queries]
    index = build_index(corpus)
    # Each example runs on both sides of the switch, and then as the rule picks.
    for way in ("lookup", "whole"):
        with forced(way):
            for searched in (index, reloaded(index)):
                assert [[rank_of(searched, pid, q) for pid in corpus.paragraphs]
                        for q in queries] == expected
    assert [[rank_of(index, pid, q) for pid in corpus.paragraphs] for q in queries] == expected


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32), data=st.data())
def test_restricted_accumulate_equals_full_at_every_candidate(seed, data):
    rng = random.Random(seed)
    index = build_index(make_random_corpus(rng, n_articles=40, shuffled=True))
    query = make_random_query(rng) + make_random_query(rng)
    candidates = sorted(data.draw(
        st.sets(st.integers(min_value=0, max_value=index.n_para - 1), max_size=40),
        label="candidates",
    ))
    # A candidate whose article total is 0.0: p + 0.0 == p keeps it exact.
    reached = {a for term in query for a in _impacts(index, term)[1][0]}
    zero_total = [i for i in index.ordinals if index.article_of[i] not in reached]
    assert zero_total  # premise: some article is reached by no unclamped term
    candidates = sorted({*candidates, data.draw(st.sampled_from(zero_total), label="zero")})
    _, full = _ranking(index, search._levels(index, query))
    restricted = _accumulate(index, search._levels(index, query), candidates)
    assert [restricted[i] for i in candidates] == [full[i] for i in candidates]
    # A lookup gives every paragraph its full score too.
    levels = [_impacts(index, term) for term in query]
    assert [_score_at(index, levels, i) for i in index.ordinals] == full


@settings(max_examples=50, deadline=None)
@given(corpus=edge_corpora(), data=st.data())
def test_term_in_every_paragraph_adds_at_its_own_ordinal(corpus, data):
    index = build_index(corpus)
    assert len(index.postings["every"]) == index.n_para  # premise: "every" is everywhere
    terms = data.draw(st.lists(st.sampled_from([*"abcdef", "every"]), max_size=5), label="terms")
    query = data.draw(st.permutations([*terms, "every"]), label="query")
    brute = BruteForceScorer(corpus)
    _, full = _ranking(index, search._levels(index, query))
    assert full == [brute.combined(pid, query) for pid in index.para_order]
    hits = search_topk(index, query, index.n_para)
    assert [(h.paragraph_id, h.score) for h in hits] == brute.topk(query, index.n_para)
    candidates = sorted(data.draw(st.sets(st.sampled_from(index.ordinals), min_size=1)))
    restricted = _accumulate(index, search._levels(index, query), candidates)
    assert [restricted[i] for i in candidates] == [full[i] for i in candidates]


def common_term_corpus(*triples):
    """``triples`` plus 200 one-paragraph articles that hold "the" and a word
    of their own, so that "the" is long enough for a few candidates to be
    looked up rather than scored whole."""
    return corpus_of(*triples, *((f"f{n:03d}", 0, f"the filler{n}") for n in range(200)))


def test_bounded_rank_of_counts_only_the_twins_below_the_target(tmp_path):
    twin = "the twin pine lake"
    corpus = common_term_corpus(
        ("x", 0, twin), ("m", 0, twin), ("c", 0, twin), ("k", 0, "the lake shore"),
    )
    brute = BruteForceScorer(corpus)
    twins = ("c#0", "m#0", "x#0")
    index, loaded = built_and_loaded(corpus, tmp_path)
    for searched in (index, loaded):
        for query in (["the", "lake"], ["the", "twin", "the"], ["pine", "the", "lake"]):
            # "the" reaches every paragraph, and it alone stays below the twins' score.
            assert bound_sum(searched, query, {"the"}) < brute.combined("m#0", query)
            ranks = []
            for pid in twins:
                rank, way, candidates = rank_and_way(searched, pid, query)
                assert way == "lookup"
                assert set(twins) <= {searched.para_order[i] for i in candidates}
                ranks.append(rank)
            assert ranks == [brute.rank_of(pid, query) for pid in twins]
            assert ranks[1] == ranks[0] + 1 and ranks[2] == ranks[0] + 2
            assert_ranks_either_way(searched, brute, twins, query)


def test_bounded_rank_of_target_reached_only_through_its_article(tmp_path):
    corpus = common_term_corpus(
        ("a", 0, "the rare bird"), ("a", 1, "quiet morning"), ("a", 2, "quiet evening"),
    )
    brute = BruteForceScorer(corpus)
    index, loaded = built_and_loaded(corpus, tmp_path)
    query = ["the", "rare"]
    for pid in ("a#1", "a#2"):
        assert brute.paragraph(pid, query) == 0.0 < brute.combined(pid, query)
    assert bound_sum(index, query, {"the"}) < brute.combined("a#2", query)
    for searched in (index, loaded):
        # a#1 ties a#2 through the article alone and is counted, a#0 beats both.
        rank, way, candidates = rank_and_way(searched, "a#2", query)
        assert rank == brute.rank_of("a#2", query) == 3
        assert way == "lookup"
        assert [searched.para_order[i] for i in candidates] == ["a#0", "a#1", "a#2"]
        assert_ranks_either_way(searched, brute, sorted(corpus.paragraphs), query)


def near_tie_corpus():
    """q#0 and t#0 hold terms of equal statistics (df 1, tfs 1, 2, 1, equal
    lengths), so sums of their contributions differ only by rounding."""
    return corpus_of(
        ("q", 0, "y1 y2 y2 y3"), ("t", 0, "x1 x2 x2 x3"),
        *((f"f{n}", 0, "filler") for n in range(4)),
    )


def test_bounded_rank_of_when_the_bound_equals_the_target_score(tmp_path):
    corpus = near_tie_corpus()
    brute = BruteForceScorer(corpus)
    query = ["y1", "y2", "y3", "x1", "x2", "x3"]
    target_score = brute.combined("t#0", query)
    assert brute.combined("q#0", query) == target_score
    index, loaded = built_and_loaded(corpus, tmp_path)
    # y3 cannot be bounded: with it the bound reaches t exactly, and q#0 ties t#0.
    assert bound_sum(index, query, {"y1", "y2"}) < target_score
    assert bound_sum(index, query, {"y1", "y2", "y3"}) == target_score
    for searched in (index, loaded):
        # Six one-posting levels: adding them whole costs less than looking q#0 up.
        rank, way, candidates = rank_and_way(searched, "t#0", query)
        assert rank == brute.rank_of("t#0", query) == 2
        assert way == "whole"
        assert [searched.para_order[i] for i in candidates] == ["q#0", "t#0"]
        assert_ranks_either_way(searched, brute, sorted(corpus.paragraphs), query)


def test_bounded_rank_of_when_the_bound_is_one_ulp_below_the_target_score(tmp_path):
    corpus = near_tie_corpus()
    brute = BruteForceScorer(corpus)
    query = ["y1", "y2", "y3", "x1", "x3", "x2"]
    target_score = brute.combined("t#0", query)
    index, loaded = built_and_loaded(corpus, tmp_path)
    # The y terms are bounded one ulp below t, and q#0 scores exactly the bound.
    bound = bound_sum(index, query, {"y1", "y2", "y3"})
    assert bound == math.nextafter(target_score, 0.0) == brute.combined("q#0", query)
    for searched in (index, loaded):
        rank, way, candidates = rank_and_way(searched, "t#0", query)
        assert rank == brute.rank_of("t#0", query) == 1
        assert way == "lone" and [searched.para_order[i] for i in candidates] == ["t#0"]
        assert rank_of(searched, "q#0", query) == brute.rank_of("q#0", query) == 2
        assert_ranks_either_way(searched, brute, sorted(corpus.paragraphs), query)


def test_bounded_rank_of_lone_target_and_ties_on_both_sides(tmp_path):
    # "hapax" is in u#0 alone; c#0 < m#0 < x#0 tie under every query.
    twin = "the twin pine lake"
    corpus = common_term_corpus(
        ("x", 0, twin), ("m", 0, twin), ("c", 0, twin), ("u", 0, "the hapax pine"),
    )
    brute = BruteForceScorer(corpus)
    twins = ("c#0", "m#0", "x#0")
    index, loaded = built_and_loaded(corpus, tmp_path)
    for searched in (index, loaded):
        # Only "hapax" escapes the bound, so u#0 is its only candidate: rank 1.
        query = ["the", "hapax", "the"]
        rank, way, candidates = rank_and_way(searched, "u#0", query)
        assert rank == brute.rank_of("u#0", query) == 1
        assert way == "lone" and [searched.para_order[i] for i in candidates] == ["u#0"]
        # m#0's candidates are the twins, one tie on each side of its id.
        query = ["the", "twin", "lake"]
        rank, way, candidates = rank_and_way(searched, "m#0", query)
        assert way == "lookup" and [searched.para_order[i] for i in candidates] == list(twins)
        assert rank == brute.rank_of("m#0", query) == 2
        assert [rank_of(searched, pid, query) for pid in twins] == [1, 2, 3]
        assert_ranks_either_way(searched, brute, [*twins, "u#0"], query)


# ---------------------------------------------------------------------------
# search_topk's bounded path: a query with a term in every paragraph scores
# only the paragraphs its rarer terms reach
# ---------------------------------------------------------------------------

def topk_and_path(index, query, k):
    """search_topk's hits, and whether ``_bounded_top`` returned them (True)
    or search_topk fell back to scoring every paragraph (False)."""
    returned = []

    def bounded_top(*args):
        found = _bounded_top(*args)
        returned.append(found is not None)
        return found

    with mock.patch.object(search, "_bounded_top", bounded_top):
        hits = search_topk(index, query, k)
    assert len(returned) == 1
    return hits, returned[0]


def assert_topk_equals_brute_force(hits, brute, query, k):
    assert [(h.paragraph_id, h.score) for h in hits] == brute.topk(query, k)


@st.composite
def common_term_corpora(draw):
    """``common_term_corpus`` with up to four drawn articles, each paragraph
    "the" and drawn words; returns the corpus, "the" and the words to query."""
    words = ["twin", "pine", "lake", "hapax"]
    articles = draw(st.lists(
        st.lists(st.lists(st.sampled_from(words), max_size=4), min_size=1, max_size=3),
        min_size=1,
        max_size=4,
    ))
    corpus = common_term_corpus(*(
        (f"{'cmx'[a % 3]}{a}", order, " ".join(["the", *tokens]))
        for a, paras in enumerate(articles)
        for order, tokens in enumerate(paras)
    ))
    return corpus, "the", [*words, "filler7", "zzqabsent"]


COMMON_TERM_CASES = st.one_of(
    edge_corpora().map(lambda corpus: (corpus, "every", [*"abcdef", "zzqabsent"])),
    common_term_corpora(),
)


def test_bounded_topk_equals_brute_force():
    paths = []

    @settings(max_examples=60, deadline=None)
    @given(case=COMMON_TERM_CASES, data=st.data())
    def check(case, data):
        corpus, common, words = case
        index = build_index(corpus)
        assert len(index.postings[common]) == index.n_para  # premise: the gate is open
        brute = BruteForceScorer(corpus)
        for _ in range(3):
            terms = data.draw(st.lists(st.sampled_from(words), max_size=4), label="terms")
            repeats = data.draw(st.integers(min_value=1, max_value=3), label="repeats")
            query = data.draw(st.permutations([*terms, *[common] * repeats]), label="query")
            k = data.draw(st.one_of(st.integers(min_value=1, max_value=4),
                                    st.integers(min_value=1, max_value=index.n_para + 1)),
                          label="k")
            for searched in (index, reloaded(index)):
                hits, bounded = topk_and_path(searched, query, k)
                assert_topk_equals_brute_force(hits, brute, query, k)
                paths.append(bounded)

    check()
    # Both ways were taken, so neither can go dead unnoticed.
    assert True in paths and False in paths


def test_bounded_topk_falls_back_when_the_bound_equals_the_kth_score(tmp_path):
    # "ra" and "rb" have equal statistics, and p#0, q#0 and every filler
    # paragraph have the same length, so p#0 and q#0 tie exactly.
    corpus = common_term_corpus(("p", 0, "the ra"), ("q", 0, "the rb"))
    brute = BruteForceScorer(corpus)
    query = ["ra", "rb", "the"]
    assert brute.combined("p#0", query) == brute.combined("q#0", query)
    for searched in built_and_loaded(corpus, tmp_path):
        # "rb", last of the two rarest, reaches q#0 alone; bounding "ra" and
        # "the" gives exactly p#0's score, which ties q#0 from below its id.
        assert bound_sum(searched, query, {"ra", "the"}) == brute.combined("p#0", query)
        hits, bounded = topk_and_path(searched, query, 1)
        assert not bounded
        assert [h.paragraph_id for h in hits] == ["p#0"]
        assert_topk_equals_brute_force(hits, brute, query, 1)


def test_bounded_topk_reaches_paragraphs_through_their_articles(tmp_path):
    # a#1 holds no "rare", but its article holds it three times.
    corpus = common_term_corpus(
        ("a", 0, "the rare rare rare"), ("a", 1, "the"),
        ("b", 0, "the rare wide long words words"),
    )
    brute = BruteForceScorer(corpus)
    query = ["the", "rare"]
    assert brute.paragraph("a#1", query) < brute.combined("b#0", query)
    assert brute.combined("b#0", query) < brute.combined("a#1", query)
    for searched in built_and_loaded(corpus, tmp_path):
        hits, bounded = topk_and_path(searched, query, 2)
        assert bounded
        assert [h.paragraph_id for h in hits] == ["a#0", "a#1"]
        assert_topk_equals_brute_force(hits, brute, query, 2)


def test_bounded_topk_breaks_ties_by_ascending_id(tmp_path):
    twin = "the twin pine lake"
    corpus = common_term_corpus(("x", 0, twin), ("m", 0, twin), ("c", 0, twin))
    brute = BruteForceScorer(corpus)
    for searched in built_and_loaded(corpus, tmp_path):
        for query, k in ((["the", "twin"], 2), (["lake", "the", "pine"], 3), (["the", "twin"], 1)):
            hits, bounded = topk_and_path(searched, query, k)
            assert bounded
            assert [h.paragraph_id for h in hits] == ["c#0", "m#0", "x#0"][:k]
            assert_topk_equals_brute_force(hits, brute, query, k)


def test_bounded_topk_counts_a_repeated_term_at_each_place(tmp_path):
    corpus = common_term_corpus(("h", 0, "the hapax"), *((a, 0, "the lake") for a in "lmn"))
    brute = BruteForceScorer(corpus)
    query = ["the", "lake", "hapax", "lake"]
    for searched in built_and_loaded(corpus, tmp_path):
        # "hapax" reaches h#0 alone. Counted once, "lake" would bound l#0
        # below h#0; counted at both of its places, it does not.
        assert bound_sum(searched, ["the", "lake"], {"the", "lake"}) < brute.combined("h#0", query)
        assert brute.combined("h#0", query) < brute.combined("l#0", query)
        hits, bounded = topk_and_path(searched, query, 1)
        assert not bounded
        assert [h.paragraph_id for h in hits] == ["l#0"]
        assert_topk_equals_brute_force(hits, brute, query, 1)
        # At k=3 "lake" is among the reaching terms, and only "the" is bounded.
        hits, bounded = topk_and_path(searched, query, 3)
        assert bounded
        assert_topk_equals_brute_force(hits, brute, query, 3)

# ---------------------------------------------------------------------------
# rank_of's rank tables, keyed by the ordered query, within one byte budget
# ---------------------------------------------------------------------------

def cache_bytes(index):
    """The bytes the rank tables and the sighted keys hold, as ``_admit`` counts them."""
    tables = sum(table.itemsize * len(table) for table in index.rank_tables.values())
    return tables + sum(map(sys.getsizeof, index.sighted))


def assert_tables_equal_brute_force(index, brute):
    for key, table in index.rank_tables.items():
        assert list(table) == [brute.rank_of(pid, key) for pid in index.para_order], key


def scored_whole():
    """Make rank_of score every query's candidates whole, the branch that admits tables."""
    return mock.patch.object(search, "_lookups_cost_less", lambda *_: False)


@settings(max_examples=50, deadline=None)
@given(corpus=edge_corpora(), terms=st.lists(
    st.sampled_from([*"abcdef", "every", "zzqabsent"]), min_size=1, max_size=4,
))
def test_one_term_rank_of_equals_brute_force(corpus, terms):
    # "every" is in every paragraph, copied articles tie exactly across
    # articles, and "zzqabsent" is in none.
    brute = BruteForceScorer(corpus)
    pids = sorted(corpus.paragraphs)
    index = build_index(corpus)
    for searched in (index, reloaded(index)):
        searched.rank_budget = 1 << 30  # room for every table of a small corpus
        for term in terms:
            expected = [brute.rank_of(pid, [term]) for pid in pids]
            assert [rank_of(searched, pid, [term]) for pid in pids] == expected  # cold, then a table
            assert [rank_of(searched, pid, (term,)) for pid in pids] == expected  # the same key
        assert set(searched.rank_tables) <= {(t,) for t in terms if t in searched.postings}
        # Adding "every" whole costs less than looking up every other paragraph.
        assert ("every",) in searched.rank_tables or "every" not in terms or len(pids) == 1
        assert_tables_equal_brute_force(searched, brute)
        assert all(rank_of(searched, pid, ["zzqabsent"]) == searched.sentinel_rank
                   for pid in pids)
        assert ("zzqabsent",) not in searched.rank_tables
        assert ("zzqabsent",) not in searched.sighted


def test_one_term_rank_of_reads_its_table_on_a_second_call():
    corpus = make_random_corpus(random.Random(31), n_articles=12)
    index = build_index(corpus)
    term = max(sorted(index.postings), key=lambda t: len(index.postings[t]))
    pids = sorted(index.doc_lengths)
    expected = [BruteForceScorer(corpus).rank_of(pid, [term]) for pid in pids]
    reached = [(pid, rank) for pid, rank in zip(pids, expected) if rank != index.sentinel_rank]
    first, second = reached[:2]
    with mock.patch.object(search, "_accumulate", wraps=_accumulate) as scoring, \
            mock.patch.object(search, "_ranking", wraps=_ranking) as ranking:
        assert rank_of(index, first[0], [term]) == first[1]
        assert scoring.call_args.args[2]  # scored at its candidates, and sighted
        assert index.sighted == {(term,)} and not index.rank_tables
        assert not ranking.called
        assert rank_of(index, second[0], [term]) == second[1]
        assert scoring.call_count == 1 and ranking.call_count == 1  # the table's pass
    table = index.rank_tables[(term,)]
    assert list(table) == expected
    with mock.patch.object(search, "_accumulate", side_effect=AssertionError("scored")), \
            mock.patch.object(search, "_ranking", side_effect=AssertionError("ranked")):
        assert [rank_of(index, pid, [term]) for pid in pids] == expected
    assert index.rank_tables[(term,)] is table
    assert index == build_index(corpus)
    assert "rank_tables" not in repr(index) and "sighted" not in repr(index)


MULTI_TERM_QUERIES = st.lists(
    st.lists(st.sampled_from([*"abcdef", "every", "zzqabsent"]), min_size=2, max_size=6),
    min_size=1,
    max_size=3,
)


@settings(max_examples=60, deadline=None)
@given(corpus=edge_corpora(), drawn=MULTI_TERM_QUERIES)
def test_multi_term_ranks_from_tables_equal_brute_force(corpus, drawn):
    # Each query also comes with its first term repeated at its end. A
    # repeated term counts twice, so the two are different keys.
    queries = [q for query in drawn for q in (query, [*query, query[0]])]
    brute = BruteForceScorer(corpus)
    pids = sorted(corpus.paragraphs)
    expected = [[brute.rank_of(pid, q) for pid in pids] for q in queries]
    index = build_index(corpus)
    index.rank_budget = 1 << 30
    with scored_whole():
        cold = [[rank_of(index, pid, q) for pid in pids] for q in queries]
        cached = [[rank_of(index, pid, q) for pid in pids] for q in queries]
    assert cold == expected and cached == expected
    assert set(index.rank_tables) <= {tuple(q) for q in queries}
    # A query that reaches two paragraphs scores its lowest target whole, so
    # the second round at the latest admits its table.
    reaching_two = {tuple(q) for q, ranks in zip(queries, expected)
                    if sum(rank <= len(pids) for rank in ranks) > 1}
    assert reaching_two <= set(index.rank_tables)
    assert_tables_equal_brute_force(index, brute)
    # A budget that the tables already fill: new queries are scored, and not admitted.
    tables = dict(index.rank_tables)
    index.rank_budget = 4 * index.n_para * len(tables) * search._SIGHTED_SHARE // (
        search._SIGHTED_SHARE - 1)
    more = [[*reversed(q), "every"] for q in queries]
    with scored_whole():
        for _ in range(2):
            assert [[rank_of(index, pid, q) for pid in pids] for q in queries] == expected
            assert [[rank_of(index, pid, q) for pid in pids] for q in more] == [
                [brute.rank_of(pid, q) for pid in pids] for q in more]
    assert index.rank_tables == tables


def test_rank_tables_and_sighted_keys_stay_within_the_budget():
    corpus = make_random_corpus(random.Random(7), n_articles=8)
    index = build_index(corpus)
    brute = BruteForceScorer(corpus)
    pids = sorted(index.doc_lengths)
    budget = index.rank_budget
    assert budget == 16 * sum(map(len, index.postings.values()))
    share = budget // search._SIGHTED_SHARE
    room = (budget - share) // (4 * index.n_para)  # tables that fit
    common = max(sorted(index.postings), key=lambda t: len(index.postings[t]))
    cleared = False
    with scored_whole():
        for term in sorted(index.postings)[:room + 10]:
            # Ranked at every paragraph, so sighted and then admitted while there is room.
            query = [common, term]
            assert [rank_of(index, pid, query) for pid in pids] == [
                brute.rank_of(pid, query) for pid in pids]
            # Ranked at one paragraph: sighted once, never admitted.
            before = len(index.sighted)
            once = [term, common, common]
            assert rank_of(index, pids[-1], once) == brute.rank_of(pids[-1], once)
            cleared |= len(index.sighted) < before
            assert cache_bytes(index) <= budget
            assert sum(map(sys.getsizeof, index.sighted)) <= share
    assert cleared
    assert len(index.rank_tables) == room
    assert_tables_equal_brute_force(index, brute)
    # Full: a query seen at every paragraph is scored each time, and gets no table.
    query = [common, common, "zzqabsent"]
    with scored_whole(), \
            mock.patch.object(search, "_rank_table", side_effect=AssertionError("admitted")):
        assert [rank_of(index, pid, query) for pid in pids] == [
            brute.rank_of(pid, query) for pid in pids]


def test_admission_holds_the_budget_under_concurrent_calls():
    corpus = make_random_corpus(random.Random(7), n_articles=8)
    index = build_index(corpus)
    brute = BruteForceScorer(corpus)
    pids = sorted(index.doc_lengths)
    common = max(sorted(index.postings), key=lambda t: len(index.postings[t]))
    terms = sorted(index.postings)[:40]
    queries = [[common, term] for term in terms] + [[term, common, common] for term in terms]
    expected = [[brute.rank_of(pid, q) for pid in pids] for q in queries]
    results = {}

    def worker(n):
        order = random.Random(n).sample(queries, len(queries))
        results[n] = [[rank_of(index, pid, q) for pid in pids] for q in order], order

    def slow_rank_table(index, query):  # other calls run while a table is built
        time.sleep(0.001)
        return rank_table(index, query)

    rank_table = search._rank_table
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with scored_whole(), mock.patch.object(search, "_rank_table", slow_rank_table):
            threads = [threading.Thread(target=worker, args=(n,)) for n in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and len(results) == 4
    for ranks, order in results.values():
        assert ranks == [expected[queries.index(q)] for q in order]
    share = index.rank_budget // search._SIGHTED_SHARE
    assert len(index.rank_tables) == (index.rank_budget - share) // (4 * index.n_para)
    assert cache_bytes(index) <= index.rank_budget
    assert sum(map(sys.getsizeof, index.sighted)) <= share
    assert_tables_equal_brute_force(index, brute)


# ---------------------------------------------------------------------------
# the per-term contribution cache
# ---------------------------------------------------------------------------

def test_cached_contributions_equal_reference_and_stay_unchanged():
    # Ingested in a shuffled order, so a level kept in posting order would
    # not be ascending.
    corpus = make_random_corpus(random.Random(26), n_articles=20, shuffled=True)
    index = build_index(corpus)
    brute = BruteForceScorer(corpus)
    probe = build_index(corpus)
    term = next(t for t in sorted(probe.postings) if len(article_level(probe, t)) > 2)
    assert list(index.postings[term]) != sorted(index.postings[term])
    search_topk(index, [term], 5)
    entry = index.impacts[term]
    (para_ordinals, para, para_max), (article_ordinals, article, article_max) = entry
    for ordinals in (para_ordinals, article_ordinals):
        assert all(a < b for a, b in zip(ordinals, ordinals[1:]))
    assert para_max == max(para) and article_max == max(article)
    assert [index.para_order[i] for i in para_ordinals] == sorted(index.postings[term])
    reached = {brute.para_article[pid] for pid in index.postings[term]}
    assert [index.article_order[a] for a in article_ordinals] == sorted(reached)
    assert list(para) == [brute.paragraph(index.para_order[i], [term]) for i in para_ordinals]
    assert list(article) == [
        brute.article(index.article_order[a], [term]) for a in article_ordinals
    ]
    assert all(index.ordinals[i] is i for i in para_ordinals + article_ordinals)
    snapshot = (para_ordinals, list(para), para_max, article_ordinals, list(article), article_max)
    target = next(iter(index.postings[term]))
    for query in ([term, "w001"], [term, term], [term, "w002", "w001", term]):
        search_topk(index, query, 5)
        rank_of(index, target, query)
    assert index.impacts[term] is entry
    assert entry[0][0] is para_ordinals and entry[0][1] is para
    assert entry[1][0] is article_ordinals and entry[1][1] is article
    assert (para_ordinals, list(para), para_max, article_ordinals, list(article),
            article_max) == snapshot


def test_cached_article_level_equals_score_article(tmp_path):
    corpus = make_random_corpus(random.Random(28), n_articles=20)
    brute = BruteForceScorer(corpus)
    for index in built_and_loaded(corpus, tmp_path):
        clamped = 0
        for term in sorted(index.postings):
            reached = {
                aid: brute.article(aid, [term]) for aid, tf in brute.art_tf.items() if tf[term]
            }
            if 0.0 in reached.values():  # a clamped idf of 0.0 zeroes every reached article
                clamped += 1
                reached = {}
            assert article_level(index, term) == reached
        assert 0 < clamped < len(index.postings)


def test_cached_article_level_sums_paragraphs_apart_in_id_order(tmp_path):
    # Ids sort a#0 < a#1#0 < a#10 < a#2, so "egret" is at ordinals 0 and 2 of
    # article "a", with a paragraph of article "a#1" between them.
    corpus = corpus_of(
        ("a", 10, "egret egret heron"), ("a#1", 0, "heron reed"), ("a", 0, "egret mud"),
        ("a", 2, "mud flats"), ("x", 0, "reed bed"), ("y", 0, "tide pool"),
        ("z", 0, "sand bar"),
    )
    for index in built_and_loaded(corpus, tmp_path):
        assert [index.para_order[i] for i in index.article_members[0]] == ["a#0", "a#10", "a#2"]
        # tf 1 + 2 = 3 in article "a"; df 1 of 5 articles.
        idf = math.log((5 - 1 + 0.5) / (1 + 0.5))
        expected = idf * idf * 3 * (1.2 + 1.0) / (3 + 1.2)
        assert article_level(index, "egret") == {"a": expected}


def test_article_level_is_in_article_order_where_paragraph_order_differs(tmp_path):
    # "new york#0" sorts before "new#0" (" " < "#"), but "new" before "new york".
    corpus = corpus_of(
        ("new", 0, "city hall"), ("new york", 0, "city park city"), ("x", 0, "hall"),
        ("y", 0, "park"), ("z", 0, "tree"), ("w", 0, "tree hall"),
    )
    brute = BruteForceScorer(corpus)
    for index in built_and_loaded(corpus, tmp_path):
        assert index.para_order[:2] == ("new york#0", "new#0")
        (para_ordinals, _, _), (article_ordinals, _, _) = _impacts(index, "city")
        assert [index.para_order[i] for i in para_ordinals] == ["new york#0", "new#0"]
        assert [index.article_order[a] for a in article_ordinals] == ["new", "new york"]
        for query in (["city", "park"], ["hall", "city", "tree"]):
            for pid in corpus.paragraphs:
                assert rank_of(index, pid, query) == brute.rank_of(pid, query)


def test_absent_terms_are_not_cached():
    index = build_index(make_random_corpus(random.Random(27), n_articles=5))
    search_topk(index, ["zzqabsent", "w000"], 3)
    assert set(index.impacts) == set(index.idfs) == {"w000"}


def test_idf_memo_equals_the_formula_and_holds_only_indexed_terms():
    corpus = make_random_corpus(random.Random(30), n_articles=20)
    index = build_index(corpus)
    brute = BruteForceScorer(corpus)
    expected = {
        term: math.log(1.0 + (brute.n_para - n + 0.5) / (n + 0.5))
        for term, n in sorted(brute.df_para.items())
    }
    absent = math.log(1.0 + (brute.n_para - 0 + 0.5) / (0 + 0.5))
    assert {term: idf_paragraph(index, term) for term in expected} == expected
    assert idf_paragraph(index, "zzqabsent") == absent
    assert index.idfs == expected  # bit for bit, and no absent term
    with mock.patch.object(search.math, "log", side_effect=AssertionError("computed")):
        assert {term: idf_paragraph(index, term) for term in expected} == expected
        with pytest.raises(AssertionError, match="computed"):
            idf_paragraph(index, "zzqabsent")
    assert index == build_index(corpus)
    assert "idfs" not in repr(index)


def test_warm_index_matches_fresh_load(tmp_path):
    corpus = make_random_corpus(random.Random(24), n_articles=15)
    index = build_index(corpus)
    path = tmp_path / "index.jsonl"
    save_index(index, path)
    rng = random.Random(25)
    queries = [make_random_query(rng) for _ in range(30)]
    targets = [rng.choice(sorted(index.doc_lengths)) for _ in queries]

    def results(idx):
        return [
            ([(h.paragraph_id, h.score) for h in search_topk(idx, q, 10)], rank_of(idx, t, q))
            for q, t in zip(queries, targets)
        ]

    cold = results(index)
    warm = results(index)
    fresh = load_index(path)
    assert index.impacts and index.idfs and not fresh.impacts and not fresh.idfs
    assert fresh == index
    assert "impacts" not in repr(index) and "idfs" not in repr(index)
    assert results(fresh) == warm == cold


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def test_save_load_round_trip(tmp_path):
    corpus = make_random_corpus(random.Random(17), n_articles=15)
    index = build_index(corpus)
    path = tmp_path / "index.jsonl"
    save_index(index, path)
    loaded = load_index(path)
    assert loaded == index
    assert type(index.postings) is dict and type(loaded.postings) is dict
    rng = random.Random(18)
    for _ in range(30):
        query = make_random_query(rng)
        original = search_topk(index, query, 10)
        reloaded = search_topk(loaded, query, 10)
        assert [(h.paragraph_id, h.score) for h in original] == [
            (h.paragraph_id, h.score) for h in reloaded
        ]
    for postings in (index.postings, loaded.postings):
        with pytest.raises(KeyError):
            postings["unknown-term"]
        assert "unknown-term" not in postings


def test_save_index_output_is_pinned(tmp_path):
    path = tmp_path / "index.jsonl"
    benchmark = make_chain_benchmark(n_per_hop=(4, 4, 2), n_distractors=10, seed=7)
    save_index(build_index(benchmark.corpus), path)
    header = json.loads(path.read_text().splitlines()[0])
    assert header["magic"] == "iterqa-index"
    assert header["k1"] == 1.2 and header["b"] == 0.75
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "474d16f47576fa0c8573379359f637c99aad56b566f5a4a33de9f6020d1902a7"


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "index.jsonl"
    path.write_text('{"magic": "something-else", "format_version": 1}\n')
    with pytest.raises(IndexFormatError, match="magic"):
        load_index(path)


def test_load_rejects_mismatched_constants(tmp_path):
    corpus = single_para_corpus()
    index = build_index(corpus)
    path = tmp_path / "index.jsonl"
    save_index(index, path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    header["k1"] = 0.9
    path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    with pytest.raises(IndexFormatError, match="k1"):
        load_index(path)


def test_load_shares_id_strings(tmp_path):
    path = tmp_path / "index.jsonl"
    save_index(build_index(make_random_corpus(random.Random(21), n_articles=15)), path)
    index = load_index(path)
    para_ids = {pid: pid for pid in index.doc_lengths}
    article_ids = {aid: aid for aid in index.article_order}
    assert len(article_ids) == len(index.article_order) == index.n_article
    for entry in index.postings.values():
        assert all(pid is para_ids[pid] for pid in entry)
    assert all(pid is para_ids[pid] for pid in index.para_order)
    for members in index.article_members:
        assert all(i is index.ordinals[i] for i in members)


def saved_lines(path):
    save_index(build_index(make_random_corpus(random.Random(23), n_articles=5)), path)
    return path.read_text().splitlines(keepends=True)


def with_record(change):
    """Replace the first paragraph line by change(record)."""
    def rewrite(lines):
        lines[1] = change(json.loads(lines[1])) + "\n"
        return lines
    return rewrite


def with_tf(tf):
    def change(record):
        record[2][max(record[2])] = tf
        return json.dumps(record)
    return with_record(change)


@pytest.mark.parametrize("rewrite, message", [
    (with_record(lambda record: json.dumps(record)[:-5]), "line 2: invalid JSON"),
    (with_record(lambda record: json.dumps(dict(enumerate(record)))),
     "line 2: record is not \\[paragraph id, article id, {term: tf}\\]"),
    (with_record(lambda record: json.dumps(record[:2])), "line 2: record is not \\["),
    (with_record(lambda record: json.dumps([7] + record[1:])), "line 2: record is not \\["),
    (with_tf(0), "line 2: term '\\w+' has a term frequency that is not an integer >= 1 \\(0\\)"),
    (with_tf(-1), "line 2: term '\\w+' has a term frequency that is not an integer >= 1 \\(-1\\)"),
    (with_tf("x"), "line 2: term '\\w+' has a term frequency that is not an integer >= 1 \\('x'\\)"),
    (with_tf(2.5), "line 2: term '\\w+' has a term frequency that is not an integer >= 1 \\(2.5\\)"),
    (with_tf(True), "line 2: term '\\w+' has a term frequency that is not an integer >= 1 \\(True\\)"),
    (lambda lines: lines[:2] + lines[1:], "line 3: paragraph '[^']+' appears twice"),
    (lambda lines: lines[:-1], "index file has \\d+ paragraph records, not the \\d+ its header names"),
    (lambda lines: lines[:1] + ["\n"] + lines[2:],
     "index file has \\d+ paragraph records, not the \\d+ its header names"),
    (lambda lines: lines[:-1] + [lines[-1][:9]], "line \\d+: invalid JSON"),
], ids=["unreadable", "object", "two-items", "id-not-a-string", "tf-0", "tf-negative", "tf-string",
        "tf-float", "tf-bool", "duplicate-id", "truncated", "blank-record", "cut-mid-line"])
def test_load_rejects_malformed_records(tmp_path, rewrite, message):
    path = tmp_path / "index.jsonl"
    path.write_text("".join(rewrite(saved_lines(path))))
    with pytest.raises(IndexFormatError, match=message) as info:
        load_index(path)
    assert "\n" not in str(info.value)


def with_header(**changes):
    """Replace the header line by the saved one with ``changes`` (None drops a key)."""
    def rewrite(lines):
        header = {**json.loads(lines[0]), **changes}
        lines[0] = json.dumps({k: v for k, v in header.items() if v is not None}) + "\n"
        return lines
    return rewrite


@pytest.mark.parametrize("rewrite, message", [
    (lambda lines: [lines[0][:-5] + "\n"] + lines[1:], "line 1: invalid JSON"),
    (with_header(format_version=1), "unsupported index format version 1"),
    (with_header(n_para=0), "index header has n_para=0, not an integer >= 1"),
    (with_header(n_para="809"), "index header has n_para='809', not an integer >= 1"),
    (with_header(n_para=True), "index header has n_para=True, not an integer >= 1"),
    (with_header(n_para=None), "index header has n_para=None, not an integer >= 1"),
], ids=["unreadable", "format-1", "n-para-0", "n-para-string", "n-para-bool", "n-para-missing"])
def test_load_rejects_bad_headers(tmp_path, rewrite, message):
    path = tmp_path / "index.jsonl"
    path.write_text("".join(rewrite(saved_lines(path))))
    with pytest.raises(IndexFormatError, match=message) as info:
        load_index(path)
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("line, message", [
    (0, "line 1: not UTF-8 text"),
    (2, "line 3: not UTF-8 text"),
], ids=["header", "record"])
def test_load_rejects_an_index_that_is_not_utf8(tmp_path, line, message):
    path = tmp_path / "index.jsonl"
    lines = [text.encode() for text in saved_lines(path)]
    # A Latin-1 e-acute opens the line's first string: valid JSON, but not UTF-8.
    lines[line] = lines[line].replace(b'"', b'"\xe9', 1)
    path.write_bytes(b"".join(lines))
    with pytest.raises(IndexFormatError, match=f"^{message}$") as info:
        load_index(path)
    assert "\n" not in str(info.value)
