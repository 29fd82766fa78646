"""Shared fixtures and independent test oracles.

The brute-force scorer here recomputes document statistics straight from
the corpus and evaluates every paragraph, so it is an independent check on
the inverted index's candidate generation and top-k selection.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter

import pytest

from iterqa.corpus import Corpus, ingest_corpus
from iterqa.oracle import UntrainableExample, build_oracle_query
from iterqa.search import build_index, rank_of
from iterqa.synth import make_chain_benchmark


# ---------------------------------------------------------------------------
# Brute-force scoring oracle (independent of iterqa.search internals)
# ---------------------------------------------------------------------------

class BruteForceScorer:
    """Full-corpus scorer with its own statistics, used as ground truth."""

    def __init__(self, corpus: Corpus):
        self.para_tf = {p.id: Counter(p.tokens) for p in corpus.paragraphs.values()}
        self.art_tf = {
            a.article_id: Counter(t for p in a.paragraphs for t in p.tokens)
            for a in corpus.articles.values()
        }
        self.para_article = {p.id: p.article_id for p in corpus.paragraphs.values()}
        self.para_len = {p.id: len(p.tokens) for p in corpus.paragraphs.values()}
        self.n_para = len(self.para_tf)
        self.n_article = len(self.art_tf)
        self.avg_len = sum(self.para_len.values()) / self.n_para
        self.df_para = Counter()
        for tf in self.para_tf.values():
            self.df_para.update(tf.keys())
        self.df_article = Counter()
        for tf in self.art_tf.values():
            self.df_article.update(tf.keys())

    def combined(self, pid: str, query) -> float:
        length = self.para_len[pid]
        para_part = 0.0
        for term in query:
            tf = self.para_tf[pid][term]
            if tf == 0:
                continue
            n = self.df_para[term]
            idf = math.log(1.0 + (self.n_para - n + 0.5) / (n + 0.5))
            para_part += idf * tf * (1.2 + 1.0) / (tf + 1.2 * (1.0 - 0.75 + 0.75 * length / self.avg_len))
        aid = self.para_article[pid]
        art_part = 0.0
        for term in query:
            tf = self.art_tf[aid][term]
            if tf == 0:
                continue
            n = self.df_article[term]
            idf = max(0.0, math.log((self.n_article - n + 0.5) / (n + 0.5)))
            art_part += idf * idf * tf * (1.2 + 1.0) / (tf + 1.2)
        return para_part + art_part

    def topk(self, query, k: int) -> list[tuple[str, float]]:
        scored = sorted(
            ((pid, self.combined(pid, query)) for pid in self.para_tf),
            key=lambda item: (-item[1], item[0]),
        )
        return scored[:k]

    def rank_of(self, target: str, query) -> int:
        if not query:
            return self.n_para + 1
        target_score = self.combined(target, query)
        if target_score <= 0.0:
            return self.n_para + 1
        rank = 1
        for pid in self.para_tf:
            if pid == target:
                continue
            score = self.combined(pid, query)
            if score > target_score or (score == target_score and pid < target):
                rank += 1
        return rank


def oracle_ranks(index, examples) -> list:
    """The oracle's achieved rank per (path tokens, target) pair; None where untrainable."""
    ranks = []
    for path_tokens, target in examples:
        try:
            ranks.append(build_oracle_query(index, path_tokens, target).achieved_rank)
        except UntrainableExample:
            ranks.append(None)
    return ranks


def exhaustive_best_rank(index, target, spans) -> int:
    """Best target rank over all 2^N - 1 non-empty span subsets, spans in path order."""
    best = index.sentinel_rank
    for mask in range(1, 1 << len(spans)):
        terms = [t for i, s in enumerate(spans) if (mask >> i) & 1 for t in s.tokens]
        best = min(best, rank_of(index, target.id, terms))
    return best


# ---------------------------------------------------------------------------
# Corpus and query generators
# ---------------------------------------------------------------------------

def zipf_vocab(size: int) -> tuple[list[str], list[float]]:
    words = [f"w{i:03d}" for i in range(size)]
    weights = [1.0 / (i + 1) for i in range(size)]
    return words, weights


def make_random_corpus(
    rng: random.Random,
    n_articles: int,
    max_paras: int = 5,
    vocab_size: int = 300,
) -> Corpus:
    words, weights = zipf_vocab(vocab_size)
    records = []
    for a in range(n_articles):
        for order in range(rng.randint(1, max_paras)):
            tokens = rng.choices(words, weights=weights, k=rng.randint(3, 40))
            records.append(
                {
                    "article_id": f"a{a:04d}",
                    "title": f"article {a}",
                    "order": order,
                    "text": " ".join(tokens),
                }
            )
    return ingest_corpus(json.dumps(r) for r in records)


def make_random_query(rng: random.Random, vocab_size: int = 300) -> list[str]:
    words, weights = zipf_vocab(vocab_size)
    query = rng.choices(words, weights=weights, k=rng.randint(1, 6))
    if rng.random() < 0.2:
        query.append("zzqabsent")  # term that never occurs in any corpus
    return query


class CountingRank:
    """rank_of wrapper that counts evaluations, for O(N) contract checks."""

    def __init__(self):
        from iterqa.search import rank_of

        self._rank_of = rank_of
        self.calls = 0

    def __call__(self, index, target_id, query):
        self.calls += 1
        return self._rank_of(index, target_id, query)


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------

TINY_CORPUS_RECORDS = [
    {"article_id": "gatsby", "title": "The Great Gatsby", "order": 0,
     "text": "The Great Gatsby is a 1925 novel set in the fictional town of West Egg on Long Island."},
    {"article_id": "gatsby", "title": "The Great Gatsby", "order": 1,
     "text": "The novel follows Jay Gatsby and the narrator Nick Carraway through the summer of 1922."},
    {"article_id": "daisy", "title": "Daisy Buchanan", "order": 0,
     "text": "Daisy Buchanan is a fictional character in The Great Gatsby, a 1925 novel."},
    {"article_id": "longisland", "title": "Long Island", "order": 0,
     "text": "Long Island comprises four counties in the state of New York."},
    {"article_id": "toad", "title": "Common Toad", "order": 0,
     "text": "The common toad is a frequent sight in gardens across Europe after warm rain."},
]


@pytest.fixture()
def tiny_corpus() -> Corpus:
    return ingest_corpus(json.dumps(r) for r in TINY_CORPUS_RECORDS)


@pytest.fixture()
def tiny_index(tiny_corpus):
    return build_index(tiny_corpus)


@pytest.fixture(scope="session")
def chain_benchmark():
    return make_chain_benchmark(n_per_hop=(100, 100, 100), n_distractors=150, seed=13)


@pytest.fixture(scope="session")
def chain_index(chain_benchmark):
    return build_index(chain_benchmark.corpus)


# Used by the model-manifest test for the "external:" loading convention.
def external_retriever_factory(example, index, corpus):
    def retriever(path):
        return ["external", "query"]

    return retriever
