"""Shared fixtures and independent test oracles.

The brute-force scorer here is the reference for the package's scoring. It
recomputes document statistics straight from the corpus and evaluates every
paragraph, so it is an independent check on the index, on the per-term
contributions of ``iterqa.search._impacts`` (the one place the package
writes the formulas) and on candidate generation and top-k selection.

The reference loop is the same kind of check on ``iterqa.pipeline``: the
retrieve-read-rerank loop and its stop rules written from the README and the
module docstrings, one setting at a time, sharing nothing with the pipeline
but the model roles.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import replace

import pytest

from iterqa.corpus import Corpus, ingest_corpus
from iterqa.metrics import exact_match, unigram_f1
from iterqa.models import (
    NO, NOANSWER, SPAN, YES, GoldReader, LexicalRetriever, OracleRetriever, ReaderOutput,
    serialize_path,
)
from iterqa.oracle import UntrainableExample, build_oracle_query
from iterqa.pipeline import QuestionExample, ReasoningPath
from iterqa.search import _impacts, build_index, rank_of
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

    def paragraph(self, pid: str, query) -> float:
        """BM25 score of the paragraph's own text."""
        length = self.para_len[pid]
        score = 0.0
        for term in query:
            tf = self.para_tf[pid][term]
            if tf == 0:
                continue
            n = self.df_para[term]
            idf = math.log(1.0 + (self.n_para - n + 0.5) / (n + 0.5))
            score += idf * tf * (1.2 + 1.0) / (tf + 1.2 * (1.0 - 0.75 + 0.75 * length / self.avg_len))
        return score

    def article(self, aid: str, query) -> float:
        """Squared clamped-idf score of the article's full text, no length normalization."""
        score = 0.0
        for term in query:
            tf = self.art_tf[aid][term]
            if tf == 0:
                continue
            n = self.df_article[term]
            idf = max(0.0, math.log((self.n_article - n + 0.5) / (n + 0.5)))
            score += idf * idf * tf * (1.2 + 1.0) / (tf + 1.2)
        return score

    def combined(self, pid: str, query) -> float:
        return self.paragraph(pid, query) + self.article(self.para_article[pid], query)

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


def article_level(index, term) -> dict[str, float]:
    """The package's article-level contributions of ``term``, as {article id: contribution}."""
    ordinals, contributions, _ = _impacts(index, term)[1]
    level = {index.article_order[a]: c for a, c in zip(ordinals, contributions)}
    assert len(level) == len(ordinals)
    return level


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
# Reference loop (independent of iterqa.pipeline)
# ---------------------------------------------------------------------------

CANDIDATES_PER_STEP = 5  # "the first 5 hits not on the path"


def _ids(paragraphs) -> tuple[str, ...]:
    return tuple(p.id for p in paragraphs)


def _reference_answer(output, question: str, paragraphs) -> tuple:
    """(kind, text, answerability, path ids) of one reader output.

    The kind is the largest positive class logit, ties going to SPAN, then
    YES, then NO. A span's text is its tokens of "[CLS] question [SEP]
    title1 [CONT] para1 [SEP] ...", each part split on whitespace.
    """
    logits = output.class_logits
    kind = SPAN
    for other in (YES, NO):
        if logits[other] > logits[kind]:
            kind = other
    if kind != SPAN:
        return kind.lower(), kind.lower(), logits[kind] - logits[NOANSWER], _ids(paragraphs)
    tokens = ["[CLS]", *question.split(), "[SEP]"]
    for para in paragraphs:
        tokens += [*para.title.split(), "[CONT]", *para.text.split(), "[SEP]"]
    start, end = output.best_span
    answerability = (
        logits[SPAN] - logits[NOANSWER]
        + (output.start_logits[start] - output.start_logits[0]) / 2.0
        + (output.end_logits[end] - output.end_logits[0]) / 2.0
    )
    return "span", " ".join(tokens[start : end + 1]), answerability, _ids(paragraphs)


def _argmax(scored):
    """The item of the highest score in (item id, score, item) triples, the smallest id on a tie."""
    best = None
    for item_id, score, item in scored:
        if best is None or score > best[1] or (score == best[1] and item_id < best[0]):
            best = (item_id, score, item)
    return best[2]


def reference_run(question: str, corpus: Corpus, models, config, topk) -> tuple:
    """One question through the loop at ``config``, as plain tuples.

    ``topk(query, d)`` lists the top d paragraphs as (id, score) by (-score,
    id). Returns (status, answer, final path ids, steps). A step is (query,
    hits as (id, score), chosen id, candidate answerabilities, best
    candidate, exhausted reason); an answer is (kind, text, answerability,
    path ids). A step that exhausts the run records the hits its search found.
    """
    steps = []
    paragraphs: tuple = ()
    while len(paragraphs) < config.k_cap:
        path = ReasoningPath(question, paragraphs)
        query = tuple(models.retriever(path))
        if not query:
            steps.append((query, (), None, (), None, "empty query"))
            break
        hits = tuple((pid, score) for pid, score in topk(list(query), config.docs_per_step)
                     if score > 0.0)
        if not hits:
            steps.append((query, (), None, (), None, "no results"))
            break
        on_path = set(_ids(paragraphs))
        candidates = [corpus.paragraphs[pid] for pid, _ in hits if pid not in on_path]
        candidates = candidates[:CANDIDATES_PER_STEP]
        if not candidates:
            steps.append((query, hits, None, (), None, "no new candidates"))
            break
        read = []
        for para in candidates:
            extended = paragraphs + (para,)
            output = models.reader(ReasoningPath(question, extended))
            read.append((para.id, _reference_answer(output, question, extended)))
        answerabilities = tuple((pid, answer[2]) for pid, answer in read)
        best = _argmax((pid, answer[2], answer) for pid, answer in read)
        step_no = len(paragraphs) + 1
        if config.fixed_steps is not None:
            stop = step_no == config.fixed_steps
        else:
            stop = best[2] > config.stop_threshold
        if stop:
            steps.append((query, hits, None, answerabilities, best, None))
            return "answered", best, best[3], tuple(steps)
        chosen = _argmax((para.id, models.reranker(path, para), para) for para in candidates)
        steps.append((query, hits, chosen.id, answerabilities, best, None))
        paragraphs += (chosen,)
    return "exhausted", None, _ids(paragraphs), tuple(steps)


def reference_prediction(record: tuple) -> str:
    """The answer's text, else the most answerable best candidate's (the earliest of equals)."""
    status, answer, _, steps = record
    if answer is not None:
        return answer[1]
    best = None
    for step in steps:
        if step[4] is not None and (best is None or step[4][2] > best[2]):
            best = step[4]
    return best[1] if best is not None else ""


def reference_bench(examples, corpus: Corpus, factory, config, topk) -> tuple:
    """((EM, F1), rows) of one setting, a question's own fixed_steps overriding ``config``'s.

    A row is (qid, em, f1, steps used, paragraphs retrieved, status,
    prediction), em and f1 None for a question without answers; EM and F1
    are left-to-right means over the scored rows, 0.0 each when none is.
    """
    rows = []
    for example in examples:
        setting = config
        if example.fixed_steps is not None:
            setting = replace(config, fixed_steps=example.fixed_steps)
        record = reference_run(example.question, corpus, factory(example), setting, topk)
        prediction = reference_prediction(record)
        em = f1 = None
        if example.answers:
            em = float(exact_match(prediction, example.answers))
            f1 = unigram_f1(prediction, example.answers)
        retrieved = sum(len(step[1]) for step in record[3])
        rows.append((example.qid, em, f1, len(record[2]), retrieved, record[0], prediction))
    scored = [row for row in rows if row[1] is not None]
    em = f1 = 0.0
    for row in scored:
        em += row[1]
        f1 += row[2]
    return ((em / len(scored), f1 / len(scored)) if scored else (0.0, 0.0)), rows


def run_record(result) -> tuple:
    """A pipeline RunResult in reference_run's form."""
    def answer(record):
        if record is None:
            return None
        return record.kind, record.text, record.answerability, record.path_snapshot

    steps = tuple(
        (s.query_used, tuple((h.paragraph_id, h.score) for h in s.retrieved),
         s.chosen_paragraph, s.candidate_answerabilities, answer(s.best_candidate),
         s.exhausted_reason)
        for s in result.steps
    )
    return result.status, answer(result.answer), result.final_path.step_ids(), steps


class TieReader:
    """A pure reader whose logits come from a few values, seeded by the path, so scores tie."""

    def __init__(self, seed: int):
        self.seed = seed

    def __call__(self, path) -> ReaderOutput:
        rng = random.Random(f"{self.seed}|{path.question}|{'|'.join(path.step_ids())}")
        serialized = serialize_path(path)
        n = len(serialized.tokens)
        logits = {c: rng.choice((-1.0, 0.0, 1.0)) for c in (SPAN, YES, NO, NOANSWER)}
        start = tuple(rng.choice((0.0, 1.0)) for _ in range(n))
        end = tuple(rng.choice((0.0, 1.0)) for _ in range(n))
        span = (0, 0)
        ranges = [(lo, hi) for lo, hi in serialized.paragraphs if lo < hi]
        if ranges and rng.random() < 0.8:
            lo, hi = rng.choice(ranges)
            first = rng.randrange(lo, hi)
            span = (first, rng.randrange(first, min(hi, first + 3)))
        return ReaderOutput(logits, start, end, span)


class TieReranker:
    """A pure reranker that scores from three values, seeded by the path and the candidate."""

    def __init__(self, seed: int):
        self.seed = seed

    def __call__(self, path, candidate) -> float:
        ids = "|".join(path.step_ids())
        return random.Random(f"{self.seed}|{path.question}|{ids}|{candidate.id}").choice(
            (0.0, 1.0, 2.0)
        )


def random_chain_example(rng: random.Random, corpus: Corpus, qid: str) -> QuestionExample:
    """A 1-3 paragraph chain: question words from the first paragraph, answer from the last."""
    gold = rng.sample(sorted(corpus.paragraphs), rng.randint(1, min(3, len(corpus.paragraphs))))
    words = corpus.paragraphs[gold[0]].text.split()
    question = " ".join(rng.sample(words, min(len(words), rng.randint(1, 4))))
    kind = rng.choice(("span", "span", "yes", "no"))
    answer = kind
    if kind == "span":
        last = corpus.paragraphs[gold[-1]].text.split()
        first = rng.randrange(len(last))
        answer = " ".join(last[first : first + rng.randint(1, 2)])
    return QuestionExample(
        qid=qid, question=question, answers=(answer,), gold_ids=tuple(gold), answer_kind=kind,
        fixed_steps=rng.choice((None, None, None, 1, 2, 3)),
    )


# ---------------------------------------------------------------------------
# Corpus and query generators
# ---------------------------------------------------------------------------

def oracle_retriever(index, corpus, gold_ids) -> OracleRetriever:
    """An OracleRetriever with the lexical fallback that the model factory gives it."""
    return OracleRetriever(index, corpus, gold_ids, LexicalRetriever(index))


def corpus_from(records) -> Corpus:
    """The corpus of ``records``, numbered from line 1 as in a file."""
    return ingest_corpus(enumerate(records, start=1))


def zipf_vocab(size: int) -> tuple[list[str], list[float]]:
    words = [f"w{i:03d}" for i in range(size)]
    weights = [1.0 / (i + 1) for i in range(size)]
    return words, weights


def make_random_corpus(
    rng: random.Random,
    n_articles: int,
    max_paras: int = 5,
    vocab_size: int = 300,
    shuffled: bool = False,
) -> Corpus:
    """A random corpus, ingested in id order or, if ``shuffled``, in a random order."""
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
    if shuffled:
        rng.shuffle(records)
    return corpus_from(records)


def make_random_query(rng: random.Random, vocab_size: int = 300) -> list[str]:
    words, weights = zipf_vocab(vocab_size)
    query = rng.choices(words, weights=weights, k=rng.randint(1, 6))
    if rng.random() < 0.2:
        query.append("zzqabsent")  # term that never occurs in any corpus
    return query


class CountingRank:
    """rank_of wrapper that counts evaluations and records their queries,
    for O(N) contract checks."""

    def __init__(self):
        from iterqa.search import rank_of

        self._rank_of = rank_of
        self.calls = 0
        self.queries: list[tuple[str, ...]] = []

    def __call__(self, index, target_id, query):
        self.calls += 1
        self.queries.append(tuple(query))
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
    return corpus_from(TINY_CORPUS_RECORDS)


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


# Roles that break their output contract, for the CLI's refusal tests.
def string_retriever_factory(example, index, corpus):
    def retriever(path):
        return "where is the secret"

    return retriever


def nan_reranker_factory(example, index, corpus):
    def reranker(path, candidate):
        return math.nan

    return reranker


def nan_class_reader_factory(example, index, corpus):
    gold = GoldReader(example.answers, example.gold_ids, example.answer_kind)

    def reader(path):
        output = gold(path)
        return replace(output, class_logits={**output.class_logits, SPAN: math.nan})

    return reader


# External constructors of every signature, for the manifest's signature check.
def two_argument_factory(example, index):
    return external_retriever_factory(example, index, None)


def keyword_factory(example, index, corpus, *, model):
    return external_retriever_factory(example, index, corpus)


class ExternalRetriever:
    def __init__(self, example, index, corpus):
        pass

    def __call__(self, path):
        return ["external", "query"]


def varargs_factory(*args):
    return external_retriever_factory(*args)


def defaults_factory(example, index, corpus=None, extra=None):
    return external_retriever_factory(example, index, corpus)


def int_role_factory(example, index, corpus):
    return 42


def far_span_reader_factory(example, index, corpus):
    gold = GoldReader(example.answers, example.gold_ids, example.answer_kind)

    def reader(path):
        return replace(gold(path), best_span=(10**6, 10**6))

    return reader
