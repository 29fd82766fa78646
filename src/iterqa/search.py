"""Inverted-index retrieval with combined paragraph and article scoring.

Paragraphs are scored with BM25 (k1=1.2, b=0.75, idf = ln(1 + (N-n+0.5)/(n+0.5))).
The parent article's full text is scored with a squared, clamped idf and no
length normalization:

    score(D, Q) = sum_i max(0, ln((N-n_i+0.5)/(n_i+0.5)))^2 * f_i*(1+k1)/(f_i+k1)

A paragraph's relevance to a query is the sum of both parts. Natural log
throughout; queries are multisets, so repeated terms contribute repeatedly.

``search_topk`` and ``rank_of`` score a whole query term at a time. A
paragraph's ordinal is its position in ``para_order``, so ascending ordinal
is ascending id; an article's ordinal is its position in ``article_order``.
Each query gets one dense float list indexed by paragraph ordinal and one by
article ordinal. Each term's contributions are added into them, then each
reached article's total into its paragraphs. A term's ordinals and
contributions are computed on its first use and cached on the index
(``InvertedIndex.impacts``), so build and load pay nothing for terms no query
uses. ``score_paragraph``, ``score_article`` and ``combined_score`` score one
paragraph at a time and are the reference: the cache holds their per-term
expressions, and the lists add them in the same query-term order from 0.0.
Since 0.0 + c == c and p + 0.0 == p, every accumulated score equals
``combined_score`` bit for bit. (Merged per-span sums would reassociate the
additions and break that equality.) Contributions are positive, so a
paragraph the query reaches scores above 0.0 and any other scores exactly
0.0; the reached ordinals are read off the list with ``compress``.

The index holds the paragraph level only. An article's text is its
paragraphs' tokens in order, so a term's article tfs (sums over the
article's paragraphs) and article df are derived from its paragraph
postings on the term's first use, and cached with its contributions.
build_index and load_index both feed (paragraph id, article id, term
counts) records into ``_make_index``. An index file is a JSON header
(magic, format version, the four constants, ``n_para``), then one line per
paragraph in id order, ``["<paragraph id>", "<article id>", {"<term>": tf, ...}]``
with sorted terms. No line refers to another, and a file with other than
``n_para`` paragraph lines is refused.
"""

from __future__ import annotations

import json
import math
import sys
from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from itertools import compress, filterfalse, islice
from operator import countOf
from typing import Iterable, Sequence

from .corpus import Corpus

# Scoring constants. Persisted indexes record them; loading an index built
# with different constants is an error.
K1 = 1.2
B = 0.75
ARTICLE_K1 = 1.2
ARTICLE_B = 0.0

INDEX_MAGIC = "iterqa-index"
INDEX_FORMAT_VERSION = 2
_CONSTANTS = {"k1": K1, "b": B, "article_k1": ARTICLE_K1, "article_b": ARTICLE_B}

# A query is an ordered multiset of normalized tokens (tokenize() output).
Query = Sequence[str]

# One level of a term's cached contributions: the ordinals of the postings
# and their contributions, both in the key order of the posting dict.
_Level = tuple[tuple[int, ...], array]


@dataclass
class InvertedIndex:
    """Paragraph-level postings over an ingested corpus.

    The article level is not stored: an article's text is its paragraphs'
    tokens, so the scorer derives a term's article tfs and df from the
    term's paragraph postings on its first use.

    Immutable after build_index or load_index except ``impacts``, the
    scorer's lazily filled cache: term -> (paragraph level, article level),
    each level the ordinals and contributions of the paragraphs or articles
    the term occurs in, left out of ``==`` and ``repr``. Concurrent reads
    stay safe: each entry is an idempotent value, derived from the immutable
    postings and set with one dict assignment under the GIL, so a reader
    never sees a partial entry.
    """

    postings: dict[str, dict[str, int]]          # term -> {paragraph_id: tf}
    doc_lengths: dict[str, int]                  # paragraph_id -> token count
    avg_doc_length: float
    n_para: int
    n_article: int
    para_article: dict[str, str]                 # paragraph_id -> parent article_id
    para_order: tuple[str, ...]                  # paragraph ids, ascending
    article_order: tuple[str, ...]               # article ids, ascending
    article_members: tuple[tuple[int, ...], ...]  # article ordinal -> paragraph ordinals
    ordinals: tuple[int, ...]                    # tuple(range(n_para)), shared ints
    impacts: dict[str, tuple[_Level, _Level]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def sentinel_rank(self) -> int:
        """Rank assigned when a query fails to retrieve a target at all."""
        return self.n_para + 1


class IndexFormatError(ValueError):
    """A persisted index file is unreadable or was built with other constants."""


def _make_index(records: Iterable[tuple[str, str, dict[str, int]]]) -> InvertedIndex:
    """Invert (paragraph id, article id, term counts) records and derive the rest.

    Each article id is interned, so the index holds one string per article.
    Ordinals are positions in the sorted ``para_order`` and ``article_order``.
    """
    postings: dict[str, dict[str, int]] = {}
    doc_lengths: dict[str, int] = {}
    para_article: dict[str, str] = {}
    for pid, aid, counts in records:
        para_article[pid] = sys.intern(aid)
        doc_lengths[pid] = sum(counts.values())
        for term, tf in counts.items():
            postings.setdefault(term, {})[pid] = tf
    para_order = tuple(sorted(doc_lengths))
    article_order = tuple(sorted(set(para_article.values())))
    ordinals = tuple(range(len(para_order)))
    members: dict[str, list[int]] = {aid: [] for aid in article_order}
    for i, pid in zip(ordinals, para_order):
        members[para_article[pid]].append(i)
    return InvertedIndex(
        postings=postings,
        doc_lengths=doc_lengths,
        avg_doc_length=sum(doc_lengths.values()) / len(doc_lengths),
        n_para=len(doc_lengths),
        n_article=len(article_order),
        para_article=para_article,
        para_order=para_order,
        article_order=article_order,
        article_members=tuple(map(tuple, members.values())),
        ordinals=ordinals,
    )


def build_index(corpus: Corpus) -> InvertedIndex:
    if not corpus.paragraphs:
        raise ValueError("cannot index an empty corpus")
    return _make_index(
        (para.id, para.article_id, Counter(para.tokens)) for para in corpus.paragraphs.values()
    )


def idf_paragraph(index: InvertedIndex, term: str) -> float:
    """Paragraph-level idf, ln(1 + (N-n+0.5)/(n+0.5)); always positive."""
    n = len(index.postings.get(term, ()))
    return math.log(1.0 + (index.n_para - n + 0.5) / (n + 0.5))


def idf_article_clamped(index: InvertedIndex, term: str) -> float:
    """Article-level idf, max(0, ln((N-n+0.5)/(n+0.5))), n the articles the term reaches."""
    n = len({index.para_article[pid] for pid in index.postings.get(term, ())})
    return max(0.0, math.log((index.n_article - n + 0.5) / (n + 0.5)))


def score_paragraph(index: InvertedIndex, paragraph_id: str, query: Query) -> float:
    """BM25 score of the paragraph's own text against the query."""
    length = index.doc_lengths.get(paragraph_id)
    if length is None:
        raise KeyError(f"unknown paragraph id {paragraph_id!r}")
    score = 0.0
    for term in query:
        tf = index.postings.get(term, {}).get(paragraph_id, 0)
        if tf == 0:
            continue
        norm = K1 * (1.0 - B + B * length / index.avg_doc_length)
        score += idf_paragraph(index, term) * tf * (K1 + 1.0) / (tf + norm)
    return score


def score_article(index: InvertedIndex, article_id: str, query: Query) -> float:
    """Squared-idf, length-unnormalized score of an article's text, its paragraphs' tokens."""
    members = [pid for pid, aid in index.para_article.items() if aid == article_id]
    if not members:
        raise KeyError(f"unknown article id {article_id!r}")
    score = 0.0
    for term in query:
        entry = index.postings.get(term, {})
        tf = sum(entry.get(pid, 0) for pid in members)
        if tf == 0:
            continue
        idf = idf_article_clamped(index, term)
        score += idf * idf * tf * (ARTICLE_K1 + 1.0) / (tf + ARTICLE_K1)
    return score


def combined_score(index: InvertedIndex, paragraph_id: str, query: Query) -> float:
    """Paragraph BM25 plus the parent article's squared-idf score."""
    para_part = score_paragraph(index, paragraph_id, query)
    return para_part + score_article(index, index.para_article[paragraph_id], query)


@dataclass(frozen=True)
class SearchHit:
    paragraph_id: str
    score: float
    rank: int


def _ordinals(index: InvertedIndex, order: tuple[str, ...], ids) -> tuple[int, ...]:
    """The positions of ``ids`` in the sorted ``order``, as ints of ``index.ordinals``."""
    ordinals = index.ordinals
    return tuple([ordinals[bisect_left(order, key)] for key in ids])


def _impacts(index: InvertedIndex, term: str) -> tuple[_Level, _Level]:
    """The term's contribution to each paragraph and article it occurs in.

    Written exactly as in score_paragraph and score_article. A clamped article
    idf of 0.0 adds nothing, so its article level is empty. Terms the index
    lacks are not stored, so the cache stays within the vocabulary.
    """
    entry = index.postings.get(term, {})
    idf = idf_paragraph(index, term)
    lengths, avg = index.doc_lengths, index.avg_doc_length
    para = array("d", [
        idf * tf * (K1 + 1.0) / (tf + K1 * (1.0 - B + B * lengths[pid] / avg))
        for pid, tf in entry.items()
    ])
    idf = idf_article_clamped(index, term)
    article_entry: dict[str, int] = {}
    if idf:
        for pid, tf in entry.items():
            aid = index.para_article[pid]
            article_entry[aid] = article_entry.get(aid, 0) + tf
    article = array("d", [
        idf * idf * tf * (ARTICLE_K1 + 1.0) / (tf + ARTICLE_K1) for tf in article_entry.values()
    ])
    levels = (
        (_ordinals(index, index.para_order, entry), para),
        (_ordinals(index, index.article_order, article_entry), article),
    )
    if entry:
        index.impacts[term] = levels
    return levels


def _accumulate(index: InvertedIndex, query: Query) -> list[float]:
    """Combined score of every paragraph, by ordinal, a term at a time.

    Each term's cached contributions are added in query-term order, and
    0.0 + c == c and p + 0.0 == p, so every value equals combined_score bit
    for bit. The tie-breaks of search_topk and rank_of rely on that exact
    equality. Paragraphs the query does not reach score exactly 0.0.
    """
    scores = [0.0] * index.n_para
    article_scores = [0.0] * index.n_article
    cache = index.impacts
    for term in query:
        (para_ordinals, para), (article_ordinals, article) = (
            cache.get(term) or _impacts(index, term)
        )
        for i, c in zip(para_ordinals, para):
            scores[i] += c
        for a, c in zip(article_ordinals, article):
            article_scores[a] += c
    members = index.article_members
    # An article has at least one paragraph, so the ordinals cover every article.
    for a in compress(index.ordinals, article_scores):
        total = article_scores[a]
        for i in members[a]:
            scores[i] += total
    return scores


def search_topk(index: InvertedIndex, query: Query, k: int) -> list[SearchHit]:
    """The k highest-combined-score paragraphs, ties broken by ascending id.

    Returns min(k, N) hits; when fewer than k paragraphs score above zero,
    the remainder is filled with zero-score paragraphs in id order, so the
    result always matches a full brute-force sort of the corpus.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    scores = _accumulate(index, query)
    ordinals = index.ordinals
    top = list(compress(ordinals, scores))
    # Stable, so tied ordinals stay ascending, which is ascending id.
    top.sort(key=scores.__getitem__, reverse=True)
    del top[k:]
    if len(top) < k and len(top) < index.n_para:
        taken = set(top)
        top += islice(filterfalse(taken.__contains__, ordinals), k - len(top))
    order = index.para_order
    return [SearchHit(order[i], scores[i], rank) for rank, i in enumerate(top, start=1)]


def rank_of(index: InvertedIndex, target_paragraph_id: str, query: Query) -> int:
    """1-based rank of the target under combined scoring.

    An empty query, or a target the query does not reach, yields the
    sentinel rank N_para + 1 ("not retrieved").
    """
    if target_paragraph_id not in index.doc_lengths:
        raise KeyError(f"unknown paragraph id {target_paragraph_id!r}")
    target = bisect_left(index.para_order, target_paragraph_id)
    scores = _accumulate(index, query)
    target_score = scores[target]
    if target_score <= 0.0:
        return index.sentinel_rank
    # Ties count when their ordinal, and so their id, is below the target's.
    return (
        1 + sum(map(target_score.__lt__, scores))
        + countOf(islice(scores, target), target_score)
    )


def save_index(index: InvertedIndex, path) -> None:
    """Write the index as line-delimited JSON: a header, then one line per paragraph."""
    # Flat [term, tf, ...] lists in sorted term order, not a dict per
    # paragraph, keep a save's peak memory low; a line's dict lives only
    # while the line is written.
    flat: dict[str, list] = {pid: [] for pid in index.para_order}
    for term in sorted(index.postings):
        for pid, tf in index.postings[term].items():
            flat[pid] += (term, tf)
    header = {"magic": INDEX_MAGIC, "format_version": INDEX_FORMAT_VERSION, **_CONSTANTS,
              "n_para": index.n_para}
    with open(path, "w", encoding="utf-8") as out:
        out.write(json.dumps(header) + "\n")
        for pid in index.para_order:
            items = flat.pop(pid)
            record = [pid, index.para_article[pid], dict(zip(items[::2], items[1::2]))]
            out.write(json.dumps(record) + "\n")


def load_index(path) -> InvertedIndex:
    """Load a persisted index, refusing headers with mismatched constants."""
    with open(path, encoding="utf-8") as handle:
        try:
            header = json.loads(handle.readline())
        except json.JSONDecodeError as exc:
            raise IndexFormatError(f"unreadable index header: {exc.msg}") from exc
        if not isinstance(header, dict) or header.get("magic") != INDEX_MAGIC:
            raise IndexFormatError("not an index file (bad magic)")
        if header.get("format_version") != INDEX_FORMAT_VERSION:
            raise IndexFormatError(f"unsupported index format version {header.get('format_version')!r}")
        for name, value in _CONSTANTS.items():
            if header.get(name) != value:
                raise IndexFormatError(
                    f"index was built with {name}={header.get(name)!r}, this build uses {value!r}"
                )
        n_para = header.get("n_para")
        if type(n_para) is not int or n_para < 1:
            raise IndexFormatError(f"index header has n_para={n_para!r}, not an integer >= 1")
        return _make_index(_records(handle, n_para))


def _records(handle, n_para: int):
    """The paragraph lines of an index file as (id, article id, term counts), checked."""
    seen: set[str] = set()
    for line_no, line in enumerate(handle, start=2):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise IndexFormatError(f"line {line_no}: unreadable record ({exc.msg})") from None
        if type(record) is not list or list(map(type, record)) != [str, str, dict]:
            raise IndexFormatError(
                f"line {line_no}: record is not [paragraph id, article id, {{term: tf}}]"
            )
        pid, aid, counts = record
        if pid in seen:
            raise IndexFormatError(f"line {line_no}: paragraph {pid!r} appears twice")
        seen.add(pid)
        tfs = counts.values()
        if tfs and (set(map(type, tfs)) != {int} or min(tfs) < 1):
            term, tf = next((t, f) for t, f in counts.items() if type(f) is not int or f < 1)
            raise IndexFormatError(
                f"line {line_no}: term {term!r} has a term frequency that is not "
                f"an integer >= 1 ({tf!r})"
            )
        yield pid, aid, counts
    if len(seen) != n_para:
        raise IndexFormatError(
            f"index file has {len(seen)} paragraph records, not the {n_para} its header names"
        )
