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
reached article's total into its paragraphs; when only some paragraphs'
scores are read (``rank_of``'s candidates), each of those gets its own
article's total and no other paragraph does. A term's ordinals and
contributions are computed on its first use and cached on the index
(``InvertedIndex.impacts``), so build and load pay nothing for terms no query
uses. ``_impacts`` is the one place where both formulas are written. The
lists add a paragraph's contributions in query-term order from 0.0, and then
its article's total, summed the same way. Since 0.0 + c == c and
p + 0.0 == p, every score equals the paragraph part plus the article part,
each summed left to right over the query, bit for bit; the brute-force
scorer in ``tests/conftest.py`` computes exactly that from its own
statistics and is the reference. (Merged per-span sums would reassociate the
additions and break that equality.) Contributions are positive, so a
paragraph the query reaches scores above 0.0 and any other scores exactly
0.0; the reached ordinals are read off the list with ``compress``, and
``_ranked`` sorts them by (-score, ordinal), the one ranking order.

A cached level is in ascending ordinal order and carries its largest
contribution. ``rank_of`` knows its threshold before it scans: the target's
own score t. It bounds query terms, most postings first, while their
paragraph maxima summed in query order from 0.0, plus their article maxima
summed the same way, stay strictly below t. Rounding is monotone in each
operand and p + 0.0 == p, so a paragraph that only bounded terms reach
scores at most that bound and can neither beat nor tie the target. Only
the paragraphs the other terms reach, directly or through their article,
are scored. A bounded term whose paragraph level is longer than
``_LOOKUP_FACTOR`` (16) times the candidates is looked up there by
bisection on its levels; a shorter one is added whole, which costs less.
Both add the same contributions to each candidate in the same query order,
and ``rank_of`` reads only the candidates, so ranks are exact either way.
When no term is bounded, every paragraph is a candidate and the score list
is counted as it is. (Top-k pruning of this kind learns its threshold
only as the scan ends, and common terms reach most articles, so
``search_topk`` scores every reached paragraph.)

A one-term query is ranked from a table instead. On a term's first use as
a whole query, ``rank_of`` scores every paragraph under it once, and
stores each paragraph's position in the ``_ranked`` order, by ordinal,
with the sentinel for paragraphs the term does not reach
(``InvertedIndex.rank_tables``). That position is 1 + the paragraphs above
the target + its ties with a lower id, which is the rank ``rank_of``
counts, so the table is exact. The oracle's importance estimates ask for
the same few one-term queries (a span of one word) many times over.

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
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import chain, compress, filterfalse, islice
from operator import countOf
from typing import Collection, Iterable, Sequence

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

# One level of a term's cached contributions: the ordinals of the postings in
# ascending order, their contributions in the same order, and the largest
# contribution (0.0 for an empty level).
_Level = tuple[tuple[int, ...], array, float]


@dataclass
class InvertedIndex:
    """Paragraph-level postings over an ingested corpus.

    The article level is not stored: an article's text is its paragraphs'
    tokens, so the scorer derives a term's article tfs and df from the
    term's paragraph postings on its first use.

    Immutable after build_index or load_index except two lazily filled
    caches, both left out of ``==`` and ``repr``:

    - ``impacts``: term -> (paragraph level, article level), each level the
      ascending ordinals and the contributions of the paragraphs or articles
      the term occurs in, and their maximum;
    - ``rank_tables``: term -> every paragraph's rank under the one-term
      query, by ordinal (an ``array("i")`` of ``n_para`` entries, so 4 bytes
      per paragraph for each term ever ranked alone; about 175 KB for the
      53 such terms of the seed-13 oracle benchmark).

    Neither holds a term the index lacks. Concurrent reads stay safe: each
    entry is an idempotent value, derived from the immutable postings,
    built whole and set with one dict assignment under the GIL, so a reader
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
    article_of: tuple[int, ...]                  # paragraph ordinal -> article ordinal
    ordinals: tuple[int, ...]                    # tuple(range(n_para)), shared ints
    impacts: dict[str, tuple[_Level, _Level]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    rank_tables: dict[str, array] = field(
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
    postings: defaultdict[str, dict[str, int]] = defaultdict(dict)
    doc_lengths: dict[str, int] = {}
    para_article: dict[str, str] = {}
    for pid, aid, counts in records:
        para_article[pid] = sys.intern(aid)
        doc_lengths[pid] = sum(counts.values())
        for term, tf in counts.items():
            postings[term][pid] = tf
    para_order = tuple(sorted(doc_lengths))
    article_order = tuple(sorted(set(para_article.values())))
    ordinals = tuple(range(len(para_order)))
    members: dict[str, list[int]] = {aid: [] for aid in article_order}
    for i, pid in zip(ordinals, para_order):
        members[para_article[pid]].append(i)
    article_of = [0] * len(para_order)
    for a, paragraphs in zip(ordinals, members.values()):
        for i in paragraphs:
            article_of[i] = a
    return InvertedIndex(
        postings=dict(postings),  # a plain dict, so a lookup never inserts
        doc_lengths=doc_lengths,
        avg_doc_length=sum(doc_lengths.values()) / len(doc_lengths),
        n_para=len(doc_lengths),
        n_article=len(article_order),
        para_article=para_article,
        para_order=para_order,
        article_order=article_order,
        article_members=tuple(map(tuple, members.values())),
        article_of=tuple(article_of),
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


@dataclass(frozen=True)
class SearchHit:
    paragraph_id: str
    score: float
    rank: int


def _ordinals(index: InvertedIndex, order: tuple[str, ...], ids) -> tuple[int, ...]:
    """The positions of ``ids`` in the sorted ``order``, as ints of ``index.ordinals``."""
    ordinals = index.ordinals
    return tuple([ordinals[bisect_left(order, key)] for key in ids])


# The levels of a term the index lacks.
_NO_LEVEL: _Level = ((), array("d"), 0.0)
_ABSENT = (_NO_LEVEL, _NO_LEVEL)

# rank_of looks a bounded term up by bisection only when its paragraph level
# is longer than this many times the candidates, and adds a shorter one whole.
# Replaying the oracle workload's rank evaluations (seed 13, with one-term
# queries read from rank tables and article totals added at the candidates
# only) is about as fast at any factor from 4 to 32, a little slower at 64
# and much slower at 256; 16 is on the flat part.
_LOOKUP_FACTOR = 16


def _impacts(index: InvertedIndex, term: str) -> tuple[_Level, _Level]:
    """The term's contribution to each paragraph and article it occurs in.

    The one place where the two formulas are written. A term's article tfs
    are sums over its paragraph postings, and its article df is the number
    of articles they reach. A clamped article idf of 0.0 adds nothing, so
    its article level is empty. Each level is in id order, which is
    ascending ordinal. Terms the index lacks are not stored, so the cache
    stays within the vocabulary.
    """
    entry = index.postings.get(term)
    if entry is None:
        return _ABSENT
    postings = sorted(entry.items())
    idf = idf_paragraph(index, term)
    lengths, avg = index.doc_lengths, index.avg_doc_length
    para = array("d", [
        idf * tf * (K1 + 1.0) / (tf + K1 * (1.0 - B + B * lengths[pid] / avg))
        for pid, tf in postings
    ])
    article_entry: dict[str, int] = {}
    for pid, tf in postings:
        aid = index.para_article[pid]
        article_entry[aid] = article_entry.get(aid, 0) + tf
    n = len(article_entry)
    idf = max(0.0, math.log((index.n_article - n + 0.5) / (n + 0.5)))
    articles = sorted(article_entry.items()) if idf else []
    article = array("d", [
        idf * idf * tf * (ARTICLE_K1 + 1.0) / (tf + ARTICLE_K1) for _, tf in articles
    ])
    levels = index.impacts[term] = (
        (_ordinals(index, index.para_order, [pid for pid, _ in postings]), para, max(para)),
        (_ordinals(index, index.article_order, [aid for aid, _ in articles]), article,
         max(article, default=0.0)),
    )
    return levels


def _accumulate(
    index: InvertedIndex,
    query: Query,
    bounded: Collection[str] = (),
    candidates: Sequence[int] = (),
) -> list[float]:
    """Combined score of every paragraph, by ordinal, a term at a time.

    Each term's cached contributions are added in query-term order, and
    0.0 + c == c and p + 0.0 == p, so every value is the paragraph part plus
    the article part, each summed left to right, bit for bit. The tie-breaks
    of search_topk and rank_of rely on that exact equality. Paragraphs the
    query does not reach score exactly 0.0.

    A ``bounded`` term adds only at the ``candidates`` (ascending ordinals)
    and at their articles, each contribution found by bisection on the
    term's level; other terms add everywhere. When candidates are given,
    each gets its own article's total, 0.0 if the query does not reach the
    article (p + 0.0 == p), and no other paragraph gets one. A candidate
    still receives the same contributions in the same order, so its value
    is its full score, bit for bit. Values at other ordinals are partial
    and mean nothing.
    """
    scores = [0.0] * index.n_para
    article_scores = [0.0] * index.n_article
    articles = sorted(set(map(index.article_of.__getitem__, candidates))) if bounded else ()
    cache = index.impacts
    for term in query:
        (para_ordinals, para, _), (article_ordinals, article, _) = (
            cache.get(term) or _impacts(index, term)
        )
        if term not in bounded:
            for i, c in zip(para_ordinals, para):
                scores[i] += c
            for a, c in zip(article_ordinals, article):
                article_scores[a] += c
            continue
        for totals, keys, values, at in (
            (scores, para_ordinals, para, candidates),
            (article_scores, article_ordinals, article, articles),
        ):
            j, n = 0, len(keys)
            for i in at:
                j = bisect_left(keys, i, j)
                if j == n:
                    break
                if keys[j] == i:
                    totals[i] += values[j]
    if candidates:
        article_of = index.article_of
        for i in candidates:
            scores[i] += article_scores[article_of[i]]
        return scores
    members = index.article_members
    # An article has at least one paragraph, so the ordinals cover every article.
    for a in compress(index.ordinals, article_scores):
        total = article_scores[a]
        for i in members[a]:
            scores[i] += total
    return scores


def _ranked(index: InvertedIndex, scores: list[float]) -> list[int]:
    """The ordinals that score above 0.0, by descending score, ties by ascending ordinal."""
    ranked = list(compress(index.ordinals, scores))
    # Stable, so tied ordinals stay ascending, which is ascending id.
    ranked.sort(key=scores.__getitem__, reverse=True)
    return ranked


def _rank_table(index: InvertedIndex, term: str) -> array:
    """Every paragraph's position in the ``_ranked`` order of the query
    ``(term,)``, by ordinal; the sentinel where the term does not reach."""
    table = array("i", [index.sentinel_rank]) * index.n_para
    for rank, i in enumerate(_ranked(index, _accumulate(index, (term,))), start=1):
        table[i] = rank
    return table


def search_topk(index: InvertedIndex, query: Query, k: int) -> list[SearchHit]:
    """The k highest-combined-score paragraphs, ties broken by ascending id.

    Returns min(k, N) hits; when fewer than k paragraphs score above zero,
    the remainder is filled with zero-score paragraphs in id order, so the
    result always matches a full brute-force sort of the corpus.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    scores = _accumulate(index, query)
    top = _ranked(index, scores)
    del top[k:]
    if len(top) < k and len(top) < index.n_para:
        taken = set(top)
        top += islice(filterfalse(taken.__contains__, index.ordinals), k - len(top))
    order = index.para_order
    return [SearchHit(order[i], scores[i], rank) for rank, i in enumerate(top, start=1)]


def rank_of(index: InvertedIndex, target_paragraph_id: str, query: Query) -> int:
    """1-based rank of the target under combined scoring.

    An empty query, or a target the query does not reach, yields the
    sentinel rank N_para + 1 ("not retrieved").

    A one-term query reads the target's rank off the term's rank table,
    built on the term's first use as a whole query; a term the index lacks
    gets the sentinel and no table.

    Only the paragraphs that could reach the target's score t are scored.
    Terms are bounded, most postings first, while the bound stays strictly
    below t: the bounded terms' paragraph maxima summed in query order from
    0.0, plus their article maxima summed the same way. A paragraph that no
    other term reaches, directly or through its article, gets at most those
    maxima at the same places of the same two sums, and p + 0.0 == p for
    the terms that miss it. Rounding is monotone in each operand, so its
    score is at most the bound: it neither beats nor ties the target. The
    rest are the candidates, the target among them (its score t is above
    the bound), and ``_accumulate`` scores them exactly. When no term can
    be bounded, every paragraph is a candidate.

    A bounded term is looked up at the candidates by bisection only when
    its paragraph level is longer than ``_LOOKUP_FACTOR`` times the
    candidates; a shorter level is added whole, at every ordinal it holds.
    Either way each candidate gets the same contributions in the same query
    order, bit for bit, and only the candidates' values are read, so the
    partial values elsewhere do not matter.
    """
    if target_paragraph_id not in index.doc_lengths:
        raise KeyError(f"unknown paragraph id {target_paragraph_id!r}")
    target = bisect_left(index.para_order, target_paragraph_id)
    if len(query) == 1:
        term = query[0]
        table = index.rank_tables.get(term)
        if table is None:
            if term not in index.postings:
                return index.sentinel_rank
            table = index.rank_tables[term] = _rank_table(index, term)
        return table[target]
    terms = dict.fromkeys(query)
    target_score = _accumulate(index, query, terms, (target,))[target]
    if target_score <= 0.0:
        return index.sentinel_rank
    # The target's pass cached every term the index holds.
    levels = {term: index.impacts.get(term, _ABSENT) for term in terms}
    bounded: set[str] = set()
    for term in sorted(terms, key=lambda t: len(levels[t][0][0]), reverse=True):
        para_bound = article_bound = 0.0
        for q in query:
            if q == term or q in bounded:
                (_, _, para_max), (_, _, article_max) = levels[q]
                para_bound += para_max
                article_bound += article_max
        if para_bound + article_bound >= target_score:
            break
        bounded.add(term)
    if not bounded:
        # Every paragraph is a candidate, so the list is counted as it is.
        values, below = _accumulate(index, query), target
    else:
        members = index.article_members
        reached: set[int] = set()
        for term in terms.keys() - bounded:
            (para_ordinals, _, _), (article_ordinals, _, _) = levels[term]
            reached.update(
                para_ordinals, chain.from_iterable(map(members.__getitem__, article_ordinals))
            )
        candidates = sorted(reached)
        lookup = len(candidates) * _LOOKUP_FACTOR
        bounded = {term for term in bounded if len(levels[term][0][0]) > lookup}
        scores = _accumulate(index, query, bounded, candidates)
        values = list(map(scores.__getitem__, candidates))
        below = bisect_left(candidates, target)
    # Ties count when their ordinal, and so their id, is below the target's.
    return (
        1 + sum(map(target_score.__lt__, values))
        + countOf(islice(values, below), target_score)
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
