"""Inverted-index retrieval with combined paragraph and article scoring.

Paragraphs are scored with BM25 (k1=1.2, b=0.75, idf = ln(1 + (N-n+0.5)/(n+0.5))).
The parent article's full text is scored with a squared, clamped idf and no
length normalization:

    score(D, Q) = sum_i max(0, ln((N-n_i+0.5)/(n_i+0.5)))^2 * f_i*(1+k1)/(f_i+k1)

A paragraph's relevance to a query is the sum of both parts. Natural log
throughout; queries are multisets, so repeated terms contribute repeatedly.

Tie order. A paragraph's ordinal is its position in ``para_order``, so
ascending ordinal is ascending id; an article's is its position in
``article_order``. Every ranking is by (-score, ordinal), so ties go to the
lower id; a stable sort by descending score keeps it.

Exactness. ``_impacts``, the one place where both formulas are written,
computes a term's contributions on its first use and caches them
(``impacts``). Every scorer adds a paragraph's contributions in query-term order
from 0.0, and its article's the same way, then the two. Since 0.0 + c == c
and p + 0.0 == p, every score is the paragraph part plus the article part,
each summed left to right over the query, bit for bit, whichever terms or
paragraphs a scorer skips. The brute-force scorer in ``tests/conftest.py``
computes exactly that and is the reference, and the tie order relies on
it. (Merged per-span sums would reassociate the additions.) Contributions
are positive, so a paragraph the query reaches scores above 0.0 and any
other exactly 0.0. A term that reaches a paragraph reaches its article,
unless the term's article idf clamps to 0.0; so for a query with no such
term, the paragraphs it reaches are exactly the members of the articles it
reaches, and only a query with one must scan every paragraph's score.

Bounds. ``search_topk`` scores every reached paragraph, but for a query
with a term in every paragraph only those its rarer terms reach
(``_bounded_top``); ``rank_of`` scores only the paragraphs that can compete
with its target. Both skip a paragraph only where its ``_bound`` is below
the score to beat.

Rank tables. The second time ``rank_of`` would score a query's candidates
whole, it scores every paragraph once and stores each one's position in
the ranking, by ordinal, with the sentinel where the query does not reach
(``rank_tables``, keyed by the ordered query, repeats kept). That
position is 1 + the paragraphs above + the ties with a lower id, the
rank ``rank_of`` counts, so a table is exact and no rank depends on what
the cache holds. The oracle asks for the same queries (template phrases,
one-word spans) against many targets.

Rank-table budget. The tables and the queries scored whole once
(``sighted``) share ``rank_budget``, 16 bytes per posting, of which the
sighted keys may take an eighth. A table costs 4 bytes per paragraph and
is never evicted (see ``_admit``). That is 203 KB, or 54 tables, at the
12,706 postings of the seed-13 oracle benchmark, and 1.08 MB, or 48
tables, at 4,867 paragraphs.

Storage. The index holds the paragraph level only, and each paragraph's
article ordinal (``article_of``). An article's text is its paragraphs'
tokens in order, so a term's article tfs and df derive from its paragraph
postings. An index file is a JSON header (magic, format version, the four
constants, ``n_para``), then one line per paragraph in id order,
``["<paragraph id>", "<article id>", {"<term>": tf, ...}]`` with sorted terms;
no line refers to another. Blank lines are skipped, and a file with other
than ``n_para`` paragraph lines is refused.
"""

from __future__ import annotations

import json
import math
import sys
import threading
from array import array
from bisect import bisect_left
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, compress, count, filterfalse, islice
from operator import countOf
from typing import Iterable, Iterator, NamedTuple, Sequence

from .corpus import Corpus, read_json_lines

# Scoring constants, recorded in persisted indexes (see ``load_index``).
K1 = 1.2
B = 0.75
ARTICLE_K1 = 1.2
ARTICLE_B = 0.0

INDEX_MAGIC = "iterqa-index"
INDEX_FORMAT_VERSION = 2
_CONSTANTS = {"k1": K1, "b": B, "article_k1": ARTICLE_K1, "article_b": ARTICLE_B}

# The rank-table budget (see the module docstring).
_RANK_BYTES_PER_POSTING = 16
_SIGHTED_SHARE = 8
_ADMISSION = threading.Lock()  # held while a query's admission is decided

# A query is an ordered multiset of normalized tokens (tokenize() output).
Query = Sequence[str]

# One level of a term's cached contributions: the ordinals of the postings in
# ascending order, their contributions in the same order, and the largest
# contribution (0.0 for an empty level).
_Level = tuple[tuple[int, ...], array, float]
_Levels = Sequence[tuple[_Level, _Level]]  # a query's (paragraph, article) levels, in order


@dataclass
class InvertedIndex:
    """Paragraph-level postings over an ingested corpus (see the module docstring).

    Immutable after build_index or load_index except the lazily filled
    caches ``idfs`` (see ``idf_paragraph``), ``impacts``, ``rank_tables``
    and ``sighted`` (see the module docstring), left out of ``==`` and
    ``repr``. ``idfs`` and ``impacts`` hold no term the index lacks, and
    the others no query that reaches no paragraph.

    Concurrent reads stay safe: each ``idfs``, ``impacts`` and
    ``rank_tables`` entry is an idempotent value, derived from the
    immutable postings, built whole and set with one dict assignment under
    the GIL, so a reader never sees a partial entry. ``sighted`` only
    decides when a table is built, and changes under ``_admit``'s lock.
    """

    postings: dict[str, dict[str, int]]          # term -> {paragraph_id: tf}
    doc_lengths: dict[str, int]                  # paragraph_id -> token count
    avg_doc_length: float
    n_para: int
    n_article: int
    para_order: tuple[str, ...]                  # paragraph ids, ascending
    article_order: tuple[str, ...]               # article ids, ascending
    article_members: tuple[tuple[int, ...], ...]  # article ordinal -> paragraph ordinals
    article_of: tuple[int, ...]                  # paragraph ordinal -> article ordinal
    ordinals: tuple[int, ...]                    # tuple(range(n_para)), shared ints
    rank_budget: int                             # bytes for rank tables and sighted keys
    idfs: dict[str, float] = field(default_factory=dict, init=False, repr=False, compare=False)
    impacts: dict[str, tuple[_Level, _Level]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    rank_tables: dict[tuple[str, ...], array] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    sighted: set[tuple[str, ...]] = field(
        default_factory=set, init=False, repr=False, compare=False
    )

    @property
    def sentinel_rank(self) -> int:
        """Rank assigned when a query fails to retrieve a target at all."""
        return self.n_para + 1


class IndexFormatError(ValueError):
    """A persisted index file is unreadable or was built with other constants."""


def _make_index(records: Iterable[tuple[str, str, dict[str, int]]]) -> InvertedIndex:
    """Invert (paragraph id, article id, term counts) records and derive the rest."""
    postings: defaultdict[str, dict[str, int]] = defaultdict(dict)
    doc_lengths: dict[str, int] = {}
    article_ids: dict[str, str] = {}  # paragraph id -> article id
    for pid, aid, counts in records:
        article_ids[pid] = aid
        doc_lengths[pid] = sum(counts.values())
        for term, tf in counts.items():
            postings[term][pid] = tf
    para_order = tuple(sorted(doc_lengths))
    article_order = tuple(sorted(set(article_ids.values())))
    ordinals = tuple(range(len(para_order)))
    article_ordinal = dict(zip(article_order, ordinals))
    article_of = tuple([article_ordinal[article_ids[pid]] for pid in para_order])
    members: list[list[int]] = [[] for _ in article_order]
    for i, a in zip(ordinals, article_of):
        members[a].append(i)
    return InvertedIndex(
        postings=dict(postings),  # a plain dict, so a lookup never inserts
        doc_lengths=doc_lengths,
        avg_doc_length=sum(doc_lengths.values()) / len(doc_lengths),
        n_para=len(doc_lengths),
        n_article=len(article_order),
        para_order=para_order,
        article_order=article_order,
        article_members=tuple(map(tuple, members)),
        article_of=article_of,
        ordinals=ordinals,
        rank_budget=_RANK_BYTES_PER_POSTING * sum(map(len, postings.values())),
    )


def build_index(corpus: Corpus) -> InvertedIndex:
    if not corpus.paragraphs:
        raise ValueError("cannot index an empty corpus")
    return _make_index(
        (para.id, para.article_id, Counter(para.tokens)) for para in corpus.paragraphs.values()
    )


def idf_paragraph(index: InvertedIndex, term: str) -> float:
    """Paragraph-level idf, ln(1 + (N-n+0.5)/(n+0.5)); always positive.
    Kept in ``index.idfs`` for a term the index has."""
    idf = index.idfs.get(term)
    if idf is None:
        n = len(index.postings.get(term, ()))
        idf = math.log(1.0 + (index.n_para - n + 0.5) / (n + 0.5))
        if n:
            index.idfs[term] = idf
    return idf


class SearchHit(NamedTuple):
    """An immutable search result; as a named tuple it equals its plain tuple."""

    paragraph_id: str
    score: float


_hit = partial(tuple.__new__, SearchHit)  # SearchHit((id, score)) without its Python-level __new__

# The levels of a term the index lacks.
_NO_LEVEL: _Level = ((), array("d"), 0.0)
_ABSENT = (_NO_LEVEL, _NO_LEVEL)


def _impacts(index: InvertedIndex, term: str) -> tuple[_Level, _Level]:
    """The term's contribution to each paragraph and article it occurs in (see
    the module docstring); a clamped article idf of 0.0 leaves the article level empty."""
    entry = index.postings.get(term)
    if entry is None:
        return _ABSENT
    postings = sorted(entry.items())
    ordinals, order = index.ordinals, index.para_order
    para_ordinals = tuple([ordinals[bisect_left(order, pid)] for pid, _ in postings])
    idf = idf_paragraph(index, term)
    lengths, avg = index.doc_lengths, index.avg_doc_length
    para = array("d", [
        idf * tf * (K1 + 1.0) / (tf + K1 * (1.0 - B + B * lengths[pid] / avg))
        for pid, tf in postings
    ])
    article_tfs: Counter[int] = Counter()
    for i, (_, tf) in zip(para_ordinals, postings):
        article_tfs[index.article_of[i]] += tf
    n = len(article_tfs)
    idf = max(0.0, math.log((index.n_article - n + 0.5) / (n + 0.5)))
    articles = sorted(article_tfs.items()) if idf else []  # article ordinal order is id order
    article = array("d", [
        idf * idf * tf * (ARTICLE_K1 + 1.0) / (tf + ARTICLE_K1) for _, tf in articles
    ])
    levels = index.impacts[term] = (
        (para_ordinals, para, max(para)),
        (tuple([a for a, _ in articles]), article, max(article, default=0.0)),
    )
    return levels


def _levels(index: InvertedIndex, query: Query) -> list[tuple[_Level, _Level]]:
    """Each query term's (paragraph, article) levels, in query order."""
    cache = index.impacts
    return [cache.get(term) or _impacts(index, term) for term in query]


def _accumulate(index: InvertedIndex, levels: _Levels, candidates: Sequence[int]) -> list[float]:
    """Combined score of each of the ``candidates``, at its ordinal, under
    the query of these ``levels``, a term at a time, exact (see the module
    docstring); the other values are partial. A term in every paragraph,
    which holds ordinal i's contribution at position i, is added at the
    candidates alone, and only they get their article's total.
    """
    scores = [0.0] * index.n_para
    article_scores = [0.0] * index.n_article
    for (para_ordinals, para, _), (article_ordinals, article, _) in levels:
        if len(para) == index.n_para:  # ordinal i's entry is para[i]
            for i in candidates:
                scores[i] += para[i]
        else:
            for i, c in zip(para_ordinals, para):
                scores[i] += c
        for a, c in zip(article_ordinals, article):
            article_scores[a] += c
    article_of = index.article_of
    for i in candidates:
        scores[i] += article_scores[article_of[i]]
    return scores


def _ranking(index: InvertedIndex, levels: _Levels) -> tuple[list[int], list[float]]:
    """The ordinals that score above 0.0 under the query of these
    ``levels``, in ranking order, and every paragraph's score by ordinal,
    summed as ``_accumulate`` sums them. The ordinals are the reached
    articles' members, listed as the article totals are spread, unless a
    query term's article idf clamps to 0.0 (see the module docstring)."""
    scores = [0.0] * index.n_para
    article_scores = [0.0] * index.n_article
    for (para_ordinals, para, _), (article_ordinals, article, _) in levels:
        for i, c in zip(para_ordinals, para):
            scores[i] += c
        for a, c in zip(article_ordinals, article):
            article_scores[a] += c
    reached: list[int] = []
    members = index.article_members
    # An article has at least one paragraph, so the ordinals cover every article.
    for a in compress(index.ordinals, article_scores):
        total = article_scores[a]
        reached += members[a]
        for i in members[a]:
            scores[i] += total
    if all(article for (_, para, _), (_, article, _) in levels if para):
        reached.sort()
    else:
        reached = list(compress(index.ordinals, scores))
    reached.sort(key=scores.__getitem__, reverse=True)
    return reached, scores


def _score_at(index: InvertedIndex, levels: _Levels, i: int) -> float:
    """Paragraph ``i``'s score under the query of these ``levels``, each term's
    contributions found by bisection and summed as ``_accumulate`` sums them."""
    a = index.article_of[i]
    para = article = 0.0
    for (para_ordinals, para_values, _), (article_ordinals, article_values, _) in levels:
        j = bisect_left(para_ordinals, i)
        if j < len(para_ordinals) and para_ordinals[j] == i:
            para += para_values[j]
        j = bisect_left(article_ordinals, a)
        if j < len(article_ordinals) and article_ordinals[j] == a:
            article += article_values[j]
    return para + article


def _lookups_cost_less(index: InvertedIndex, levels: _Levels, n_candidates: int) -> bool:
    """Whether ``_score_at`` at ``n_candidates`` paragraphs probes fewer level
    entries than ``_accumulate`` adds at most: a lookup bisects both levels
    of each query term, in at most ``n_para.bit_length()`` probes each."""
    probes = n_candidates * len(levels) * 2 * index.n_para.bit_length()
    return probes < sum(len(para) + len(article) for (para, _, _), (article, _, _) in levels)


def _rank_table(index: InvertedIndex, levels: _Levels) -> array:
    """The rank table of the query of these ``levels`` (see the module docstring)."""
    table = array("i", [index.sentinel_rank]) * index.n_para
    for rank, i in enumerate(_ranking(index, levels)[0], start=1):
        table[i] = rank
    return table


def _admit(index: InvertedIndex, key: tuple[str, ...], levels: _Levels) -> array | None:
    """The rank table of the whole-scored query ``key``, of these ``levels``,
    built and stored if the query is admitted now (see the module
    docstring), else None: first come, first served, while the tables fit.

    A sighted key costs its tuple's ``sys.getsizeof``; the keys are
    forgotten together when the next would overflow their share, and none
    is recorded once no further table fits. One lock serializes
    admissions, so the budget holds under concurrent calls.
    """
    with _ADMISSION:
        share = index.rank_budget // _SIGHTED_SHARE
        if (len(index.rank_tables) + 1) * 4 * index.n_para > index.rank_budget - share:
            return None
        if key in index.sighted:
            table = index.rank_tables[key] = _rank_table(index, levels)
            return table
        size = sys.getsizeof(key)
        if sum(map(sys.getsizeof, index.sighted)) + size > share:
            index.sighted.clear()
        if size <= share:
            index.sighted.add(key)
        return None


def _by_postings(query: Query, levels: _Levels) -> tuple[list[tuple[_Level, _Level]], list[int]]:
    """The distinct terms' levels, most paragraph postings first, and each
    query term's place in that order."""
    terms = dict(zip(query, levels))
    order = sorted(terms, key=lambda t: len(terms[t][0][0]), reverse=True)
    places = list(map(dict(zip(order, count())).__getitem__, query))
    return [terms[t] for t in order], places


def _bound(levels: _Levels, places: list[int], n: int) -> float:
    """What the first ``n`` terms of the ``_by_postings`` order can add to a
    paragraph that no other term reaches, directly or through its article.

    Their maxima, summed as the scorers sum (see the module docstring), with
    a repeated term at each of its places. Such a paragraph gets at most
    those at the same places, and rounding is monotone, so it scores at
    most the bound.
    """
    para = article = 0.0
    for ((_, _, para_max), (_, _, article_max)), place in zip(levels, places):
        if place < n:
            para += para_max
            article += article_max
    return para + article


def _reach(
    index: InvertedIndex, reached: set[int], distinct: Iterable[tuple[_Level, _Level]]
) -> None:
    """Add to ``reached`` the paragraph ordinals that these terms reach,
    directly or through their articles."""
    members = index.article_members.__getitem__
    for (para_ordinals, _, _), (article_ordinals, _, _) in distinct:
        reached.update(para_ordinals, chain.from_iterable(map(members, article_ordinals)))


def _bounded_top(
    index: InvertedIndex, query: Query, levels: _Levels, k: int
) -> tuple[list[int], list[float]] | None:
    """The top k ordinals, in ranking order, and their scores, from the
    paragraphs the distinct terms reach, fewest postings first, until at
    least k are reached; None where the ``_bound`` of the terms left is not
    strictly below the k-th score. Tried only for a query with a term in
    every paragraph, the one case where the full path sorts the corpus."""
    if index.n_para not in [len(para) for (_, para, _), _ in levels]:
        return None
    order, places = _by_postings(query, levels)
    reached: set[int] = set()
    n_bounded = len(order)
    while len(reached) < k and n_bounded:
        n_bounded -= 1
        _reach(index, reached, order[n_bounded:n_bounded + 1])
    if not n_bounded:
        return None
    top = sorted(reached)
    scores = _accumulate(index, levels, top)
    top.sort(key=scores.__getitem__, reverse=True)
    del top[k:]
    if _bound(levels, places, n_bounded) < scores[top[-1]]:
        return top, scores
    return None


def search_topk(index: InvertedIndex, query: Query, k: int) -> list[SearchHit]:
    """The k highest-combined-score paragraphs, in ranking order.

    Returns min(k, N) hits; when fewer than k paragraphs score above zero,
    the remainder is filled with zero-score paragraphs in id order, so the
    result always matches a full brute-force sort of the corpus.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    levels = _levels(index, query)
    found = _bounded_top(index, query, levels, k)
    if found is not None:
        top, scores = found
    else:
        top, scores = _ranking(index, levels)
        del top[k:]
        if len(top) < k and len(top) < index.n_para:
            taken = set(top)
            top += islice(filterfalse(taken.__contains__, index.ordinals), k - len(top))
    ids = map(index.para_order.__getitem__, top)
    return list(map(_hit, zip(ids, map(scores.__getitem__, top))))


def rank_of(index: InvertedIndex, target_paragraph_id: str, query: Query) -> int:
    """1-based rank of the target under combined scoring.

    An empty query, or a target the query does not reach, yields the
    sentinel rank N_para + 1 ("not retrieved").

    A query with a rank table reads the target's rank off it. Otherwise the
    longest prefix of terms, most postings first, whose ``_bound`` (growing
    with each term) stays below the target's score is found by bisection.
    The paragraphs the other terms reach are scored by ``_score_at`` where
    ``_lookups_cost_less``, else by ``_accumulate``, or ranked from a new
    table where ``_admit`` admits the query.
    """
    if target_paragraph_id not in index.doc_lengths:
        raise KeyError(f"unknown paragraph id {target_paragraph_id!r}")
    target = bisect_left(index.para_order, target_paragraph_id)
    key = tuple(query)
    table = index.rank_tables.get(key)
    if table is not None:
        return table[target]
    levels = _levels(index, query)
    target_score = _score_at(index, levels, target)
    if target_score <= 0.0:
        return index.sentinel_rank
    order, places = _by_postings(query, levels)
    n_bounded = bisect_left(range(1, len(order) + 1), target_score,
                            key=lambda n: _bound(levels, places, n))
    reached: set[int] = set()
    _reach(index, reached, order[n_bounded:])
    reached.remove(target)
    candidates = sorted(reached)
    if _lookups_cost_less(index, levels, len(candidates)):
        values = [_score_at(index, levels, i) for i in candidates]
    elif (table := _admit(index, key, levels)) is not None:
        return table[target]
    else:
        scores = _accumulate(index, levels, candidates)
        values = list(map(scores.__getitem__, candidates))
    # Ties count when their ordinal is below the target's (the tie order).
    return (
        1 + sum(map(target_score.__lt__, values))
        + countOf(islice(values, bisect_left(candidates, target)), target_score)
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
        for pid, a in zip(index.para_order, index.article_of):
            items = flat.pop(pid)
            record = [pid, index.article_order[a], dict(zip(items[::2], items[1::2]))]
            out.write(json.dumps(record) + "\n")


def load_index(path) -> InvertedIndex:
    """Load a persisted index, refusing headers with mismatched constants."""
    lines = read_json_lines(path, IndexFormatError)
    _, header = next(lines, (None, None))
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
    return _make_index(_records(lines, n_para))


def _records(lines: Iterator[tuple[int, object]], n_para: int):
    """The paragraph lines of an index file as (id, article id, term counts), checked."""
    seen: set[str] = set()
    for line_no, record in lines:
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
