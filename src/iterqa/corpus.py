"""Paragraph-granular corpus: tokenization, ingestion, cross-version mapping.

The tokenizer defined here is the single normalization used everywhere in
the package (indexing, span overlap detection, token-level metrics), so
term identity is consistent across modules.
"""

from __future__ import annotations

import json
import sys
import unicodedata
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

# A paragraph maps onto a newer corpus version when the best 1-2 paragraph
# window recovers more than 66% of its unigrams, or a common subsequence
# covers more than 50% of it. Both thresholds are strict.
UNIGRAM_RECALL_THRESHOLD = 0.66
LCS_COVERAGE_THRESHOLD = 0.50


def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


def _strip_punct(piece: str) -> str:
    start, end = 0, len(piece)
    while start < end and _is_punct(piece[start]):
        start += 1
    while end > start and _is_punct(piece[end - 1]):
        end -= 1
    return piece[start:end]


def tokenize(text: str) -> list[str]:
    """Lowercase, split on Unicode whitespace, strip edge punctuation.

    Deterministic and idempotent: pieces that are punctuation-only are
    dropped, internal punctuation (hyphens, apostrophes) is kept.
    """
    tokens = []
    for piece in text.lower().split():
        token = _strip_punct(piece)
        if token:
            tokens.append(token)
    return tokens


@dataclass(frozen=True)
class Paragraph:
    """One indexable unit of text; ``tokens`` is exactly ``tokenize(text)``."""

    id: str
    article_id: str
    title: str
    text: str
    tokens: tuple[str, ...]


@dataclass(frozen=True)
class Article:
    """A document-ordered group of paragraphs; its text is theirs, in order."""

    article_id: str
    title: str
    paragraphs: tuple[Paragraph, ...]


@dataclass
class Corpus:
    """Immutable-after-ingestion store of paragraphs and their articles."""

    paragraphs: dict[str, Paragraph]
    articles: dict[str, Article]


class IngestError(ValueError):
    """A corpus input could not be ingested; carries the line at fault, if one is."""

    def __init__(self, line_no: int | None, message: str):
        super().__init__(message if line_no is None else f"line {line_no}: {message}")
        self.line_no = line_no


_REQUIRED_FIELDS = ("article_id", "title", "order", "text")


def _parse_record(line_no: int, line: str) -> dict:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise IngestError(line_no, f"invalid JSON ({exc.msg})") from exc
    if not isinstance(record, dict):
        raise IngestError(line_no, "record is not an object")
    for name in _REQUIRED_FIELDS:
        if name not in record:
            raise IngestError(line_no, f"missing field {name!r}")
    if not isinstance(record["article_id"], str) or not record["article_id"]:
        raise IngestError(line_no, "article_id must be a non-empty string")
    if not isinstance(record["title"], str):
        raise IngestError(line_no, "title must be a string")
    if not isinstance(record["order"], int) or isinstance(record["order"], bool) or record["order"] < 0:
        raise IngestError(line_no, "order must be an integer >= 0")
    if not isinstance(record["text"], str):
        raise IngestError(line_no, "text must be a string")
    return record


def ingest_corpus(source: Iterable[str]) -> Corpus:
    """Build a Corpus from UTF-8 line-delimited JSON records.

    Each line is an object with fields article_id, title, order, text.
    Paragraph ids are assigned as ``"article_id#order"``. Blank lines are
    skipped; any malformed or duplicate record raises IngestError with its
    line number.
    """
    by_article: dict[str, dict[int, dict]] = {}
    for line_no, line in enumerate(source, start=1):
        if not line.strip():
            continue
        record = _parse_record(line_no, line)
        orders = by_article.setdefault(record["article_id"], {})
        if record["order"] in orders:
            raise IngestError(
                line_no,
                f"duplicate (article_id, order) = ({record['article_id']!r}, {record['order']})",
            )
        orders[record["order"]] = record

    paragraphs: dict[str, Paragraph] = {}
    articles: dict[str, Article] = {}
    for article_id, orders in by_article.items():
        members = []
        title = orders[min(orders)]["title"]
        for order in sorted(orders):
            record = orders[order]
            text = record["text"]
            para = Paragraph(
                id=f"{article_id}#{order}",
                article_id=article_id,
                title=record["title"],
                text=text,
                # One string object per distinct word, shared by every paragraph.
                tokens=tuple(map(sys.intern, tokenize(text))),
            )
            members.append(para)
            paragraphs[para.id] = para
        articles[article_id] = Article(article_id, title, tuple(members))
    return Corpus(paragraphs=paragraphs, articles=articles)


def load_corpus(path) -> Corpus:
    """Ingest a corpus from a file path."""
    with open(path, encoding="utf-8") as handle:
        return ingest_corpus(handle)


@dataclass(frozen=True)
class MappingVerdict:
    """Outcome of matching one paragraph against a candidate article.

    ``matched`` is true iff unigram_recall > 0.66 or lcs_coverage > 0.50
    (strict comparisons). ``target_paragraph_ids`` holds the 1 or 2 ids of
    the best window when matched, and is empty otherwise.
    """

    matched: bool
    unigram_recall: float
    lcs_coverage: float
    target_paragraph_ids: tuple[str, ...]


def _unigram_recall(original: tuple[str, ...], window: list[str]) -> float:
    overlap = Counter(original) & Counter(window)
    return sum(overlap.values()) / len(original)


def _lcs_length(a: tuple[str, ...], b: list[str]) -> int:
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for tok_a in a:
        cur = [0]
        for j, tok_b in enumerate(b):
            if tok_a == tok_b:
                cur.append(prev[j] + 1)
            else:
                cur.append(max(cur[j], prev[j + 1]))
        prev = cur
    return prev[-1]


def map_paragraph(original: Paragraph, candidate_article: Article) -> MappingVerdict:
    """Locate ``original`` inside ``candidate_article``.

    Scans every window of 1 or 2 consecutive paragraphs, keeps the window
    with the highest unigram recall of the original's tokens (earliest
    window wins ties), and reports that window's recall and token-LCS
    coverage.
    """
    if not original.tokens:
        raise ValueError("original paragraph has no tokens; thresholds are undefined")
    members = candidate_article.paragraphs
    if not members:
        raise ValueError(f"candidate article {candidate_article.article_id!r} is empty")

    best_recall = -1.0
    best_window: tuple[Paragraph, ...] = ()
    for start in range(len(members)):
        for width in (1, 2):
            if start + width > len(members):
                continue
            window = members[start : start + width]
            window_tokens = [t for p in window for t in p.tokens]
            recall = _unigram_recall(original.tokens, window_tokens)
            if recall > best_recall:
                best_recall = recall
                best_window = window

    window_tokens = [t for p in best_window for t in p.tokens]
    coverage = _lcs_length(original.tokens, window_tokens) / len(original.tokens)
    matched = best_recall > UNIGRAM_RECALL_THRESHOLD or coverage > LCS_COVERAGE_THRESHOLD
    return MappingVerdict(
        matched=matched,
        unigram_recall=best_recall,
        lcs_coverage=coverage,
        target_paragraph_ids=tuple(p.id for p in best_window) if matched else (),
    )
