"""Paragraph-granular corpus: tokenization, ingestion, cross-version mapping.

The tokenizer defined here is the normalization of indexing, queries and
span overlap detection, so term identity is consistent across them (answer
metrics use ``metrics.normalize_answer``, which also drops articles and all
punctuation). ``read_json_lines`` reads every input file, and ``check_fields``
checks the fields of corpus records, question records and manifest roles."""

from __future__ import annotations

import json
import sys
import unicodedata
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator

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
    dropped, internal punctuation (hyphens, apostrophes) is kept. A piece with
    alphanumeric ends is kept whole, which is exact because no code point is
    both ``isalnum()`` and of a ``P*`` category.
    """
    tokens = []
    for piece in text.lower().split():
        token = piece if piece[0].isalnum() and piece[-1].isalnum() else _strip_punct(piece)
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


def read_json_lines(path, error: type[Exception]) -> Iterator[tuple[int, object]]:
    """(line number, JSON value) for each non-blank line of ``path``. Each line is
    decoded on its own, so one that is not UTF-8 text or not JSON raises
    ``error("line N: ...")``."""
    with open(path, "rb") as handle:
        for line_no, line in enumerate(handle, start=1):
            try:
                text = line.decode("utf-8")
                if not text.strip():
                    continue
                value = json.loads(text)
            except UnicodeDecodeError:
                raise error(f"line {line_no}: not UTF-8 text") from None
            except json.JSONDecodeError as exc:
                raise error(f"line {line_no}: invalid JSON ({exc.msg})") from None
            yield line_no, value


class IngestError(ValueError):
    """A corpus input could not be ingested."""


REQUIRED = object()  # the default of a field that a record must hold


def check_fields(record, fields, error: type[Exception], where: str) -> list:
    """The values of ``fields``, each ``(name, test, what, default)``, in ``record``.

    A missing field takes its default unless that is ``REQUIRED``. A fault raises
    ``error(where + ...)``: "record is not an object", "missing field 'x'" or
    "x must be <what>, got <value!r>", the first in field order."""
    if not isinstance(record, dict):
        raise error(f"{where}record is not an object")
    values = []
    for name, test, what, default in fields:
        value = record.get(name, default)
        if value is REQUIRED:
            raise error(f"{where}missing field {name!r}")
        if not test(value):
            raise error(f"{where}{name} must be {what}, got {value!r}")
        values.append(value)
    return values


def is_str(value) -> bool:
    return isinstance(value, str)


_CORPUS_FIELDS = (
    ("article_id", lambda v: isinstance(v, str) and v != "", "a non-empty string", REQUIRED),
    ("title", is_str, "a string", REQUIRED),
    ("order", lambda v: type(v) is int and v >= 0, "an integer >= 0", REQUIRED),
    ("text", is_str, "a string", REQUIRED),
)


def ingest_corpus(records: Iterable[tuple[int, object]]) -> Corpus:
    """Build a Corpus from (line number, record) pairs.

    Each record is an object with fields article_id, title, order, text.
    Paragraph ids are assigned as ``"article_id#order"``. Every paragraph
    of an article carries the article's title. Any malformed or duplicate
    record, or a title that differs from its article's earlier records,
    raises IngestError with its line number.
    """
    titles: dict[str, str] = {}  # article id -> the title of its first record
    by_article: dict[str, dict[int, str]] = {}  # article id -> order -> text
    for line_no, record in records:
        article_id, title, order, text = check_fields(
            record, _CORPUS_FIELDS, IngestError, f"line {line_no}: "
        )
        orders = by_article.setdefault(article_id, {})
        if order in orders:
            raise IngestError(
                f"line {line_no}: duplicate (article_id, order) = ({article_id!r}, {order})"
            )
        if title != titles.setdefault(article_id, title):
            raise IngestError(
                f"line {line_no}: title {title!r} differs from {titles[article_id]!r}, "
                f"the title of article {article_id!r}"
            )
        orders[order] = text

    paragraphs: dict[str, Paragraph] = {}
    articles: dict[str, Article] = {}
    for article_id, orders in by_article.items():
        title = titles[article_id]
        members = []
        for order, text in sorted(orders.items()):
            # One string object per distinct word, shared by every paragraph.
            para = Paragraph(f"{article_id}#{order}", article_id, title, text,
                             tuple(map(sys.intern, tokenize(text))))
            members.append(para)
            paragraphs[para.id] = para
        articles[article_id] = Article(article_id, title, tuple(members))
    return Corpus(paragraphs=paragraphs, articles=articles)


def load_corpus(path) -> Corpus:
    """Ingest the JSON-lines corpus file at ``path``; blank lines are skipped."""
    return ingest_corpus(read_json_lines(path, IngestError))


@dataclass(frozen=True)
class MappingVerdict:
    """Outcome of matching one paragraph against a candidate article.

    ``matched`` applies the thresholds above. ``target_paragraph_ids`` holds
    the 1 or 2 ids of the best window when matched, and is empty otherwise.
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
