"""Dynamic oracle for query generation.

Given a reasoning path and the gold target paragraph, find the maximal
token spans the two share, estimate each span's importance from two search
ranks, and greedily assemble a query that pushes the target as high as
possible in the ranking, in at most 3N+1 rank evaluations, not all 2^N subsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .corpus import Paragraph
from .search import InvertedIndex, rank_of


class UntrainableExample(ValueError):
    """Path and target share no tokens, so no oracle query can be built."""


@dataclass
class OverlapSpan:
    """A maximal contiguous token run common to the path and the target.

    ``importance`` is filled in by build_oracle_query: the target's rank
    under every other span minus its rank under this span alone.
    """

    tokens: tuple[str, ...]
    path_offset: int
    importance: float = 0.0


@dataclass(frozen=True)
class OracleQuery:
    terms: tuple[str, ...]
    achieved_rank: int
    # Every extracted span, in path order, with its importance filled in.
    spans: tuple[OverlapSpan, ...]


def extract_overlap_spans(path_tokens: Sequence[str], target: Paragraph) -> list[OverlapSpan]:
    """All maximal contiguous runs of path tokens occurring in the target.

    Spans are deduplicated by token content and ordered by first occurrence
    in the path. No overlap, an empty path's included, yields an empty list.
    """
    target_tokens = target.tokens
    positions: dict[str, list[int]] = {}
    for idx, token in enumerate(target_tokens):
        positions.setdefault(token, []).append(idx)

    n = len(path_tokens)
    # longest[i] = length of the longest target match starting at path position i
    longest = [0] * n
    for i in range(n):
        best = 0
        for pos in positions.get(path_tokens[i], ()):
            length = 0
            while (
                i + length < n
                and pos + length < len(target_tokens)
                and path_tokens[i + length] == target_tokens[pos + length]
            ):
                length += 1
            best = max(best, length)
        longest[i] = best

    spans: list[OverlapSpan] = []
    seen: set[tuple[str, ...]] = set()
    for i in range(n):
        if longest[i] == 0:
            continue
        # A match of length m at i-1 implies one of length m-1 at i, so the
        # run at i is left-maximal unless the previous run strictly covers it.
        if i > 0 and longest[i - 1] > longest[i]:
            continue
        tokens = tuple(path_tokens[i : i + longest[i]])
        if tokens in seen:
            continue
        seen.add(tokens)
        spans.append(OverlapSpan(tokens=tokens, path_offset=i))
    return spans


def build_oracle_query(
    index: InvertedIndex,
    path_tokens: Sequence[str],
    target: Paragraph,
    rank_fn: Callable[[InvertedIndex, str, Sequence[str]], int] = rank_of,
) -> OracleQuery:
    """Greedily build an oracle query from the path/target overlap spans.

    Every span's importance (see ``OverlapSpan``) is estimated first. Then
    spans are appended in descending-importance order for as long as the
    target's rank keeps strictly improving; the first, alone, always beats
    the sentinel, since span tokens occur in the target.

    ``rank_fn`` must be pure: a rank depends only on the target and the
    ordered query. Each distinct query is evaluated once per call and its
    rank reused, so the singletons serve both passes, and at N = 2 each
    leave-one-out query is the other span's singleton. At most 3N+1
    distinct rank evaluations for N spans.
    """
    spans = extract_overlap_spans(path_tokens, target)
    if not spans:
        raise UntrainableExample(
            f"no overlap between path and target paragraph {target.id!r}"
        )
    ranks: dict[tuple[str, ...], int] = {}

    def evaluate(query: list[str]) -> int:
        key = tuple(query)
        if key not in ranks:
            ranks[key] = rank_fn(index, target.id, query)
        return ranks[key]

    for i, span in enumerate(spans):
        others = [t for j, other in enumerate(spans) if j != i for t in other.tokens]
        span.importance = float(evaluate(others) - evaluate(list(span.tokens)))

    # Ties in importance resolve to the earlier path position.
    order = sorted(spans, key=lambda span: (-span.importance, span.path_offset))

    terms: list[str] = []
    best_rank = index.sentinel_rank
    for span in order:
        rank = evaluate(terms + list(span.tokens))
        if rank >= best_rank:
            break
        terms.extend(span.tokens)
        best_rank = rank
        if best_rank == 1:
            break
    return OracleQuery(terms=tuple(terms), achieved_rank=best_rank, spans=tuple(spans))


def recall_curve(ranks: Sequence[int | None], ks: Sequence[int]) -> dict[int, float]:
    """Share of ``ranks`` at or below each cutoff in ``ks``, keyed by cutoff.

    A rank of None marks a step the oracle cannot build a query for; it
    stays in the denominator and counts as a miss at every k.
    """
    if not ranks:
        raise ValueError("ranks must be non-empty")
    if not ks or list(ks) != sorted(ks):
        raise ValueError("ks must be non-empty and sorted ascending")
    return {k: sum(1 for r in ranks if r is not None and r <= k) / len(ranks) for k in ks}


def oracle_trace_record(
    path_tokens: Sequence[str], target: Paragraph, query: OracleQuery
) -> dict:
    """JSON-serializable record of one oracle query, every span with its importance."""
    return {
        "path_tokens": list(path_tokens),
        "target_id": target.id,
        "spans": [list(span.tokens) for span in query.spans],
        "importances": [span.importance for span in query.spans],
        "query": list(query.terms),
        "achieved_rank": query.achieved_rank,
    }
