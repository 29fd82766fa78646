"""The iterative retrieve-read-rerank loop.

A reasoning path starts as just the question. Each step generates a query
from the path, retrieves paragraphs, and lets the reader try every
candidate extension; when the best answerability clears the stop
threshold the answer is emitted, otherwise the reranker's argmax extends
the path and the loop continues, up to a cap of K paragraphs. There is one
loop, ``run_policies``, which runs it for several settings at once through
one memo of reads; ``run_question`` is it with one setting.

Also builds training-trace records along gold paths (``training_traces``).

Runs write only the index's caches, which stay safe under concurrent calls
(see ``InvertedIndex``), so questions can be processed concurrently. Within
a step, every choice breaks ties by score, then paragraph id, so the
outcome never depends on candidate evaluation order.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property
from itertools import filterfalse, islice
from numbers import Real
from typing import Iterable, Iterator, Sequence

from .corpus import Corpus, Paragraph, tokenize
from .models import (
    ModelBundle,
    SerializedPath,
    find_answer_span,
    pick_answer,
    reader_problem,
    serialize_path,
)
from .oracle import OracleQuery, UntrainableExample, build_oracle_query
from .search import InvertedIndex, SearchHit, search_topk

ANSWERED = "answered"
EXHAUSTED = "exhausted"
RERANKER_CANDIDATES = 5  # new hits per step that the reader and reranker score


class ConfigError(ValueError):
    """A pipeline setting is out of range."""


class ModelOutputError(ValueError):
    """A model role returned a value outside its contract."""

    def __init__(self, role: str, path: ReasoningPath, problem: str):
        super().__init__(f"{role} output for question {path.question!r}: {problem}")


@dataclass(frozen=True)
class PipelineConfig:
    k_cap: int = 5
    docs_per_step: int = 50
    stop_threshold: float = 0.0
    # When set, answerability is ignored and the answer is forced from the
    # candidates at exactly this step.
    fixed_steps: int | None = None

    def __post_init__(self) -> None:
        for name in ("k_cap", "docs_per_step", "fixed_steps"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        if math.isnan(self.stop_threshold):
            # Every comparison with NaN is false, so no answer would ever clear it.
            raise ConfigError(f"stop_threshold must be a number, got {self.stop_threshold}")


@dataclass(frozen=True)
class ReasoningPath:
    """The question plus the paragraphs selected so far."""

    question: str
    steps: tuple[Paragraph, ...] = ()

    def step_ids(self) -> tuple[str, ...]:
        return tuple(p.id for p in self.steps)

    def path_tokens(self) -> list[str]:
        """Normalized tokens of the whole path: question, titles, texts."""
        tokens = tokenize(self.question)
        for para in self.steps:
            tokens.extend(tokenize(para.title))
            tokens.extend(para.tokens)
        return tokens

    @cached_property
    def serialized(self) -> SerializedPath:
        """The path in the reader's input format, ``serialize_path(self)``, built once."""
        return serialize_path(self)

    def extended(self, paragraph: Paragraph) -> ReasoningPath:
        """This path plus ``paragraph``; its serialization extends this path's."""
        if paragraph.id in self.step_ids():
            raise ValueError(f"paragraph {paragraph.id!r} is already on the path")
        ext = ReasoningPath(self.question, self.steps + (paragraph,))
        vars(ext)["serialized"] = serialize_path(ext, self.serialized)  # seeds the cache
        return ext


def initial_path(question: str) -> ReasoningPath:
    return ReasoningPath(question=question)


@dataclass(frozen=True)
class AnswerRecord:
    kind: str  # span | yes | no
    text: str
    answerability: float
    path_snapshot: tuple[str, ...]


@dataclass(frozen=True)
class StepOutcome:
    """One loop iteration: what was asked, found, and decided."""

    query_used: tuple[str, ...]
    retrieved: tuple[SearchHit, ...] = ()
    chosen_paragraph: str | None = None
    candidate_answerabilities: tuple[tuple[str, float], ...] = ()
    best_candidate: AnswerRecord | None = None
    exhausted_reason: str | None = None

    @property
    def answer(self) -> AnswerRecord | None:
        """The answer to stop with: the best candidate, when no paragraph is chosen."""
        return self.best_candidate if self.chosen_paragraph is None else None


@dataclass(frozen=True)
class RunResult:
    status: str  # answered | exhausted
    answer: AnswerRecord | None
    steps: tuple[StepOutcome, ...]
    final_path: ReasoningPath

    @property
    def best_attempt(self) -> AnswerRecord | None:
        """The most answerable candidate over all steps; the earliest of equals."""
        candidates = [s.best_candidate for s in self.steps if s.best_candidate is not None]
        return max(candidates, key=lambda c: c.answerability, default=None)

    @property
    def paragraphs_retrieved(self) -> int:
        return sum(len(s.retrieved) for s in self.steps)

    @property
    def prediction(self) -> str:
        """Answer text for scoring: the accepted answer, else the best attempt."""
        record = self.answer or self.best_attempt
        return record.text if record is not None else ""


def _answer_record(kind: str, answerability: float, ext: ReasoningPath, span) -> AnswerRecord:
    if kind == "span":
        start, end = span
        text = " ".join(ext.serialized.tokens[start : end + 1])
    else:
        text = kind
    return AnswerRecord(
        kind=kind, text=text, answerability=answerability, path_snapshot=ext.step_ids()
    )


def stops(config: PipelineConfig, step_no: int, answerability: float) -> bool:
    """Whether a run at ``config`` answers at step ``step_no``, given its best answerability."""
    if config.fixed_steps is not None:
        return step_no == config.fixed_steps
    return answerability > config.stop_threshold


def run_policies(
    question: str,
    corpus: Corpus,
    index: InvertedIndex,
    models: ModelBundle,
    configs: Sequence[PipelineConfig],
) -> list[RunResult]:
    """Run the loop once per config; each RunResult is the one ``run_question`` gives.

    Each step reads: the query, the search (zero-score hits count as not
    retrieved), the first RERANKER_CANDIDATES hits not on the path, a reader
    call per candidate and the best candidate. When ``stops`` says so, the run
    answers; else the reranker's argmax extends the path. A retriever output that
    is a ``str``, is not iterable or holds a non-``str`` term, a reader output
    that ``reader_problem`` refuses or whose answerability is NaN, and a
    reranker score that is not a finite real number, raise ModelOutputError.

    Every config walks its own trajectory through one memo of reads, which
    lives for this call. The query is kept by the path's step ids; the
    positive hits by the query, searched once at the largest docs_per_step
    and cut to each config's, since ``search_topk(d)`` is a prefix of
    ``search_topk(d')`` for d < d', in ranking order; the read and the
    reranker score by (step ids, candidate id). The roles are pure
    (``ModelBundle``), so a memo hit is what a call would give.
    """
    largest = max(config.docs_per_step for config in configs)
    queries: dict[tuple[str, ...], tuple[str, ...]] = {}
    found: dict[tuple[str, ...], tuple[SearchHit, ...]] = {}
    reads: dict[tuple[tuple[str, ...], str], tuple] = {}
    scores: dict[tuple[tuple[str, ...], str], float] = {}
    results = []
    for config in configs:
        result = None
        outcomes: list[StepOutcome] = []
        path = initial_path(question)
        while len(path.steps) < config.k_cap:
            ids = path.step_ids()
            if ids not in queries:
                terms = models.retriever(path)
                if isinstance(terms, str) or not isinstance(terms, Iterable):
                    problem = f"{type(terms).__name__}, not a list of str"
                    raise ModelOutputError("retriever", path, problem)
                queries[ids] = tuple(terms)
                for term in queries[ids]:
                    if not isinstance(term, str):
                        raise ModelOutputError("retriever", path, f"term {term!r} is not a str")
            query = queries[ids]
            hits = ()
            if query:
                if query not in found:
                    top = search_topk(index, list(query), largest)
                    found[query] = tuple(h for h in top if h.score > 0.0)
                hits = found[query][: config.docs_per_step]
            fresh = (corpus.paragraphs[h.paragraph_id] for h in hits if h.paragraph_id not in ids)
            candidates = list(islice(fresh, RERANKER_CANDIDATES))
            if not candidates:
                reason = "no new candidates" if hits else "no results" if query else "empty query"
                outcomes.append(StepOutcome(query, hits, exhausted_reason=reason))
                break

            evaluated = []
            for para in candidates:
                key = ids, para.id
                if key not in reads:
                    ext = path.extended(para)
                    output = models.reader(ext)
                    problem = reader_problem(output, ext.serialized)
                    if problem is None:
                        kind, score = pick_answer(output)
                        problem = "its answerability is NaN" if math.isnan(score) else None
                    if problem is not None:
                        raise ModelOutputError("reader", path, f"{problem}, reading {para.id!r}")
                    reads[key] = (para, ext, output.best_span, kind, score)
                evaluated.append(reads[key])
            _, best_ext, span, kind, best_score = min(evaluated, key=lambda e: (-e[4], e[0].id))
            record = _answer_record(kind, best_score, best_ext, span)
            answerabilities = tuple((e[0].id, e[4]) for e in evaluated)
            if stops(config, len(ids) + 1, best_score):
                answered = StepOutcome(query, hits, None, answerabilities, record)
                result = RunResult(ANSWERED, record, (*outcomes, answered), best_ext)
                break

            scored = []
            for para, ext, *_ in evaluated:
                key = ids, para.id
                if key not in scores:
                    score = models.reranker(path, para)
                    if not (isinstance(score, Real) and math.isfinite(score)):
                        problem = f"{score!r} for {para.id!r} is not a finite real number"
                        raise ModelOutputError("reranker", path, problem)
                    scores[key] = score
                scored.append((scores[key], para, ext))
            _, chosen, chosen_path = min(scored, key=lambda item: (-item[0], item[1].id))
            outcomes.append(StepOutcome(query, hits, chosen.id, answerabilities, record))
            path = chosen_path
        results.append(result or RunResult(EXHAUSTED, None, tuple(outcomes), path))
    return results


def run_question(
    question: str,
    corpus: Corpus,
    index: InvertedIndex,
    models: ModelBundle,
    config: PipelineConfig = PipelineConfig(),
) -> RunResult:
    """Iterate until an answer clears the threshold or the path cap is hit."""
    return run_policies(question, corpus, index, models, (config,))[0]


def step_log_record(outcome: StepOutcome) -> dict:
    """JSON-serializable per-step record for line-delimited run logs."""
    record = {
        "query": list(outcome.query_used),
        "retrieved": [(h.paragraph_id, h.score) for h in outcome.retrieved],
        "answerabilities": [list(item) for item in outcome.candidate_answerabilities],
    }
    if outcome.answer is not None:
        record["answer"] = {
            "kind": outcome.answer.kind,
            "text": outcome.answer.text,
            "answerability": outcome.answer.answerability,
            "path": list(outcome.answer.path_snapshot),
        }
    if outcome.chosen_paragraph is not None:
        record["chosen"] = outcome.chosen_paragraph
    if outcome.exhausted_reason is not None:
        record["exhausted"] = outcome.exhausted_reason
    return record


@dataclass(frozen=True)
class QuestionExample:
    """A question with its gold supervision, as read from a questions file."""

    qid: str
    question: str
    answers: tuple[str, ...] = ()
    gold_ids: tuple[str, ...] = ()
    answer_kind: str = "span"  # span | yes | no
    fixed_steps: int | None = None
    dataset: str = ""


def _reader_label(
    next_path: ReasoningPath, example: QuestionExample
) -> tuple[str, tuple[int, int] | None]:
    if not set(example.gold_ids) <= set(next_path.step_ids()):
        return "NOANSWER", None
    if example.answer_kind == "yes":
        return "YES", None
    if example.answer_kind == "no":
        return "NO", None
    serialized = next_path.serialized
    span = find_answer_span(serialized, example.answers, serialized.paragraphs)
    if span is None:
        return "NOANSWER", None
    return "SPAN", span


def walk_gold_path(
    corpus: Corpus, index: InvertedIndex, question: str, gold_ids: Iterable[str]
) -> Iterator[tuple[ReasoningPath, Paragraph, OracleQuery]]:
    """Yield (path before the step, target, oracle query) for each gold step.

    Raises UntrainableExample at the first target that shares no token with
    its path, after the steps before it have been yielded.
    """
    path = initial_path(question)
    for gold_id in gold_ids:
        target = corpus.paragraphs[gold_id]
        yield path, target, build_oracle_query(index, path.path_tokens(), target)
        path = path.extended(target)


def training_traces(
    corpus: Corpus,
    index: InvertedIndex,
    example: QuestionExample,
    config: PipelineConfig = PipelineConfig(k_cap=3),
    augment_nongold: bool = True,
) -> list[dict]:
    """The JSON records of the supervision traces along ``example``'s gold path.

    Each gold step yields one record: the oracle query, the first
    RERANKER_CANDIDATES hits off the path (padded from the index's paragraph
    order when the hits are few, so the reranker always sees a fixed-size
    set), their gold flags and the reader label of the gold continuation.
    With augmentation, a gold step with room for a wrong paragraph and the
    target also yields a recovery record: its top-ranked non-gold hit is
    appended instead and the oracle re-derives a query from that polluted
    path. Raises UntrainableExample as ``walk_gold_path`` does.

    From ``config``, ``k_cap`` caps the paragraphs on a traced path and
    ``docs_per_step`` sizes each step's search; the stop settings do not
    apply.
    """
    gold = set(example.gold_ids)
    records = []
    gold_path = walk_gold_path(corpus, index, example.question, example.gold_ids[: config.k_cap])
    for path, target, query in gold_path:
        variant = "gold"
        while query is not None:
            hits = search_topk(index, list(query.terms), config.docs_per_step)
            on_path = set(path.step_ids())
            off_path = (h.paragraph_id for h in hits if h.paragraph_id not in on_path)
            candidates = list(islice(off_path, RERANKER_CANDIDATES))
            fill = filterfalse(on_path.union(candidates).__contains__, index.para_order)
            candidates += islice(fill, RERANKER_CANDIDATES - len(candidates))
            label, span = _reader_label(path.extended(target), example)
            records.append({
                "qid": example.qid,
                "variant": variant,
                "question": example.question,
                "path_ids": list(path.step_ids()),
                "oracle_query": list(query.terms),
                "achieved_rank": query.achieved_rank,
                "candidates": candidates,
                "gold_flags": [c in gold for c in candidates],
                "reader_label": label,
                "span": list(span) if span is not None else None,
            })
            query = None  # a recovery record, when there is one, is the second and last pass
            if variant == "gold" and augment_nongold and len(path.steps) + 2 <= config.k_cap:
                excluded = on_path | gold
                wrong = next((h.paragraph_id for h in hits
                              if h.score > 0.0 and h.paragraph_id not in excluded), None)
                if wrong is not None:
                    variant, path = "recovery", path.extended(corpus.paragraphs[wrong])
                    with suppress(UntrainableExample):
                        query = build_oracle_query(index, path.path_tokens(), target)
    return records
