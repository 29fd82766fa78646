"""The iterative retrieve-read-rerank loop.

A reasoning path starts as just the question. Each step generates a query
from the path, retrieves paragraphs, and lets the reader try every
candidate extension; when the best answerability clears the stop
threshold the answer is emitted, otherwise the reranker's argmax extends
the path and the loop continues, up to a cap of K paragraphs.

There is one loop, ``run_policies``. It runs one trajectory for several
stop policies at once: a policy stays live until ``stops`` says it answers,
and the reranker extends the path only while some policy is live. A stop
rule never changes what the roles or the search see, so each policy gets
the run it would get alone. ``run_question`` is the loop with its own
config as the only policy. A path's serialization is built once
(``ReasoningPath.serialized``), and an extension's extends its prefix's
(``serialize_path``'s ``prefix`` argument). So a step serializes its path
once for all its candidates, and each candidate's reader output is checked
against the candidate's serialization, which the gold reader reads too.

Also generates training traces: oracle queries and reranker candidate sets
along gold paths, optionally with "polluted" non-gold branches the oracle
then recovers from.

Runs only read the corpus and index, so questions can be processed
concurrently; within a step, every choice breaks ties deterministically
(score first, then paragraph id), so the outcome never depends on
candidate evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
        if self.answer is not None:
            return self.answer.text
        if self.best_attempt is not None:
            return self.best_attempt.text
        return ""


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
    config: PipelineConfig,
    policies: Sequence[PipelineConfig],
) -> list[RunResult]:
    """Run the loop once for every stop policy; one RunResult per policy.

    ``config`` sets k_cap and docs_per_step, and each policy only its stop
    rule. Each step reads: the query, the search (zero-score hits count as not
    retrieved), the first RERANKER_CANDIDATES hits not on the path, a reader
    call per candidate and the best candidate. Each live policy then asks
    ``stops`` whether it answers here, and the reranker's argmax extends the
    path only while some policy is still live. A stop rule never changes what
    the roles or the search see, so each policy's RunResult is the one a run
    of its own would give. A retriever output that is a ``str``, is not
    iterable or holds a non-``str`` term, a reader output that
    ``reader_problem`` refuses or whose answerability is NaN, and a reranker
    score that is not a finite real number, raise ModelOutputError.
    """
    results: list[RunResult | None] = [None] * len(policies)
    outcomes: list[StepOutcome] = []
    path = initial_path(question)
    while len(path.steps) < config.k_cap:
        terms = models.retriever(path)
        if isinstance(terms, str) or not isinstance(terms, Iterable):
            raise ModelOutputError("retriever", path, f"{type(terms).__name__}, not a list of str")
        query = tuple(terms)
        for term in query:
            if not isinstance(term, str):
                raise ModelOutputError("retriever", path, f"term {term!r} is not a str")
        hits = ()
        if query:
            found = search_topk(index, list(query), config.docs_per_step)
            hits = tuple(h for h in found if h.score > 0.0)
        on_path = set(path.step_ids())
        candidates = [
            corpus.paragraphs[h.paragraph_id] for h in hits if h.paragraph_id not in on_path
        ][:RERANKER_CANDIDATES]
        if not candidates:
            reason = "no new candidates" if hits else "no results" if query else "empty query"
            outcomes.append(StepOutcome(query, hits, exhausted_reason=reason))
            break

        evaluated = []
        for para in candidates:
            ext = path.extended(para)
            output = models.reader(ext)
            problem = reader_problem(output, ext.serialized)
            if problem is None:
                kind, score = pick_answer(output)
                problem = "its answerability is NaN" if math.isnan(score) else None
            if problem is not None:
                raise ModelOutputError("reader", path, f"{problem}, reading {para.id!r}")
            evaluated.append((para, ext, output.best_span, kind, score))
        _, best_ext, span, kind, best_score = min(evaluated, key=lambda e: (-e[4], e[0].id))
        record = _answer_record(kind, best_score, best_ext, span)
        answerabilities = tuple((e[0].id, e[4]) for e in evaluated)
        for i, policy in enumerate(policies):
            if results[i] is None and stops(policy, len(path.steps) + 1, best_score):
                answered = StepOutcome(query, hits, None, answerabilities, record)
                results[i] = RunResult(ANSWERED, record, (*outcomes, answered), best_ext)
        if None not in results:
            return results

        scored = [(models.reranker(path, para), para, ext) for para, ext, *_ in evaluated]
        for score, para, _ in scored:
            if not (isinstance(score, Real) and math.isfinite(score)):
                raise ModelOutputError(
                    "reranker", path, f"{score!r} for {para.id!r} is not a finite real number"
                )
        _, chosen, chosen_path = min(scored, key=lambda item: (-item[0], item[1].id))
        outcomes.append(StepOutcome(query, hits, chosen.id, answerabilities, record))
        path = chosen_path

    exhausted = RunResult(EXHAUSTED, None, tuple(outcomes), path)
    return [exhausted if result is None else result for result in results]


def run_question(
    question: str,
    corpus: Corpus,
    index: InvertedIndex,
    models: ModelBundle,
    config: PipelineConfig = PipelineConfig(),
) -> RunResult:
    """Iterate until an answer clears the threshold or the path cap is hit.

    Exhausted runs carry the best low-confidence candidate seen, so they
    can still be inspected and scored.
    """
    return run_policies(question, corpus, index, models, config, (config,))[0]


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


@dataclass(frozen=True)
class TrainingTrace:
    """One supervision record for the retriever, reranker, and reader."""

    qid: str
    variant: str  # gold | recovery
    path_state: ReasoningPath
    oracle_query: OracleQuery
    candidates: tuple[str, ...]
    gold_flags: tuple[bool, ...]
    reader_label: str  # SPAN | YES | NO | NOANSWER
    span: tuple[int, int] | None


@dataclass
class TraceGeneration:
    traces: list[TrainingTrace] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)  # qids with no usable overlap


def _trace_candidates(
    hits: list[SearchHit], on_path: set[str], index: InvertedIndex, count: int
) -> tuple[str, ...]:
    candidates = [h.paragraph_id for h in hits if h.paragraph_id not in on_path][:count]
    if len(candidates) < count:
        # Pad from the remaining corpus so the reranker always sees a
        # fixed-size candidate set.
        used = set(candidates) | on_path
        fill = filterfalse(used.__contains__, index.para_order)
        candidates += islice(fill, count - len(candidates))
    return tuple(candidates)


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


def generate_training_traces(
    corpus: Corpus,
    index: InvertedIndex,
    gold_examples: Iterable[QuestionExample],
    config: PipelineConfig = PipelineConfig(k_cap=3),
    augment_nongold: bool = True,
) -> TraceGeneration:
    """Emit supervision traces along each example's gold path.

    Each gold step yields one trace (oracle query, top candidates, gold
    flags, reader label for the gold continuation). With augmentation, each
    step also yields a recovery trace: the top-ranked non-gold hit is
    appended instead and the oracle re-derives a query from that polluted
    path. Examples whose gold target shares no token with the path are
    skipped and counted.

    From ``config``, ``k_cap`` caps the paragraphs on a traced path and
    ``docs_per_step`` sizes each step's search; the stop settings do not
    apply.
    """
    result = TraceGeneration()
    for example in gold_examples:
        try:
            traces = list(_example_traces(corpus, index, example, config, augment_nongold))
        except UntrainableExample:
            result.skipped.append(example.qid)
            continue
        result.traces.extend(traces)
    return result


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


def _trace(
    index: InvertedIndex,
    example: QuestionExample,
    config: PipelineConfig,
    variant: str,
    path: ReasoningPath,
    target: Paragraph,
    query: OracleQuery,
) -> tuple[TrainingTrace, list[SearchHit]]:
    """The trace for reaching ``target`` from ``path``, and the query's hits."""
    hits = search_topk(index, list(query.terms), config.docs_per_step)
    candidates = _trace_candidates(hits, set(path.step_ids()), index, RERANKER_CANDIDATES)
    label, span = _reader_label(path.extended(target), example)
    gold = set(example.gold_ids)
    trace = TrainingTrace(
        qid=example.qid,
        variant=variant,
        path_state=path,
        oracle_query=query,
        candidates=candidates,
        gold_flags=tuple(c in gold for c in candidates),
        reader_label=label,
        span=span,
    )
    return trace, hits


def _example_traces(
    corpus: Corpus,
    index: InvertedIndex,
    example: QuestionExample,
    config: PipelineConfig,
    augment_nongold: bool,
) -> Iterable[TrainingTrace]:
    gold_path = walk_gold_path(corpus, index, example.question, example.gold_ids[: config.k_cap])
    for path, target, query in gold_path:
        trace, hits = _trace(index, example, config, "gold", path, target, query)
        yield trace

        # A recovery step needs room for the wrong paragraph and the target.
        if not augment_nongold or len(path.steps) + 2 > config.k_cap:
            continue
        excluded = set(path.step_ids()) | set(example.gold_ids)
        nongold = next(
            (h.paragraph_id for h in hits if h.score > 0.0 and h.paragraph_id not in excluded),
            None,
        )
        if nongold is None:
            continue
        polluted = path.extended(corpus.paragraphs[nongold])
        try:
            query = build_oracle_query(index, polluted.path_tokens(), target)
        except UntrainableExample:
            continue
        yield _trace(index, example, config, "recovery", polluted, target, query)[0]


def trace_record(trace: TrainingTrace) -> dict:
    """JSON-serializable form of one training trace."""
    return {
        "qid": trace.qid,
        "variant": trace.variant,
        "question": trace.path_state.question,
        "path_ids": list(trace.path_state.step_ids()),
        "oracle_query": list(trace.oracle_query.terms),
        "achieved_rank": trace.oracle_query.achieved_rank,
        "candidates": list(trace.candidates),
        "gold_flags": list(trace.gold_flags),
        "reader_label": trace.reader_label,
        "span": list(trace.span) if trace.span is not None else None,
    }
