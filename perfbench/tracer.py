"""Outside-in tracing of iterqa's public callables.

Nothing inside ``iterqa`` is instrumented. Instead, ``traced_api`` swaps
each traced callable for a recording wrapper at the module attribute where
its caller looks it up (``step`` finds ``search_topk`` in
``iterqa.pipeline``, ``OracleRetriever`` finds ``build_oracle_query`` in
``iterqa.models``, and so on), and restores the originals on exit. The three
``ModelBundle`` roles are wrapped through the model factory.

Spans are kept in memory: name, start, end, parent span and question id.
A layer's self time is its span time minus the time of its direct child
spans. Counts that need a value from inside a call (query terms, rank
evaluations per oracle query) are recorded by the same wrappers.
"""

from __future__ import annotations

import contextlib
import inspect
import json
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter

import iterqa.corpus
import iterqa.models
import iterqa.oracle
import iterqa.pipeline
import iterqa.search

# Span names. Each is one layer; metric names are built from them.
CORPUS_LOAD = "corpus.load"
INDEX_BUILD = "search.build"
INDEX_SAVE = "search.save"
INDEX_LOAD = "search.load"
TOPK = "search.topk"
RANK = "search.rank"
ORACLE = "oracle"
RETRIEVER = "models.retriever"
READER = "models.reader"
RERANKER = "models.reranker"
PIPELINE = "pipeline"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    qid: str | None


@dataclass
class OracleCall:
    """One build_oracle_query call: work spent against its 3N+1 budget."""

    rank_evals: int
    path_tokens: list
    target: object  # the target Paragraph
    achieved_rank: int | None  # None when the call raised

    def budget(self) -> int:
        """3N+1, with N the overlap spans; computed after the run, untimed."""
        if self.achieved_rank is None:
            return 1
        return 3 * len(iterqa.oracle.extract_overlap_spans(self.path_tokens, self.target)) + 1


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    oracle_calls: list[OracleCall] = field(default_factory=list)
    query_terms: int = 0
    steps: int = 0
    paragraphs_retrieved: int = 0
    qid: str | None = None  # set by run_pass before each question
    _stack: list[int] = field(default_factory=list)

    def wrap(self, name, fn):
        """``fn`` with every call recorded as a span called ``name``."""

        def traced(*args, **kwargs):
            span = Span(name, perf_counter(), 0.0, self._stack[-1] if self._stack else None, self.qid)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()

        return traced

    def wrap_factory(self, factory):
        """A model factory whose bundles record a span per role call."""

        def traced_factory(example):
            bundle = factory(example)
            return iterqa.models.ModelBundle(
                retriever=self.wrap(RETRIEVER, bundle.retriever),
                reader=self.wrap(READER, bundle.reader),
                reranker=self.wrap(RERANKER, bundle.reranker),
            )

        return traced_factory

    # -- derived figures -------------------------------------------------

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.end - span.start
        totals: dict[str, float] = {}
        for span, inner in zip(self.spans, child):
            totals[span.name] = totals.get(span.name, 0.0) + (span.end - span.start) - inner
        return totals

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for i, s in enumerate(self.spans):
                record = {"i": i, "name": s.name, "start": s.start, "end": s.end,
                          "parent": s.parent, "qid": s.qid}
                out.write(json.dumps(record) + "\n")


def _traced_search_topk(tracer: Tracer, original):
    timed = tracer.wrap(TOPK, original)

    def search_topk(index, query, k):
        tracer.query_terms += len(query)
        return timed(index, query, k)

    return search_topk


def _traced_build_oracle_query(tracer: Tracer, original):
    # build_oracle_query binds its rank function as a default argument when
    # it is defined, so patching iterqa.search.rank_of would count nothing.
    # Count through the rank_fn parameter instead, wrapping whatever the
    # caller passed or, failing that, the function's own default.
    default_rank_fn = inspect.signature(original).parameters["rank_fn"].default
    timed = tracer.wrap(ORACLE, original)

    def build_oracle_query(index, path_tokens, target, rank_fn=None):
        evals = 0
        timed_rank = tracer.wrap(RANK, rank_fn or default_rank_fn)

        def counting_rank_fn(*args):
            nonlocal evals
            evals += 1
            return timed_rank(*args)

        try:
            query = timed(index, path_tokens, target, rank_fn=counting_rank_fn)
        except iterqa.oracle.UntrainableExample:
            tracer.oracle_calls.append(OracleCall(evals, path_tokens, target, None))
            raise
        tracer.oracle_calls.append(OracleCall(evals, path_tokens, target, query.achieved_rank))
        return query

    return build_oracle_query


def _traced_run_question(tracer: Tracer, original):
    timed = tracer.wrap(PIPELINE, original)

    def run_question(*args, **kwargs):
        result = timed(*args, **kwargs)
        tracer.steps += len(result.steps)
        tracer.paragraphs_retrieved += result.paragraphs_retrieved
        return result

    return run_question


def _sites(tracer: Tracer):
    """(module, attribute, wrapper maker) for every traced lookup site."""
    return [
        (iterqa.corpus, "load_corpus", partial(tracer.wrap, CORPUS_LOAD)),
        (iterqa.search, "build_index", partial(tracer.wrap, INDEX_BUILD)),
        (iterqa.search, "save_index", partial(tracer.wrap, INDEX_SAVE)),
        (iterqa.search, "load_index", partial(tracer.wrap, INDEX_LOAD)),
        (iterqa.pipeline, "search_topk", partial(_traced_search_topk, tracer)),
        (iterqa.models, "build_oracle_query", partial(_traced_build_oracle_query, tracer)),
        (iterqa.pipeline, "run_question", partial(_traced_run_question, tracer)),
    ]


@contextlib.contextmanager
def traced_api(tracer: Tracer):
    """Record spans for every traced public callable while the block runs.

    A lookup site that no longer exists raises AttributeError, rather than
    leaving that layer's counts at zero.
    """
    saved = []
    try:
        for module, attr, make_wrapper in _sites(tracer):
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, make_wrapper(original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
