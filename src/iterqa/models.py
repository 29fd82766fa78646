"""Model contracts and deterministic baselines.

The pipeline needs three roles: a retriever (path -> query), a reader
(path -> class logits + span logits), and a reranker (path, candidate ->
score). A trained network would fill all three; here each role is a plain
callable, with lexical baselines and a gold-answer-aware reader so the
whole system runs and can be tested without any trained weights.

Also home to reasoning-path serialization and the answerability score that
drives dynamic stopping.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
from collections.abc import Sized
from dataclasses import dataclass
from functools import partial
from numbers import Integral, Real
from typing import TYPE_CHECKING, Callable, Collection, Sequence

from .corpus import Corpus, Paragraph, check_fields, is_str, tokenize
from .oracle import UntrainableExample, build_oracle_query
from .search import InvertedIndex, idf_paragraph

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from .pipeline import ReasoningPath

CLS = "[CLS]"
SEP = "[SEP]"
CONT = "[CONT]"

SPAN = "SPAN"
YES = "YES"
NO = "NO"
NOANSWER = "NOANSWER"

# Closed stopword list used by the lexical retriever baseline.
STOPWORDS = frozenset(
    """
    a about above after again against all am an and any are as at be because
    been before being below between both but by could did do does doing down
    during each few for from further had has have having he her here hers
    herself him himself his how i if in into is it its itself just me more
    most my myself no nor not of off on once only or other our ours ourselves
    out over own same she should so some such than that the their theirs them
    themselves then there these they this those through to too under until up
    very was we were what when where which while who whom why will with you
    your yours yourself yourselves
    """.split()
)


@dataclass(frozen=True)
class SerializedPath:
    """A reasoning path flattened to one token sequence.

    ``tokens`` are "[CLS] question [SEP] title1 [CONT] para1 [SEP] ...",
    each component split on whitespace, and ``paragraphs[t - 1]`` is the
    half-open token range of step t's paragraph text.
    """

    tokens: tuple[str, ...]
    paragraphs: tuple[tuple[int, int], ...]


def serialize_path(path: ReasoningPath, prefix: SerializedPath | None = None) -> SerializedPath:
    """Flatten a reasoning path into the reader's input format.

    ``prefix``, when given, is the serialization of the path without its
    last step; only that step is then added.
    """
    if prefix is None:
        tokens, paragraphs, steps = [CLS, *path.question.split(), SEP], [], path.steps
    else:
        tokens, paragraphs, steps = list(prefix.tokens), list(prefix.paragraphs), path.steps[-1:]
    for para in steps:
        tokens += para.title.split()
        tokens.append(CONT)
        start = len(tokens)
        tokens += para.text.split()
        paragraphs.append((start, len(tokens)))
        tokens.append(SEP)
    return SerializedPath(tuple(tokens), tuple(paragraphs))


@dataclass(frozen=True)
class ReaderOutput:
    """What a reader returns: four-way class logits plus per-token span logits.

    ``class_logits`` holds exactly SPAN, YES, NO and NOANSWER, as finite
    numbers, and the start and end logits one value per serialized token.
    ``best_span`` is the reader's answer, an inclusive (start, end) interval
    of the serialized path inside one paragraph's token range; (0, 0) - the
    [CLS] position - marks "no span".
    """

    class_logits: dict[str, float]
    start_logits: tuple[float, ...]
    end_logits: tuple[float, ...]
    best_span: tuple[int, int]


_CLASSES = frozenset((SPAN, YES, NO, NOANSWER))


def reader_problem(output, serialized: SerializedPath) -> str | None:
    """How a reader output for ``serialized`` breaks the ReaderOutput contract, or None.

    Apart from the paragraph ranges, the check reads only a few values. Each
    type test tries the type readers return before the slower ABC test.
    """
    if not isinstance(output, ReaderOutput):
        return f"{type(output).__name__}, not a ReaderOutput"
    logits = output.class_logits
    if not isinstance(logits, dict) or logits.keys() != _CLASSES:
        return f"class_logits {logits!r} do not hold exactly {SPAN}, {YES}, {NO} and {NOANSWER}"
    for name, value in logits.items():
        if not ((type(value) is float or isinstance(value, Real)) and math.isfinite(value)):
            return f"class logit {name} {value!r} is not a finite real number"
    n = len(serialized.tokens)
    for name in ("start_logits", "end_logits"):
        values = getattr(output, name)
        if not (type(values) is tuple or isinstance(values, Sized)) or len(values) != n:
            return f"{name} do not hold one value per serialized token ({n})"
    span = output.best_span
    if isinstance(span, tuple) and len(span) == 2:
        start, end = span
        if type(start) is type(end) is int or all(isinstance(i, Integral) for i in span):
            if span == (0, 0):
                return None
            for lo, hi in serialized.paragraphs:
                if lo <= start <= end < hi:
                    return None
    return f"best_span {span!r} is neither (0, 0) nor inside one paragraph's tokens"


def answerability_span(
    class_logits: dict[str, float],
    start_logits: Sequence[float],
    end_logits: Sequence[float],
    span: tuple[int, int],
) -> float:
    """Log-likelihood-ratio answerability for a span answer.

    Combines the SPAN-vs-NOANSWER class margin with half the start and end
    margins of the span over the no-span marker at position 0. Depends only
    on logit differences, so it is invariant to shifting all logits.
    """
    start, end = span
    return (
        class_logits[SPAN]
        - class_logits[NOANSWER]
        + (start_logits[start] - start_logits[0]) / 2.0
        + (end_logits[end] - end_logits[0]) / 2.0
    )


def answerability_yesno(class_logits: dict[str, float], which: str) -> float:
    """Answerability of a yes/no answer: its logit minus the NOANSWER logit."""
    if which not in (YES, NO):
        raise ValueError(f"which must be {YES!r} or {NO!r}, got {which!r}")
    return class_logits[which] - class_logits[NOANSWER]


def pick_answer(output: ReaderOutput) -> tuple[str, float]:
    """Most likely positive answer kind and its answerability.

    Exact ties between positive classes resolve SPAN, then YES, then NO.
    """
    # max() keeps the first of equals, and the tuple is in preference order.
    kind = max((SPAN, YES, NO), key=lambda c: output.class_logits[c])
    if kind == SPAN:
        score = answerability_span(
            output.class_logits, output.start_logits, output.end_logits, output.best_span
        )
    else:
        score = answerability_yesno(output.class_logits, kind)
    return kind.lower(), score


def _normalize_piece(piece: str) -> str:
    toks = tokenize(piece)
    return toks[0] if toks else ""


def find_answer_span(
    serialized: SerializedPath,
    answers: Sequence[str],
    paragraphs: Sequence[tuple[int, int]],
) -> tuple[int, int] | None:
    """First occurrence of any answer inside the given half-open token ranges.

    Matching compares normalized tokens, so case and surrounding
    punctuation in the serialized tokens do not break it. Returns global
    (start, end) token positions, inclusive, or None.
    """
    for lo, hi in paragraphs:
        normalized = [_normalize_piece(tok) for tok in serialized.tokens[lo:hi]]
        for answer in answers:
            want = tokenize(answer)
            if not want or len(want) > hi - lo:
                continue
            for start in range(hi - lo - len(want) + 1):
                if normalized[start : start + len(want)] == want:
                    return (lo + start, lo + start + len(want) - 1)
    return None


class LexicalRetriever:
    """Query generator: keep the highest-idf fraction of the path's tokens.

    Stopwords are dropped, path order is preserved, and the query is capped
    at ``MAX_QUERY_LEN`` tokens (highest idf first).
    """

    KEEP_FRACTION = 0.4
    MAX_QUERY_LEN = 20

    def __init__(self, index: InvertedIndex):
        self.index = index

    def __call__(self, path: ReasoningPath) -> list[str]:
        tokens = [t for t in path.path_tokens() if t not in STOPWORDS]
        if not tokens:
            return []
        idfs = [idf_paragraph(self.index, t) for t in tokens]
        ordered = sorted(idfs, reverse=True)
        keep_n = max(1, math.ceil(self.KEEP_FRACTION * len(ordered)))
        threshold = ordered[keep_n - 1]
        kept = [i for i, v in enumerate(idfs) if v >= threshold]
        if len(kept) > self.MAX_QUERY_LEN:
            by_value = sorted(kept, key=lambda i: (-idfs[i], i))[: self.MAX_QUERY_LEN]
            kept = sorted(by_value)
        return [tokens[i] for i in kept]


class LexicalReranker:
    """Idf-weighted overlap of a candidate with the question and last step."""

    def __init__(self, index: InvertedIndex):
        self.index = index

    def __call__(self, path: ReasoningPath, candidate: Paragraph) -> float:
        if not candidate.tokens:
            return 0.0
        reference = set(tokenize(path.question))
        if path.steps:
            reference |= set(path.steps[-1].tokens)
        shared = reference & set(candidate.tokens)
        # Sorted: a set's order, and so the float sum, varies with the hash
        # seed. Added left to right: sum() compensates float sums from
        # Python 3.12 on, so its result would vary with the interpreter.
        total = 0.0
        for term in sorted(shared):
            total += idf_paragraph(self.index, term)
        return total / math.sqrt(len(candidate.tokens))


class OracleRetriever:
    """Query generator backed by the dynamic oracle.

    Targets the first gold paragraph not yet on the path and builds the
    oracle query against it. Needs the question's gold paragraph ids, so it
    only exists for training-data generation and gold-annotated evaluation.
    Falls back to ``fallback``, the lexical baseline in every manifest, when
    the gold set is exhausted or shares no token with the path.
    """

    def __init__(
        self,
        index: InvertedIndex,
        corpus: Corpus,
        gold_ids: Sequence[str],
        fallback: Callable[[ReasoningPath], list[str]],
    ):
        self.index = index
        self.corpus = corpus
        self.gold_ids = tuple(gold_ids)
        self.fallback = fallback

    def __call__(self, path: ReasoningPath) -> list[str]:
        on_path = set(path.step_ids())
        target_id = next((g for g in self.gold_ids if g not in on_path), None)
        if target_id is None:
            return self.fallback(path)
        target = self.corpus.paragraphs[target_id]
        try:
            return list(build_oracle_query(self.index, path.path_tokens(), target).terms)
        except UntrainableExample:
            return self.fallback(path)


class GoldReader:
    """Reader for tests and gold-annotated evaluation.

    Produces a confidently answerable output (fixed +10 margin) only when
    every gold paragraph is on the path and, for span answers, a gold
    answer string occurs in the last appended paragraph; otherwise NOANSWER
    dominates.
    """

    MARGIN = 10.0

    def __init__(
        self,
        answers: Sequence[str],
        gold_ids: Collection[str],
        kind: str = "span",
    ):
        if kind not in ("span", "yes", "no"):
            raise ValueError(f"kind must be span, yes, or no, got {kind!r}")
        self.answers = tuple(answers)
        self.gold_ids = frozenset(gold_ids)
        self.kind = kind

    def __call__(self, path: ReasoningPath) -> ReaderOutput:
        serialized = path.serialized
        complete = bool(path.steps) and self.gold_ids <= set(path.step_ids())
        class_logits = {SPAN: -self.MARGIN, YES: -self.MARGIN, NO: -self.MARGIN, NOANSWER: 0.0}
        span = None
        if complete and self.kind == "span":
            span = find_answer_span(serialized, self.answers, serialized.paragraphs[-1:])
            if span is not None:
                class_logits[SPAN] = self.MARGIN
        elif complete:
            class_logits[YES if self.kind == "yes" else NO] = self.MARGIN
        n = len(serialized.tokens)
        start, end = (self._marker_logits(n, hot) for hot in span or (None, None))
        # Every interval ties on flat paragraph logits, so the earliest one wins.
        best = span or next(((lo, lo) for lo, hi in serialized.paragraphs if lo < hi), (0, 0))
        return ReaderOutput(class_logits, start, end, best)

    @staticmethod
    def _marker_logits(n: int, hot: int | None) -> tuple[float, ...]:
        # Position 0 (the no-span marker) and the hot position share the
        # peak logit, so the answerability margin stays exactly the class
        # margin while best_span still lands on the hot interval.
        logits = [0.0] * n
        logits[0] = 1.0
        if hot is not None:
            logits[hot] = 1.0
        return tuple(logits)


@dataclass(frozen=True)
class ModelBundle:
    """The three pluggable roles the pipeline consumes. All must be pure."""

    retriever: Callable[[ReasoningPath], list[str]]
    reader: Callable[[ReasoningPath], ReaderOutput]
    reranker: Callable[[ReasoningPath, Paragraph], float]


class ManifestError(ValueError):
    """A model manifest names an unknown implementation or is malformed."""


def _load_external(ref: str):
    module_name, _, attr = ref.partition(":")
    if not module_name or not attr:
        raise ManifestError(f"external model must be 'module:attribute', got {ref!r}")
    try:
        make = getattr(importlib.import_module(module_name), attr)
    except (ImportError, AttributeError) as exc:
        raise ManifestError(f"cannot load external model {ref!r}: {exc}") from exc
    if not callable(make):
        raise ManifestError(f"external model {ref!r} is {type(make).__name__}, not callable")
    try:
        inspect.signature(make).bind(None, None, None)
    except (TypeError, ValueError) as exc:  # ValueError: no signature, as for some builtins
        raise ManifestError(f"external model {ref!r} cannot be called with "
                            f"(example, index, corpus): {exc}") from None
    return make


_DEFAULT_ROLES = {"retriever": "oracle", "reader": "gold", "reranker": "baseline"}
_ROLE_FIELDS = tuple((role, is_str, "a string", name) for role, name in _DEFAULT_ROLES.items())


def _external_role(role: str, make: Callable, index: InvertedIndex, corpus: Corpus, example):
    """The role callable an external constructor returns for ``example``, refused
    (ManifestError, before the role is first called) when it is not callable."""
    model = make(example, index, corpus)
    if not callable(model):
        raise ManifestError(
            f"{role} for question {example.question!r}: the external constructor returned "
            f"{type(model).__name__}, not a callable"
        )
    return model


def build_model_factory(
    manifest: dict, index: InvertedIndex, corpus: Corpus
) -> Callable[[object], ModelBundle]:
    """Turn a manifest into a per-question ModelBundle factory.

    Manifest keys: ``retriever`` ("baseline", "oracle", or
    "external:module:attr"), ``reader`` ("gold" or external), ``reranker``
    ("baseline" or external); any other key is refused, and a missing one
    takes its ``_DEFAULT_ROLES`` name. An external attribute must be
    callable with (example, index, corpus); that call gives the role
    callable (see ``_external_role``). Gold-aware roles read ``gold_ids``,
    ``answers`` and ``answer_kind`` off the example. Every role is resolved
    here, so a bad manifest raises ManifestError before any question runs.
    """
    unknown = sorted(manifest.keys() - _DEFAULT_ROLES.keys())
    if unknown:
        raise ManifestError(f"unknown manifest key {unknown[0]!r}")
    # The lexical roles are pure and the same for every question, so each is built once.
    lexical, reranker = LexicalRetriever(index), LexicalReranker(index)
    builtin = {  # (role, name) -> constructor: example -> role callable
        ("retriever", "baseline"): lambda ex: lexical,
        ("retriever", "oracle"): lambda ex: OracleRetriever(index, corpus, ex.gold_ids, lexical),
        ("reader", "gold"): lambda ex: GoldReader(ex.answers, ex.gold_ids, ex.answer_kind),
        ("reranker", "baseline"): lambda ex: reranker,
    }
    constructors = {}
    names = check_fields(manifest, _ROLE_FIELDS, ManifestError, "")
    for role, name in zip(_DEFAULT_ROLES, names):
        if name.startswith("external:"):
            constructors[role] = partial(
                _external_role, role, _load_external(name[len("external:"):]), index, corpus
            )
        elif (role, name) in builtin:
            constructors[role] = builtin[role, name]
        else:
            raise ManifestError(f"unknown {role} {name!r}")

    def factory(example) -> ModelBundle:
        return ModelBundle(**{role: make(example) for role, make in constructors.items()})

    return factory


def load_manifest(path) -> dict:
    with open(path, encoding="utf-8") as handle:
        try:
            manifest = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ManifestError(f"not JSON: {exc}") from None
        except UnicodeDecodeError:
            raise ManifestError("not UTF-8 text") from None
    if not isinstance(manifest, dict):
        raise ManifestError("not a JSON object")
    return manifest
