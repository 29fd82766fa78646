import json
import math
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest

from conftest import corpus_from, oracle_retriever
from iterqa.metrics import normalize_answer
from iterqa.models import (
    NO, NOANSWER, SPAN, YES, GoldReader, LexicalReranker, ModelBundle, build_model_factory,
    serialize_path,
)
from iterqa.pipeline import (
    ANSWERED,
    EXHAUSTED,
    AnswerRecord,
    ConfigError,
    ModelOutputError,
    PipelineConfig,
    QuestionExample,
    RunResult,
    StepOutcome,
    generate_training_traces,
    initial_path,
    run_question,
    step_log_record,
    trace_record,
)
from iterqa.search import SearchHit, build_index
from iterqa.synth import make_chain_benchmark


TOAD_RECORDS = [
    {"article_id": "genus", "title": "Ingerophrynus", "order": 0,
     "text": "Ingerophrynus is a genus of true toads. The species Ingerophrynus gollum "
             "joined this genus, named for a character created by J. R. R. Tolkien."},
    {"article_id": "gollumtoad", "title": "Ingerophrynus gollum", "order": 0,
     "text": "Ingerophrynus gollum is a toad species named after the character Gollum "
             "from The Lord of the Rings by J. R. R. Tolkien."},
    {"article_id": "lotr", "title": "The Lord of the Rings", "order": 0,
     "text": "The Lord of the Rings is a fantasy novel by J. R. R. Tolkien that has "
             "sold 150 million copies worldwide."},
    {"article_id": "dist1", "title": "Garden Pond", "order": 0,
     "text": "garden ponds attract frogs and newts in early spring"},
    {"article_id": "dist2", "title": "Best Sellers", "order": 0,
     "text": "lists of best selling books are compiled by newspapers"},
]

TOAD_QUESTION = (
    "The Ingerophrynus gollum is named after a character in a book that sold how many copies?"
)


def toad_setup():
    corpus = corpus_from(TOAD_RECORDS)
    index = build_index(corpus)
    gold = ("gollumtoad#0", "lotr#0")
    models = ModelBundle(
        retriever=oracle_retriever(index, corpus, gold),
        reader=GoldReader(["150 million copies"], gold),
        reranker=LexicalReranker(index),
    )
    return corpus, index, models


def one_hop_setup():
    corpus = corpus_from([
        {"article_id": "tower", "title": "Old Tower", "order": 0,
         "text": "the old tower holds the bronze bell above the square"},
        {"article_id": "d1", "title": "D1", "order": 0,
         "text": "a cracked bell lies in the meadow museum"},
        {"article_id": "d2", "title": "D2", "order": 0,
         "text": "market stalls fill the square on filler days"},
    ])
    index = build_index(corpus)
    models = ModelBundle(
        retriever=oracle_retriever(index, corpus, ("tower#0",)),
        reader=GoldReader(["bronze bell"], {"tower#0"}),
        reranker=LexicalReranker(index),
    )
    return corpus, index, models


# ---------------------------------------------------------------------------
# reasoning path basics
# ---------------------------------------------------------------------------

def test_initial_path_is_question_only():
    path = initial_path("who")
    assert path.question == "who"
    assert path.steps == ()


def test_path_rejects_duplicate_paragraphs():
    corpus, _, _ = one_hop_setup()
    path = initial_path("q").extended(corpus.paragraphs["tower#0"])
    with pytest.raises(ValueError):
        path.extended(corpus.paragraphs["tower#0"])


def test_path_tokens_cover_question_titles_and_texts():
    corpus, _, _ = one_hop_setup()
    path = initial_path("Where is the bell?").extended(corpus.paragraphs["tower#0"])
    tokens = path.path_tokens()
    assert tokens[:5] == ["where", "is", "the", "bell"][:4] + ["old"]
    assert "tower" in tokens and "bronze" in tokens


# ---------------------------------------------------------------------------
# one step of the loop
# ---------------------------------------------------------------------------

def test_step_answer_branch_has_no_chosen_paragraph():
    corpus, index, models = one_hop_setup()
    result = run_question("where is the bronze bell in the old tower", corpus, index, models)
    (outcome,) = result.steps
    assert outcome.answer is not None
    assert outcome.chosen_paragraph is None
    assert outcome.exhausted_reason is None
    assert result.final_path.step_ids() == outcome.answer.path_snapshot == ("tower#0",)
    assert outcome.answer.answerability == 10.0


def test_step_append_branch_uses_reranker_argmax():
    corpus, index, models = toad_setup()
    path = initial_path(TOAD_QUESTION)
    result = run_question(TOAD_QUESTION, corpus, index, models, PipelineConfig(k_cap=1))
    (outcome,) = result.steps
    assert outcome.answer is None
    assert outcome.chosen_paragraph is not None
    assert outcome.exhausted_reason is None
    assert result.final_path.step_ids() == (outcome.chosen_paragraph,)
    scores = {
        pid: models.reranker(path, corpus.paragraphs[pid])
        for pid, _ in outcome.candidate_answerabilities
    }
    best = min(scores, key=lambda pid: (-scores[pid], pid))
    assert outcome.chosen_paragraph == best


def test_step_reranker_tie_goes_to_the_smallest_id():
    corpus, index, models = toad_setup()
    models = ModelBundle(models.retriever, models.reader, lambda path, para: 1.0)
    result = run_question(TOAD_QUESTION, corpus, index, models, PipelineConfig(k_cap=1))
    (outcome,) = result.steps
    assert len(outcome.candidate_answerabilities) > 1
    assert outcome.chosen_paragraph == min(pid for pid, _ in outcome.candidate_answerabilities)


def test_step_best_candidate_tie_goes_to_the_smallest_id():
    corpus, index, models = toad_setup()
    # Every candidate extension reads the same: SPAN at answerability -11.0.
    reader = GoldReader(["never present"], {"absent#0"})
    models = ModelBundle(models.retriever, reader, models.reranker)
    result = run_question(TOAD_QUESTION, corpus, index, models, PipelineConfig(fixed_steps=1))
    (outcome,) = result.steps
    scores = {score for _, score in outcome.candidate_answerabilities}
    assert scores == {-11.0} and len(outcome.candidate_answerabilities) > 1
    first = min(pid for pid, _ in outcome.candidate_answerabilities)
    assert result.answer.path_snapshot == (first,)


def exhausted_run(retriever):
    """A one-hop run with ``retriever``, checked to end on an exhausted step."""
    corpus, index, _ = one_hop_setup()
    models = ModelBundle(
        retriever=retriever,
        reader=GoldReader(["x"], {"tower#0"}),
        reranker=LexicalReranker(index),
    )
    result = run_question("q", corpus, index, models)
    outcome = result.steps[-1]
    assert result.status == EXHAUSTED
    assert outcome.answer is None and outcome.chosen_paragraph is None
    assert outcome.best_candidate is None and outcome.candidate_answerabilities == ()
    assert result.final_path.step_ids() == tuple(s.chosen_paragraph for s in result.steps[:-1])
    return result


def test_step_empty_query_exhausts():
    result = exhausted_run(lambda path: [])
    assert result.final_path.steps == () and result.steps[-1].retrieved == ()
    assert [s.exhausted_reason for s in result.steps] == ["empty query"]


def test_step_no_results_exhausts():
    result = exhausted_run(lambda path: ["absentterm"])
    assert result.final_path.steps == () and result.steps[-1].retrieved == ()
    assert [s.exhausted_reason for s in result.steps] == ["no results"]


def test_step_no_new_candidates_exhausts():
    # tower#0 is the one hit, so once it is on the path no candidate is new.
    result = exhausted_run(lambda path: ["bronze"])
    assert result.final_path.step_ids() == ("tower#0",)
    assert [s.exhausted_reason for s in result.steps] == [None, "no new candidates"]
    # The exhausted step's search found tower#0, and the step records it.
    assert [h.paragraph_id for h in result.steps[-1].retrieved] == ["tower#0"]
    assert result.paragraphs_retrieved == 2


@pytest.mark.parametrize("output, problem", [
    ("old tower", "str, not a list of str"),
    (None, "NoneType, not a list of str"),
    (7, "int, not a list of str"),
    (["old", 7], "term 7 is not a str"),
    (("old", None), "term None is not a str"),
    ([b"old"], "term b'old' is not a str"),
], ids=["str", "none", "int", "int-term", "none-term", "bytes-term"])
def test_step_refuses_a_retriever_output_outside_its_contract(output, problem):
    corpus, index, models = toad_setup()
    models = ModelBundle(lambda path: output, models.reader, models.reranker)
    with pytest.raises(ModelOutputError) as raised:
        run_question(TOAD_QUESTION, corpus, index, models)
    assert str(raised.value) == f"retriever output for question {TOAD_QUESTION!r}: {problem}"


@pytest.mark.parametrize("score", [math.nan, math.inf, -math.inf, "1.0", None, 1j])
def test_step_refuses_a_reranker_score_outside_its_contract(score):
    corpus, index, models = toad_setup()
    models = ModelBundle(models.retriever, models.reader, lambda path, para: score)
    with pytest.raises(ModelOutputError) as raised:
        run_question(TOAD_QUESTION, corpus, index, models)
    assert str(raised.value).startswith(f"reranker output for question {TOAD_QUESTION!r}: ")
    assert str(raised.value).endswith(" is not a finite real number")


def span_in_first_paragraph(path, pick):
    """``pick(lo, hi)`` for the first paragraph's half-open token range on ``path``."""
    lo, hi = serialize_path(path).paragraphs[0]
    return pick(lo, hi)


def with_span(pick):
    return lambda out, path: replace(out, best_span=span_in_first_paragraph(path, pick))


def with_class(name, value):
    return lambda out, path: replace(out, class_logits={**out.class_logits, name: value})


@pytest.mark.parametrize("change, problem", [
    (lambda out, path: vars(out), "dict, not a ReaderOutput"),
    (lambda out, path: None, "NoneType, not a ReaderOutput"),
    (lambda out, path: replace(out, class_logits={k: v for k, v in out.class_logits.items()
                                                   if k != NO}),
     "} do not hold exactly SPAN, YES, NO and NOANSWER"),
    (with_class("MAYBE", 0.0), "} do not hold exactly SPAN, YES, NO and NOANSWER"),
    (with_class(SPAN, math.nan), "class logit SPAN nan is not a finite real number"),
    (with_class(NOANSWER, math.inf), "class logit NOANSWER inf is not a finite real number"),
    (with_class(YES, "1.0"), "class logit YES '1.0' is not a finite real number"),
    (lambda out, path: replace(out, start_logits=out.start_logits[:-1]),
     "start_logits do not hold one value per serialized token"),
    (lambda out, path: replace(out, end_logits=out.end_logits + (0.0,)),
     "end_logits do not hold one value per serialized token"),
    (lambda out, path: replace(out, end_logits=None),
     "end_logits do not hold one value per serialized token"),
    (with_span(lambda lo, hi: (lo + 1, lo)), "is neither (0, 0) nor inside one paragraph's tokens"),
    (with_span(lambda lo, hi: (lo, hi)), "is neither (0, 0) nor inside one paragraph's tokens"),
    (with_span(lambda lo, hi: (1, 1)), "is neither (0, 0) nor inside one paragraph's tokens"),
    (with_span(lambda lo, hi: (10**6, 10**6)),
     "best_span (1000000, 1000000) is neither (0, 0) nor inside one paragraph's tokens"),
    (with_span(lambda lo, hi: (float(lo), float(lo))),
     "is neither (0, 0) nor inside one paragraph's tokens"),
    (with_span(lambda lo, hi: [lo, lo]), "is neither (0, 0) nor inside one paragraph's tokens"),
    (lambda out, path: replace(out, start_logits=(math.nan,) + out.start_logits[1:]),
     "its answerability is NaN"),
], ids=["dict", "none", "missing-class", "extra-class", "nan-logit", "inf-logit", "str-logit",
        "short-start", "long-end", "no-end", "reversed-span", "span-past-paragraph",
        "span-in-question", "far-span", "float-span", "list-span", "nan-answerability"])
def test_step_refuses_a_reader_output_outside_its_contract(change, problem):
    corpus, index, models = toad_setup()
    gold = models.reader
    models = ModelBundle(models.retriever, lambda path: change(gold(path), path), models.reranker)
    with pytest.raises(ModelOutputError) as raised:
        run_question(TOAD_QUESTION, corpus, index, models)
    message = str(raised.value)
    assert message.startswith(f"reader output for question {TOAD_QUESTION!r}: ")
    assert re.search(f"{re.escape(problem)}.*, reading '[^']+'$", message), message


@pytest.mark.parametrize("change", [
    with_span(lambda lo, hi: (0, 0)),
    with_span(lambda lo, hi: (lo, hi - 1)),
    with_span(lambda lo, hi: (hi - 1, hi - 1)),
    lambda out, path: replace(out, start_logits=list(out.start_logits),
                              class_logits={k: int(v) for k, v in out.class_logits.items()}),
], ids=["no-span", "whole-paragraph", "last-token", "lists-and-ints"])
def test_step_accepts_reader_outputs_inside_the_contract(change):
    corpus, index, models = toad_setup()
    gold = models.reader
    models = ModelBundle(models.retriever, lambda path: change(gold(path), path), models.reranker)
    assert run_question(TOAD_QUESTION, corpus, index, models, PipelineConfig(k_cap=2)).steps


@pytest.mark.parametrize("retriever_output, score", [
    (("ingerophrynus", "gollum"), 3),
    (iter(["ingerophrynus", "gollum"]), True),
    (["ingerophrynus", "gollum"], -2.5),
], ids=["tuple-int", "iterator-bool", "list-float"])
def test_step_accepts_outputs_inside_the_contract(retriever_output, score):
    corpus, index, models = toad_setup()
    models = ModelBundle(lambda path: retriever_output, models.reader, lambda path, para: score)
    result = run_question(TOAD_QUESTION, corpus, index, models, PipelineConfig(k_cap=1))
    (outcome,) = result.steps
    assert outcome.query_used == ("ingerophrynus", "gollum")
    assert outcome.chosen_paragraph is not None


# ---------------------------------------------------------------------------
# run_question
# ---------------------------------------------------------------------------

def test_one_hop_answers_in_single_step():
    corpus, index, models = one_hop_setup()
    result = run_question("where is the bronze bell in the old tower", corpus, index, models)
    assert result.status == ANSWERED
    assert len(result.answer.path_snapshot) == 1
    assert normalize_answer(result.answer.text) == normalize_answer("bronze bell")


def test_two_hop_toad_question_answered():
    corpus, index, models = toad_setup()
    result = run_question(TOAD_QUESTION, corpus, index, models, PipelineConfig(k_cap=5))
    assert result.status == ANSWERED
    assert normalize_answer(result.answer.text) == normalize_answer("150 million copies")
    assert len(result.answer.path_snapshot) <= 5
    assert {"gollumtoad#0", "lotr#0"} <= set(result.answer.path_snapshot)


def test_planted_two_hop_chain_takes_exactly_two_steps():
    corpus = corpus_from([
        {"article_id": "hop1", "title": "Quorind Vale", "order": 0,
         "text": "the quorind vale opens toward the braxmoor heath past the mill"},
        {"article_id": "hop2", "title": "Braxmoor Heath", "order": 0,
         "text": "the braxmoor heath hides the silver chalice under the cairn"},
        {"article_id": "d1", "title": "D1", "order": 0, "text": "a mill by a stream"},
        {"article_id": "d2", "title": "D2", "order": 0, "text": "sheep graze on the heath"},
    ])
    index = build_index(corpus)
    gold = ("hop1#0", "hop2#0")
    models = ModelBundle(
        retriever=oracle_retriever(index, corpus, gold),
        reader=GoldReader(["silver chalice"], gold),
        reranker=LexicalReranker(index),
    )
    result = run_question("what is hidden beyond the quorind vale", corpus, index, models)
    assert result.status == ANSWERED
    assert result.answer.path_snapshot == ("hop1#0", "hop2#0")
    assert normalize_answer(result.answer.text) == "silver chalice"


def test_answer_precedence_no_steps_after_answering():
    corpus, index, models = one_hop_setup()
    result = run_question("where is the bronze bell in the old tower", corpus, index, models)
    assert result.steps[-1].answer is not None
    assert all(outcome.answer is None for outcome in result.steps[:-1])


def test_termination_within_k_cap():
    corpus, index, _ = one_hop_setup()
    # A reader that never answers forces the cap to end the run.
    models = ModelBundle(
        retriever=lambda path: ["old", "tower", "filler", "words"],
        reader=GoldReader(["never present"], {"tower#0", "d1#0", "d2#0"}),
        reranker=LexicalReranker(index),
    )
    result = run_question("anything", corpus, index, models, PipelineConfig(k_cap=2))
    assert result.status == EXHAUSTED
    assert len(result.final_path.steps) <= 2
    assert len(result.steps) <= 2


def test_exhausted_run_reports_best_attempt():
    corpus, index, _ = one_hop_setup()
    models = ModelBundle(
        retriever=lambda path: ["old", "tower"],
        reader=GoldReader(["missing answer"], {"tower#0"}),
        reranker=LexicalReranker(index),
    )
    result = run_question("q", corpus, index, models, PipelineConfig(k_cap=2))
    assert result.status == EXHAUSTED
    assert result.best_attempt is not None
    assert result.best_attempt.answerability <= 0.0
    assert result.prediction == result.best_attempt.text


def test_run_result_reads_its_totals_off_the_steps():
    records = [
        AnswerRecord("span", text, score, ())
        for text, score in (("a", -2.0), ("b", -1.0), ("c", -1.0), ("d", -3.0))
    ]
    hits = tuple(SearchHit(f"p{i}", 1.0) for i in range(3))
    steps = tuple(
        StepOutcome(("q",), hits[:i], chosen_paragraph=f"p{i}", best_candidate=record)
        for i, record in enumerate(records)
    ) + (StepOutcome(("q",), exhausted_reason="no results"),)
    result = RunResult(EXHAUSTED, None, steps, initial_path("q"))
    assert result.best_attempt is records[1]  # the earliest of the most answerable
    assert result.paragraphs_retrieved == 0 + 1 + 2 + 3
    assert [s.answer for s in steps] == [None] * 5
    assert StepOutcome(("q",), hits, best_candidate=records[0]).answer is records[0]


def test_recovery_after_nongold_first_step():
    corpus, index, models = toad_setup()
    baseline = models.reranker

    # A reranker that makes a mistake at step one: it picks a plausible but
    # non-gold paragraph, and scores like the baseline afterwards.
    def reranker(path, para):
        if not path.steps:
            return float(para.id == "genus#0")
        return baseline(path, para)

    models = ModelBundle(models.retriever, models.reader, reranker)
    result = run_question(TOAD_QUESTION, corpus, index, models)
    assert result.steps[0].chosen_paragraph == "genus#0"
    assert result.status == ANSWERED
    assert all(outcome.exhausted_reason is None for outcome in result.steps)
    assert normalize_answer(result.answer.text) == normalize_answer("150 million copies")
    assert "genus#0" in result.final_path.step_ids()  # the mistake stays on the path


def test_yes_no_answer_text_matches_kind():
    corpus, index, _ = one_hop_setup()
    models = ModelBundle(
        retriever=oracle_retriever(index, corpus, ("tower#0",)),
        reader=GoldReader(["yes"], {"tower#0"}, kind="yes"),
        reranker=LexicalReranker(index),
    )
    result = run_question("is the bell in the old tower", corpus, index, models)
    assert result.status == ANSWERED
    assert result.answer.kind == "yes"
    assert result.answer.text == "yes"
    assert result.answer.answerability == 10.0


def test_fixed_steps_forces_answer_at_exact_step():
    corpus, index, models = toad_setup()
    result = run_question(
        TOAD_QUESTION, corpus, index, models, PipelineConfig(fixed_steps=1)
    )
    assert result.status == ANSWERED
    assert len(result.answer.path_snapshot) == 1
    # At one step the gold pair cannot be complete, so the forced answer is
    # a low-confidence guess.
    assert result.answer.answerability <= 0.0


def test_fixed_steps_does_not_stop_early():
    corpus, index, _ = one_hop_setup()
    models = ModelBundle(
        retriever=lambda path: ["bell", "square"],
        reader=GoldReader(["bronze bell"], {"tower#0"}),
        reranker=LexicalReranker(index),
    )
    question = "where is the bronze bell in the old tower"
    dynamic = run_question(question, corpus, index, models)
    assert len(dynamic.answer.path_snapshot) == 1  # the reader is confident at step one
    forced = run_question(question, corpus, index, models, PipelineConfig(fixed_steps=2))
    assert forced.status == ANSWERED
    assert len(forced.answer.path_snapshot) == 2


def test_step_log_record_serializes():
    corpus, index, models = toad_setup()
    (outcome,) = run_question(TOAD_QUESTION, corpus, index, models, PipelineConfig(k_cap=1)).steps
    record = step_log_record(outcome)
    parsed = json.loads(json.dumps(record))
    assert parsed["query"] and parsed["retrieved"]
    assert "chosen" in parsed


def test_runs_do_not_depend_on_what_the_index_caches(chain_benchmark):
    # No rank depends on what the cache holds (the search module docstring),
    # so every question runs the same on a fresh index, on one warmed by a
    # full pass, and on one that admits no rank table.
    corpus, examples = chain_benchmark.corpus, chain_benchmark.examples

    def run_all(index):
        factory = build_model_factory({}, index, corpus)
        return [run_question(ex.question, corpus, index, factory(ex)) for ex in examples]

    index = build_index(corpus)
    fresh = run_all(index)
    assert index.rank_tables
    tableless = replace(index, rank_budget=0)
    assert run_all(index) == fresh == run_all(tableless)
    assert not tableless.rank_tables


@pytest.mark.parametrize("retriever", ["oracle", "baseline"])
def test_questions_run_on_threads_as_they_run_one_by_one(retriever):
    # Runs share only the index's caches (the module docstring). Four threads
    # fill one fresh index's caches at once, with a thread switch forced
    # about every bytecode, and every result equals a serial run's.
    benchmark = make_chain_benchmark(n_per_hop=(10, 10, 10), n_distractors=40, seed=13)
    corpus, examples = benchmark.corpus, benchmark.examples

    def runner():
        index = build_index(corpus)
        factory = build_model_factory({"retriever": retriever}, index, corpus)
        return lambda ex: run_question(ex.question, corpus, index, factory(ex))

    serial = list(map(runner(), examples))
    run = runner()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(run, ex) for ex in examples]
            threaded = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


# ---------------------------------------------------------------------------
# training traces
# ---------------------------------------------------------------------------

def trace_corpus():
    return corpus_from([
        {"article_id": "hop1", "title": "Quorind Vale", "order": 0,
         "text": "the quorind vale opens toward the braxmoor heath past the mill"},
        {"article_id": "hop2", "title": "Braxmoor Heath", "order": 0,
         "text": "the braxmoor heath hides the silver chalice under the cairn"},
        {"article_id": "d1", "title": "D1", "order": 0, "text": "the vale of another region"},
        {"article_id": "d2", "title": "D2", "order": 0, "text": "a heath with old cairns"},
        {"article_id": "d3", "title": "D3", "order": 0, "text": "mill wheels turn slowly"},
        {"article_id": "d4", "title": "D4", "order": 0, "text": "chalices of glass and clay"},
        {"article_id": "d5", "title": "D5", "order": 0, "text": "unrelated filler entirely"},
    ])


def two_hop_example():
    return QuestionExample(
        qid="t1",
        question="what is hidden beyond the quorind vale",
        answers=("silver chalice",),
        gold_ids=("hop1#0", "hop2#0"),
    )


def test_one_hop_trace_without_augmentation():
    corpus = trace_corpus()
    index = build_index(corpus)
    example = QuestionExample(
        qid="t0", question="what does the braxmoor heath hide",
        answers=("silver chalice",), gold_ids=("hop2#0",),
    )
    generation = generate_training_traces(
        corpus, index, [example], augment_nongold=False
    )
    assert len(generation.traces) == 1
    trace = generation.traces[0]
    assert trace.reader_label == "SPAN"
    assert trace.span is not None
    assert trace.variant == "gold"
    assert generation.skipped == []


def test_two_hop_traces_with_augmentation():
    corpus = trace_corpus()
    index = build_index(corpus)
    generation = generate_training_traces(corpus, index, [two_hop_example()])
    variants = [(t.variant, t.reader_label) for t in generation.traces]
    assert ("gold", "NOANSWER") in variants  # first hop, evidence incomplete
    assert ("gold", "SPAN") in variants      # final hop
    gold_traces = [t for t in generation.traces if t.variant == "gold"]
    recovery_traces = [t for t in generation.traces if t.variant == "recovery"]
    assert len(gold_traces) == 2
    assert 1 <= len(recovery_traces) <= 2
    for trace in recovery_traces:
        # The polluted path holds a non-gold paragraph, and the candidate
        # flags still mark gold paragraphs.
        assert any(pid not in ("hop1#0", "hop2#0") for pid in trace.path_state.step_ids())
        assert len(trace.candidates) == len(trace.gold_flags)


def test_traces_always_have_five_candidates():
    corpus = trace_corpus()
    index = build_index(corpus)
    generation = generate_training_traces(corpus, index, [two_hop_example()])
    for trace in generation.traces:
        assert len(trace.candidates) == 5
        for pid, flag in zip(trace.candidates, trace.gold_flags):
            assert flag == (pid in ("hop1#0", "hop2#0"))


def test_trace_candidates_padded_when_hits_are_few():
    corpus = corpus_from([
        {"article_id": "hop1", "title": "T", "order": 0, "text": "lonely zarquon word"},
        {"article_id": "d1", "title": "D1", "order": 0, "text": "aa bb"},
        {"article_id": "d2", "title": "D2", "order": 0, "text": "cc dd"},
        {"article_id": "d3", "title": "D3", "order": 0, "text": "ee ff"},
        {"article_id": "d4", "title": "D4", "order": 0, "text": "gg hh"},
        {"article_id": "d5", "title": "D5", "order": 0, "text": "ii jj"},
    ])
    index = build_index(corpus)
    example = QuestionExample(
        qid="t2", question="zarquon", answers=("word",), gold_ids=("hop1#0",),
    )
    generation = generate_training_traces(
        corpus, index, [example], PipelineConfig(k_cap=3, docs_per_step=2), augment_nongold=False
    )
    assert len(generation.traces[0].candidates) == 5


def test_untrainable_example_counted_and_skipped():
    corpus = trace_corpus()
    index = build_index(corpus)
    bad = QuestionExample(
        qid="bad", question="zz yy xx", answers=("a",), gold_ids=("d5#0",),
    )
    generation = generate_training_traces(
        corpus, index, [bad, two_hop_example()], augment_nongold=False
    )
    assert generation.skipped == ["bad"]
    assert {t.qid for t in generation.traces} == {"t1"}


def test_trace_walk_truncated_at_k_cap():
    corpus = trace_corpus()
    index = build_index(corpus)
    example = QuestionExample(
        qid="t3", question="what is hidden beyond the quorind vale",
        answers=("silver chalice",), gold_ids=("hop1#0", "hop2#0"),
    )
    generation = generate_training_traces(
        corpus, index, [example], PipelineConfig(k_cap=1), augment_nongold=False
    )
    assert len(generation.traces) == 1  # gold walk truncated at the cap


def test_trace_record_round_trips_json():
    corpus = trace_corpus()
    index = build_index(corpus)
    generation = generate_training_traces(corpus, index, [two_hop_example()])
    for trace in generation.traces:
        parsed = json.loads(json.dumps(trace_record(trace)))
        assert parsed["qid"] == trace.qid
        assert parsed["candidates"] == list(trace.candidates)


@pytest.mark.parametrize("field, value", [
    ("k_cap", -1), ("k_cap", 0), ("docs_per_step", 0),
    ("fixed_steps", 0), ("fixed_steps", -2), ("stop_threshold", math.nan),
])
def test_pipeline_config_rejects_out_of_range_values(field, value):
    rule = "a number" if field == "stop_threshold" else ">= 1"
    with pytest.raises(ConfigError, match=f"^{field} must be {rule}, got {value}$"):
        PipelineConfig(**{field: value})
