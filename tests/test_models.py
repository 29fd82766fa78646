import math
import os
import random
import subprocess
import sys

import pytest

from conftest import corpus_from, oracle_retriever
from iterqa.corpus import tokenize
from iterqa.models import (
    CLS,
    CONT,
    GoldReader,
    LexicalReranker,
    LexicalRetriever,
    ManifestError,
    NO,
    NOANSWER,
    OracleRetriever,
    ReaderOutput,
    SEP,
    SPAN,
    STOPWORDS,
    YES,
    answerability_span,
    answerability_yesno,
    build_model_factory,
    find_answer_span,
    pick_answer,
    serialize_path,
)
from iterqa.pipeline import QuestionExample, initial_path
from iterqa.search import build_index, idf_paragraph
from iterqa.synth import make_chain_benchmark


FIXTURE_RECORDS = [
    {"article_id": "alpha", "title": "Alpha Ridge", "order": 0,
     "text": "the alpha ridge rises over the beta marsh to the north"},
    {"article_id": "beta", "title": "Beta Marsh", "order": 0,
     "text": "the beta marsh holds the rare orchid bloom every spring"},
    {"article_id": "gamma", "title": "Gamma Flats", "order": 0,
     "text": "dry plains with scattered stones and little rain"},
]


@pytest.fixture()
def fixture_corpus():
    return corpus_from(FIXTURE_RECORDS)


@pytest.fixture()
def fixture_index(fixture_corpus):
    return build_index(fixture_corpus)


def path_with(corpus, question, ids):
    path = initial_path(question)
    for pid in ids:
        path = path.extended(corpus.paragraphs[pid])
    return path


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_serialize_zero_step_path():
    sp = serialize_path(initial_path("who did it"))
    assert sp.tokens == ("[CLS]", "who", "did", "it", "[SEP]")
    assert sp.paragraphs == ()


def test_serialize_one_paragraph_block(fixture_corpus):
    path = path_with(fixture_corpus, "where is the orchid", ["beta#0"])
    sp = serialize_path(path)
    expected = (
        "[CLS] where is the orchid [SEP] Beta Marsh [CONT] "
        + FIXTURE_RECORDS[1]["text"]
        + " [SEP]"
    )
    assert sp.tokens == tuple(expected.split(" "))
    # Nine tokens up to [CONT], then the ten words of the text.
    assert sp.paragraphs == ((9, 19),)


def parse_serialized(sp):
    """Test oracle: reconstruct components from the tokens and paragraph ranges."""
    question_end = sp.tokens.index(SEP)
    question = " ".join(sp.tokens[1:question_end])
    blocks = []
    title_start = question_end + 1
    for lo, hi in sp.paragraphs:
        assert sp.tokens[lo - 1] == CONT and sp.tokens[hi] == SEP
        blocks.append((" ".join(sp.tokens[title_start : lo - 1]), " ".join(sp.tokens[lo:hi])))
        title_start = hi + 1
    assert sp.tokens[0] == CLS and title_start == len(sp.tokens)
    return question, blocks


def test_serialize_round_trip(fixture_corpus):
    rng = random.Random(51)
    ids = sorted(fixture_corpus.paragraphs)
    for _ in range(20):
        chosen = rng.sample(ids, rng.randint(0, len(ids)))
        question = " ".join(rng.choices(["who", "found", "the", "rare", "bloom"], k=5))
        path = path_with(fixture_corpus, question, chosen)
        question_back, blocks = parse_serialized(serialize_path(path))
        assert question_back == question
        assert [b[0] for b in blocks] == [fixture_corpus.paragraphs[p].title for p in chosen]
        assert [b[1] for b in blocks] == [fixture_corpus.paragraphs[p].text for p in chosen]


def test_serialize_extending_a_prefix_equals_serializing_the_path(fixture_corpus):
    rng = random.Random(52)
    ids = sorted(fixture_corpus.paragraphs)
    for _ in range(20):
        chosen = rng.sample(ids, rng.randint(1, len(ids)))
        path = path_with(fixture_corpus, "who found the bloom", chosen[:-1])
        prefix = serialize_path(path)
        extended = path.extended(fixture_corpus.paragraphs[chosen[-1]])
        assert serialize_path(extended, prefix) == serialize_path(extended)
        assert serialize_path(path) == prefix  # the prefix is not changed
        assert extended.serialized == serialize_path(extended)  # seeded from path's


def test_serialize_special_tokens_in_text_survive_round_trip():
    corpus = corpus_from([
        {"article_id": "odd", "title": "Odd", "order": 0, "text": "contains [SEP] literally"},
    ])
    path = path_with(corpus, "what", ["odd#0"])
    _, blocks = parse_serialized(serialize_path(path))
    assert blocks[0][1] == "contains [SEP] literally"


# ---------------------------------------------------------------------------
# answerability
# ---------------------------------------------------------------------------

def zero_logits(n):
    return tuple([0.0] * n)


def test_answerability_span_all_zero():
    logits = {SPAN: 0.0, YES: 0.0, NO: 0.0, NOANSWER: 0.0}
    assert answerability_span(logits, zero_logits(4), zero_logits(4), (1, 2)) == 0.0


def test_answerability_span_worked_example():
    class_logits = {SPAN: 2.0, YES: 0.0, NO: 0.0, NOANSWER: -1.0}
    start = (1.0, 0.0, 3.0, 0.0)
    end = (0.5, 0.0, 0.0, 2.5)
    assert answerability_span(class_logits, start, end, (2, 3)) == 5.0


def test_answerability_span_translation_invariant():
    class_logits = {SPAN: 2.0, YES: -1.5, NO: 0.25, NOANSWER: -1.0}
    start = (1.0, 0.5, 3.0, -0.75)
    end = (0.5, -2.0, 0.0, 2.5)
    base = answerability_span(class_logits, start, end, (2, 3))
    for c in (1.0, -2.5, 100.0, 0.125):
        shifted_class = {k: v + c for k, v in class_logits.items()}
        shifted_start = tuple(v + c for v in start)
        shifted_end = tuple(v + c for v in end)
        assert answerability_span(shifted_class, shifted_start, shifted_end, (2, 3)) == base


def test_answerability_yesno():
    assert answerability_yesno({YES: 1.0, NO: 0.0, SPAN: 0.0, NOANSWER: 1.0}, YES) == 0.0
    assert answerability_yesno({YES: 2.5, NO: 0.0, SPAN: 0.0, NOANSWER: -0.5}, YES) == 3.0
    logits = {YES: 2.5, NO: 1.25, SPAN: 0.0, NOANSWER: -0.5}
    shifted = {k: v + 4.75 for k, v in logits.items()}
    assert answerability_yesno(shifted, NO) == answerability_yesno(logits, NO)
    with pytest.raises(ValueError):
        answerability_yesno(logits, SPAN)


def make_output(span_l, yes_l, no_l, noanswer_l):
    class_logits = {SPAN: span_l, YES: yes_l, NO: no_l, NOANSWER: noanswer_l}
    return ReaderOutput(class_logits, (0.0, 1.0), (0.0, 1.0), (1, 1))


def test_pick_answer_argmax_cases():
    kind, score = pick_answer(make_output(0.0, 3.0, 0.0, 1.0))
    assert (kind, score) == ("yes", 2.0)
    kind, score = pick_answer(make_output(4.0, 1.0, 0.0, 1.0))
    assert kind == "span"
    assert score == (4.0 - 1.0) + 0.5 + 0.5


def test_pick_answer_tie_order_exhaustive():
    for span_l in (0.0, 1.0, 2.0):
        for yes_l in (0.0, 1.0, 2.0):
            for no_l in (0.0, 1.0, 2.0):
                kind, _ = pick_answer(make_output(span_l, yes_l, no_l, 0.0))
                top = max(span_l, yes_l, no_l)
                if span_l == top:
                    assert kind == "span"
                elif yes_l == top:
                    assert kind == "yes"
                else:
                    assert kind == "no"


def test_pick_answer_kind_invariant_under_positive_scaling():
    rng = random.Random(52)
    for _ in range(50):
        logits = [rng.uniform(-3, 3) for _ in range(4)]
        base = make_output(*logits)
        scaled = make_output(*[2.5 * v for v in logits])
        assert pick_answer(base)[0] == pick_answer(scaled)[0]


# ---------------------------------------------------------------------------
# find_answer_span
# ---------------------------------------------------------------------------

def test_find_answer_span_normalized_match(fixture_corpus):
    path = path_with(fixture_corpus, "what blooms", ["beta#0"])
    sp = serialize_path(path)
    span = find_answer_span(sp, ["Rare Orchid"], sp.paragraphs)
    assert span is not None
    start, end = span
    assert [t.lower() for t in sp.tokens[start : end + 1]] == ["rare", "orchid"]


def test_find_answer_span_absent():
    corpus = corpus_from([{"article_id": "a", "title": "A", "order": 0, "text": "plain words"}])
    path = path_with(corpus, "q", ["a#0"])
    sp = serialize_path(path)
    assert find_answer_span(sp, ["missing"], sp.paragraphs) is None


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------

def test_retriever_keeps_rare_term(fixture_corpus, fixture_index):
    retriever = LexicalRetriever(fixture_index)
    path = initial_path("where is the orchid")
    query = retriever(path)
    assert "orchid" in query
    assert all(t not in STOPWORDS for t in query)


def test_retriever_query_is_subsequence_of_path(fixture_corpus, fixture_index):
    rng = random.Random(53)
    words = ["orchid", "ridge", "marsh", "rain", "the", "a", "spring", "stones"]
    retriever = LexicalRetriever(fixture_index)
    for _ in range(40):
        path = initial_path(" ".join(rng.choices(words, k=rng.randint(1, 12))))
        query = retriever(path)
        tokens = path.path_tokens()
        it = iter(tokens)
        assert all(term in it for term in query)  # subsequence check


def test_retriever_stopword_only_path_yields_empty(fixture_index):
    retriever = LexicalRetriever(fixture_index)
    assert retriever(initial_path("the of and")) == []


def test_retriever_caps_query_length(fixture_index):
    long_question = " ".join(f"uniqword{i}" for i in range(40))
    query = LexicalRetriever(fixture_index)(initial_path(long_question))
    assert len(query) == LexicalRetriever.MAX_QUERY_LEN == 20


def test_reranker_no_overlap_is_zero(fixture_corpus, fixture_index):
    reranker = LexicalReranker(fixture_index)
    path = initial_path("zz qq ww")
    assert reranker(path, fixture_corpus.paragraphs["gamma#0"]) == 0.0


def test_reranker_matches_brute_force(fixture_corpus, fixture_index):
    reranker = LexicalReranker(fixture_index)
    path = path_with(fixture_corpus, "where is the rare orchid", ["alpha#0"])
    for pid, para in fixture_corpus.paragraphs.items():
        reference = set(tokenize(path.question)) | set(fixture_corpus.paragraphs["alpha#0"].tokens)
        expected = sum(
            idf_paragraph(fixture_index, t) for t in set(para.tokens) & reference
        ) / math.sqrt(len(para.tokens))
        assert reranker(path, para) == pytest.approx(expected, abs=1e-12)


def test_reranker_adds_idfs_left_to_right_in_sorted_term_order():
    # sum() compensates float sums from Python 3.12 on, so on those
    # interpreters it differs from left-to-right addition on many lists.
    bench = make_chain_benchmark(n_per_hop=(20, 20, 20), n_distractors=20, seed=13)
    index = build_index(bench.corpus)
    reranker = LexicalReranker(index)
    for example in bench.examples[:12]:
        gold = bench.corpus.paragraphs[example.gold_ids[0]]
        path = initial_path(example.question).extended(gold)
        reference = set(tokenize(example.question)) | set(gold.tokens)
        for para in bench.corpus.paragraphs.values():
            total = 0.0
            for term in sorted(reference & set(para.tokens)):
                total += idf_paragraph(index, term)
            assert reranker(path, para) == total / math.sqrt(len(para.tokens))


RERANKER_SCORES_SNIPPET = """
from iterqa.models import LexicalReranker
from iterqa.pipeline import initial_path
from iterqa.search import build_index
from iterqa.synth import make_chain_benchmark

bench = make_chain_benchmark(n_per_hop=(20, 20, 20), n_distractors=20, seed=13)
reranker = LexicalReranker(build_index(bench.corpus))
scores = []
for example in bench.examples:
    path = initial_path(example.question).extended(bench.corpus.paragraphs[example.gold_ids[0]])
    scores.extend(reranker(path, para) for para in bench.corpus.paragraphs.values())
print(repr(scores))
"""


def test_reranker_scores_do_not_depend_on_hash_seed():
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-c", RERANKER_SCORES_SNIPPET],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]


def test_reranker_more_overlap_wins(fixture_corpus, fixture_index):
    corpus = corpus_from(FIXTURE_RECORDS + [
        {"article_id": "echo", "title": "Echo", "order": 0,
         "text": "the rare orchid bloom marsh beta spring"},
        {"article_id": "foxtrot", "title": "Foxtrot", "order": 0,
         "text": "the rare stone walls here by night"},
    ])
    index = build_index(corpus)
    reranker = LexicalReranker(index)
    path = initial_path("the rare orchid bloom of the beta marsh in spring")
    strong = reranker(path, corpus.paragraphs["echo#0"])
    weak = reranker(path, corpus.paragraphs["foxtrot#0"])
    assert strong > weak


# ---------------------------------------------------------------------------
# gold reader / oracle retriever
# ---------------------------------------------------------------------------

def test_gold_reader_incomplete_path_noanswer(fixture_corpus):
    reader = GoldReader(["orchid bloom"], {"alpha#0", "beta#0"})
    path = path_with(fixture_corpus, "q", ["beta#0"])
    output = reader(path)
    kind, score = pick_answer(output)
    assert score < 0
    assert output.class_logits[NOANSWER] > output.class_logits[SPAN]


def test_gold_reader_complete_path_fixed_margin(fixture_corpus):
    reader = GoldReader(["orchid bloom"], {"beta#0"})
    path = path_with(fixture_corpus, "q", ["beta#0"])
    kind, score = pick_answer(reader(path))
    assert kind == "span"
    assert score == 10.0


def test_gold_reader_span_points_at_first_occurrence(fixture_corpus):
    corpus = corpus_from([
        {"article_id": "rep", "title": "Rep", "order": 0,
         "text": "echo comes first then echo comes again"},
    ])
    reader = GoldReader(["echo comes"], {"rep#0"})
    path = path_with(corpus, "q", ["rep#0"])
    output = reader(path)
    sp = serialize_path(path)
    # String-search oracle: earliest occurrence in the last paragraph.
    (lo, hi), = sp.paragraphs
    first = next(
        (i, i + 1)
        for i in range(lo, hi - 1)
        if sp.tokens[i] == "echo" and sp.tokens[i + 1] == "comes"
    )
    assert output.best_span == first


def test_gold_reader_requires_answer_in_last_paragraph(fixture_corpus):
    reader = GoldReader(["orchid bloom"], {"alpha#0", "beta#0"})
    path = path_with(fixture_corpus, "q", ["beta#0", "alpha#0"])  # answer not in last
    _, score = pick_answer(reader(path))
    assert score < 0


def test_gold_reader_yes_no(fixture_corpus):
    path = path_with(fixture_corpus, "q", ["alpha#0"])
    for kind_in, kind_out in (("yes", "yes"), ("no", "no")):
        reader = GoldReader(["yes"], {"alpha#0"}, kind=kind_in)
        kind, score = pick_answer(reader(path))
        assert (kind, score) == (kind_out, 10.0)


@pytest.mark.parametrize("answers, gold, kind, steps, raised, answer", [
    (["orchid bloom"], {"beta#0"}, "span", ["beta#0"], SPAN, ("orchid", "bloom")),
    (["orchid bloom"], {"alpha#0", "beta#0"}, "span", ["beta#0", "alpha#0"], None, None),
    (["yes"], {"alpha#0"}, "yes", ["alpha#0"], YES, None),
    (["no"], {"alpha#0"}, "no", ["alpha#0"], NO, None),
    (["orchid bloom"], {"alpha#0", "beta#0"}, "span", ["beta#0"], None, None),
    (["orchid bloom"], {"void#0", "alpha#0"}, "span", ["void#0", "alpha#0"], None, None),
    (["yes"], {"void#0"}, "yes", ["void#0"], YES, None),
], ids=["span-found", "span-not-in-last", "yes", "no", "incomplete", "empty-then-text",
        "only-empty"])
def test_gold_reader_output_is_pinned(answers, gold, kind, steps, raised, answer):
    # "void#0" has no text, so its token range is empty.
    corpus = corpus_from(FIXTURE_RECORDS + [
        {"article_id": "void", "title": "Void", "order": 0, "text": ""},
    ])
    path = path_with(corpus, "q", steps)
    sp = serialize_path(path)
    class_logits = {SPAN: -10.0, YES: -10.0, NO: -10.0, NOANSWER: 0.0}
    if raised is not None:
        class_logits[raised] = 10.0
    if answer is None:
        # Flat paragraph logits: the first position of a non-empty paragraph
        # is the best span, and with none the no-span marker (0, 0) is.
        best = next(((lo, lo) for lo, hi in sp.paragraphs if lo < hi), (0, 0))
        hot = (0, 0)
    else:
        best = hot = (sp.tokens.index(answer[0]), sp.tokens.index(answer[1]))
    start, end = ([1.0 if i in (0, h) else 0.0 for i in range(len(sp.tokens))] for h in hot)
    output = GoldReader(answers, gold, kind=kind)(path)
    assert list(output.class_logits.items()) == list(class_logits.items())
    assert output == ReaderOutput(class_logits, tuple(start), tuple(end), best)


def test_gold_reader_rejects_bad_kind():
    with pytest.raises(ValueError):
        GoldReader([], set(), kind="maybe")


def test_oracle_retriever_targets_next_gold(fixture_corpus, fixture_index):
    retriever = oracle_retriever(fixture_index, fixture_corpus, ["alpha#0", "beta#0"])
    query = retriever(initial_path("the alpha ridge"))
    # Oracle query comes from path/target overlap spans.
    assert "alpha" in query and "ridge" in query


def test_oracle_retriever_falls_back_when_gold_exhausted(fixture_corpus, fixture_index):
    retriever = oracle_retriever(fixture_index, fixture_corpus, ["alpha#0"])
    path = path_with(fixture_corpus, "where is the rare orchid", ["alpha#0"])
    query = retriever(path)
    assert query  # lexical fallback still produces terms
    assert "orchid" in query
    with pytest.raises(TypeError):  # the fallback has no default
        OracleRetriever(fixture_index, fixture_corpus, ["alpha#0"])


# ---------------------------------------------------------------------------
# manifest loading
# ---------------------------------------------------------------------------

def example_for(corpus):
    return QuestionExample(
        qid="x", question="where is the rare orchid",
        answers=("orchid bloom",), gold_ids=("beta#0",),
    )


def test_factory_default_roles(fixture_corpus, fixture_index):
    # The empty manifest takes every role's default: the same three roles.
    for manifest in ({"retriever": "oracle", "reader": "gold", "reranker": "baseline"}, {}):
        factory = build_model_factory(manifest, fixture_index, fixture_corpus)
        bundle = factory(example_for(fixture_corpus))
        assert isinstance(bundle.retriever, OracleRetriever)
        assert isinstance(bundle.reader, GoldReader)
        assert isinstance(bundle.reranker, LexicalReranker)


def test_factory_shares_one_lexical_retriever_as_the_oracle_fallback(fixture_corpus, fixture_index):
    factory = build_model_factory({"retriever": "oracle"}, fixture_index, fixture_corpus)
    first, second = (factory(example_for(fixture_corpus)).retriever for _ in range(2))
    assert first.fallback is second.fallback
    assert (first.fallback.KEEP_FRACTION, first.fallback.MAX_QUERY_LEN) == (0.4, 20)


def test_factory_unknown_role_rejected(fixture_corpus, fixture_index):
    with pytest.raises(ManifestError):
        build_model_factory({"retriever": "quantum"}, fixture_index, fixture_corpus)


def test_factory_external_loading(fixture_corpus, fixture_index):
    manifest = {"retriever": "external:conftest:external_retriever_factory"}
    factory = build_model_factory(manifest, fixture_index, fixture_corpus)
    bundle = factory(example_for(fixture_corpus))
    assert bundle.retriever(initial_path("q")) == ["external", "query"]


@pytest.mark.parametrize("name", ["ExternalRetriever", "varargs_factory", "defaults_factory"])
def test_factory_external_loading_takes_any_callable_of_three_arguments(
    fixture_corpus, fixture_index, name
):
    factory = build_model_factory(
        {"retriever": f"external:conftest:{name}"}, fixture_index, fixture_corpus
    )
    bundle = factory(example_for(fixture_corpus))
    assert bundle.retriever(initial_path("q")) == ["external", "query"]


def test_factory_bad_external_spec(fixture_corpus, fixture_index):
    with pytest.raises(ManifestError):
        build_model_factory(
            {"retriever": "external:no_such_module:attr"}, fixture_index, fixture_corpus
        )
