import json
import random
import sys
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TINY_CORPUS_RECORDS, corpus_from
from iterqa.bench import QuestionsFormatError, load_examples
from iterqa.corpus import IngestError, load_corpus, map_paragraph, tokenize
from iterqa.search import IndexFormatError, build_index, load_index, save_index


# ---------------------------------------------------------------------------
# tokenize
# ---------------------------------------------------------------------------

def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_strips_punctuation_and_lowercases():
    assert tokenize("The Great Gatsby (1925).") == ["the", "great", "gatsby", "1925"]


def test_tokenize_numbers():
    assert tokenize("150 million copies") == ["150", "million", "copies"]


def test_tokenize_keeps_internal_punctuation():
    assert tokenize("don't stop-gap!") == ["don't", "stop-gap"]


def test_tokenize_punctuation_only_pieces_vanish():
    assert tokenize("... -- ?!") == []


def test_tokenize_unicode_whitespace():
    assert tokenize("alpha beta\tgamma\ndelta") == ["alpha", "beta", "gamma", "delta"]


@settings(max_examples=500)
@given(text=st.text() | st.lists(
    st.sampled_from(["Hello,", "(World)", "it's", "1925.", "—", "A-B", "«quote»", "x", "…"])
).map(" ".join))
def test_tokenize_idempotent(text):
    once = tokenize(text)
    assert tokenize(" ".join(once)) == once


def reference_tokenize(text):
    """``tokenize`` without its fast path: every piece's ends are looked up."""
    tokens = []
    for piece in text.lower().split():
        start, end = 0, len(piece)
        while start < end and unicodedata.category(piece[start]).startswith("P"):
            start += 1
        while end > start and unicodedata.category(piece[end - 1]).startswith("P"):
            end -= 1
        if start < end:
            tokens.append(piece[start:end])
    return tokens


# Pieces near the fast path's edge: alphanumeric ends around inner punctuation,
# combining marks, a capital whose lowercase is two code points, CJK, Roman
# numerals, Arabic-Indic and superscript digits, and punctuation only.
TRICKY_PIECES = [
    "a.b", "don't", "U.S.A", "x-1", "e\u0301", "\u0301e", "(e\u0301)", "İ", "İstanbul",
    "ß", "東京", "「東京」", "Ⅻ", "ⅻ.", "٣٤٥", "(٣)", "x²", "²", "½", "...", "—", "«»", "(1925).",
]


@settings(max_examples=500)
@given(text=st.text() | st.lists(
    st.sampled_from(TRICKY_PIECES) | st.text(st.sampled_from("".join(TRICKY_PIECES)), max_size=4)
).map(" ".join))
def test_tokenize_equals_reference(text):
    assert tokenize(text) == reference_tokenize(text)


def test_tokenize_equals_reference_on_chain_corpus(chain_benchmark):
    for para in chain_benchmark.corpus.paragraphs.values():
        assert list(para.tokens) == reference_tokenize(para.text)


def test_no_code_point_is_alphanumeric_punctuation():
    # The fast path in tokenize is exact only while this holds.
    both = [hex(cp) for cp in range(sys.maxunicode + 1)
            if chr(cp).isalnum() and unicodedata.category(chr(cp)).startswith("P")]
    assert both == [], f"Unicode {unicodedata.unidata_version}"


# ---------------------------------------------------------------------------
# ingest_corpus
# ---------------------------------------------------------------------------

def test_ingest_counts():
    corpus = corpus_from([
        {"article_id": "a", "title": "A", "order": 0, "text": "one two"},
        {"article_id": "a", "title": "A", "order": 1, "text": "three"},
    ])
    assert len(corpus.paragraphs) == 2
    assert len(corpus.articles) == 1
    assert set(corpus.paragraphs) == {"a#0", "a#1"}


def test_ingest_missing_title_reports_line():
    with pytest.raises(IngestError, match="line 2"):
        corpus_from([
            {"article_id": "a", "title": "A", "order": 0, "text": "x"},
            {"article_id": "a", "order": 1, "text": "y"},
        ])


def test_ingest_reports_the_first_fault_in_field_order():
    # article_id comes before the missing text in the field table.
    with pytest.raises(IngestError, match="^line 1: article_id must be a non-empty string, "
                                          "got ''$"):
        corpus_from([{"article_id": "", "title": 3, "order": -1}])


def test_ingest_refuses_a_title_that_differs_from_its_articles():
    records = [
        {"article_id": "b", "title": "B", "order": 0, "text": "w"},
        {"article_id": "a", "title": "T", "order": 1, "text": "x"},
        {"article_id": "b", "title": "B", "order": 1, "text": "y"},
        {"article_id": "a", "title": "U", "order": 0, "text": "z"},
    ]
    with pytest.raises(IngestError, match="^line 4: title 'U' differs from 'T', "
                                          "the title of article 'a'$"):
        corpus_from(records)
    records[3]["title"] = "T"
    corpus = corpus_from(records)
    assert {p.title for p in corpus.paragraphs.values()} == {"B", "T"}
    assert corpus.articles["a"].title == "T"


def test_ingest_duplicate_order_rejected():
    with pytest.raises(IngestError, match="duplicate"):
        corpus_from([
            {"article_id": "a", "title": "A", "order": 0, "text": "x"},
            {"article_id": "a", "title": "A", "order": 0, "text": "y"},
        ])


def test_ingest_negative_order_rejected():
    with pytest.raises(IngestError):
        corpus_from([{"article_id": "a", "title": "A", "order": -1, "text": "x"}])


def test_article_tokens_concatenate_members():
    corpus = corpus_from([
        {"article_id": "a", "title": "A", "order": 1, "text": "Three four."},
        {"article_id": "a", "title": "A", "order": 0, "text": "One two"},
        {"article_id": "b", "title": "B", "order": 0, "text": "five"},
    ])
    article = corpus.articles["a"]
    assert [p.id for p in article.paragraphs] == ["a#0", "a#1"]
    expected = tokenize("One two") + tokenize("Three four.")
    assert [t for p in article.paragraphs for t in p.tokens] == expected
    assert [p.tokens for p in corpus.articles["b"].paragraphs] == [("five",)]


def test_paragraph_tokens_match_retokenization():
    corpus = corpus_from([
        {"article_id": "a", "title": "A", "order": 0, "text": "The Great Gatsby (1925)."},
    ])
    para = corpus.paragraphs["a#0"]
    assert list(para.tokens) == tokenize(para.text)


def test_ingest_shares_one_string_per_word():
    corpus = corpus_from([
        {"article_id": "a", "title": "A", "order": 0, "text": "Gatsby waits in West Egg."},
        {"article_id": "b", "title": "B", "order": 0, "text": "Nick visits gatsby there"},
    ])
    first, second = corpus.paragraphs["a#0"], corpus.paragraphs["b#0"]
    assert first.tokens[0] == second.tokens[2] == "gatsby"
    assert first.tokens[0] is second.tokens[2]
    for para in (first, second):
        assert list(para.tokens) == tokenize(para.text)


# ---------------------------------------------------------------------------
# read_json_lines, through each loader of an input file
# ---------------------------------------------------------------------------

def corpus_lines(path):
    return [json.dumps(r) for r in TINY_CORPUS_RECORDS]


def question_lines(path):
    return [json.dumps({"id": f"q{i}", "question": f"question {i}"}) for i in range(4)]


def index_lines(path):
    save_index(build_index(corpus_from(TINY_CORPUS_RECORDS)), path)
    return path.read_text(encoding="utf-8").splitlines()


LOADERS = {
    "corpus": (corpus_lines, load_corpus, IngestError),
    "questions": (question_lines, load_examples, QuestionsFormatError),
    "index": (index_lines, load_index, IndexFormatError),
}


@pytest.mark.parametrize("kind", LOADERS)
def test_loaders_skip_blank_lines(tmp_path, kind):
    make_lines, load, _ = LOADERS[kind]
    path = tmp_path / "input.jsonl"
    lines = make_lines(path)
    path.write_text("".join(line + "\n" for line in lines))
    expected = load(path)
    spaced = ["", *lines[:2], " \t", "\r", *lines[2:], ""]
    path.write_text("".join(line + "\n" for line in spaced))
    assert load(path) == expected


@pytest.mark.parametrize("fault, message", [
    # A Latin-1 e-acute opens the line's first string: valid JSON, but not UTF-8.
    (lambda line: line.replace(b'"', b'"\xe9', 1), "not UTF-8 text"),
    (lambda line: b"{not json", "invalid JSON \\(Expecting property name .*\\)"),
], ids=["not-utf8", "invalid-json"])
@pytest.mark.parametrize("kind", LOADERS)
def test_loaders_name_a_bad_line(tmp_path, kind, fault, message):
    make_lines, load, error = LOADERS[kind]
    path = tmp_path / "input.jsonl"
    lines = [line.encode() for line in make_lines(path)]
    lines[2] = fault(lines[2])
    path.write_bytes(b"\n".join([lines[0], b"", *lines[1:]]) + b"\n")  # line 4 is lines[2]
    with pytest.raises(error, match=f"^line 4: {message}$") as info:
        load(path)
    assert "\n" not in str(info.value)


# ---------------------------------------------------------------------------
# map_paragraph
# ---------------------------------------------------------------------------

def corpus_of(texts_by_article):
    records = []
    for article_id, texts in texts_by_article.items():
        for order, text in enumerate(texts):
            records.append(
                {"article_id": article_id, "title": article_id, "order": order, "text": text}
            )
    return corpus_from(records)


def test_map_identity_matches_fully():
    corpus = corpus_of({"a": ["alpha beta gamma delta"], "b": ["alpha beta gamma delta"]})
    verdict = map_paragraph(corpus.paragraphs["a#0"], corpus.articles["b"])
    assert verdict.matched
    assert verdict.unigram_recall == 1.0
    assert verdict.lcs_coverage == 1.0
    assert verdict.target_paragraph_ids == ("b#0",)


def test_map_disjoint_unmatched():
    corpus = corpus_of({"a": ["alpha beta gamma"], "b": ["delta epsilon zeta"]})
    verdict = map_paragraph(corpus.paragraphs["a#0"], corpus.articles["b"])
    assert not verdict.matched
    assert verdict.unigram_recall == 0.0
    assert verdict.target_paragraph_ids == ()


def test_map_seven_of_ten_matches():
    original_tokens = [f"t{i}" for i in range(10)]
    window = " ".join(original_tokens[:7]) + " filler junk words"
    corpus = corpus_of({"a": [" ".join(original_tokens)], "b": [window, "unrelated stuff"]})
    verdict = map_paragraph(corpus.paragraphs["a#0"], corpus.articles["b"])
    assert verdict.unigram_recall == pytest.approx(0.7)
    assert verdict.matched


def test_map_exact_threshold_is_unmatched():
    # 33 of 50 unigrams recovered is exactly 0.66; scattering them in
    # reverse order keeps the common subsequence at a single token.
    original_tokens = [f"t{i:02d}" for i in range(50)]
    window = " ".join(reversed(original_tokens[:33]))
    corpus = corpus_of({"a": [" ".join(original_tokens)], "b": [window]})
    verdict = map_paragraph(corpus.paragraphs["a#0"], corpus.articles["b"])
    assert verdict.unigram_recall == pytest.approx(0.66)
    assert verdict.lcs_coverage <= 0.50
    assert not verdict.matched


def test_map_lcs_crosses_paragraph_pair():
    # Each half of the original sits in a different consecutive paragraph;
    # only the 2-paragraph window recovers it.
    corpus = corpus_of({
        "a": ["p q r s t u"],
        "b": ["p q r", "s t u", "zz yy xx"],
    })
    verdict = map_paragraph(corpus.paragraphs["a#0"], corpus.articles["b"])
    assert verdict.matched
    assert verdict.unigram_recall == 1.0
    assert verdict.lcs_coverage == 1.0
    assert verdict.target_paragraph_ids == ("b#0", "b#1")


def test_map_earliest_window_wins_ties():
    corpus = corpus_of({"a": ["x y"], "b": ["x y junk", "other stuff", "x y junk2"]})
    verdict = map_paragraph(corpus.paragraphs["a#0"], corpus.articles["b"])
    assert verdict.target_paragraph_ids == ("b#0",)


def test_map_zero_token_original_rejected():
    corpus = corpus_of({"a": ["..."], "b": ["real text here"]})
    with pytest.raises(ValueError):
        map_paragraph(corpus.paragraphs["a#0"], corpus.articles["b"])


def test_map_verbatim_containment_always_matches():
    rng = random.Random(21)
    vocab = [f"v{i}" for i in range(40)]
    for _ in range(30):
        original = rng.choices(vocab, k=rng.randint(3, 15))
        prefix = rng.choices(vocab, k=rng.randint(0, 8))
        suffix = rng.choices(vocab, k=rng.randint(0, 8))
        corpus = corpus_of({
            "a": [" ".join(original)],
            "b": ["aa bb cc", " ".join(prefix + original + suffix)],
        })
        verdict = map_paragraph(corpus.paragraphs["a#0"], corpus.articles["b"])
        assert verdict.matched
        assert verdict.unigram_recall == 1.0


def test_map_monotone_in_token_overlap():
    # Adding one more shared token to the best window never lowers recall.
    original_tokens = [f"t{i}" for i in range(8)]
    corpus_small = corpus_of({
        "a": [" ".join(original_tokens)],
        "b": [" ".join(original_tokens[:4]) + " pad pad"],
    })
    corpus_big = corpus_of({
        "a": [" ".join(original_tokens)],
        "b": [" ".join(original_tokens[:5]) + " pad pad"],
    })
    small = map_paragraph(corpus_small.paragraphs["a#0"], corpus_small.articles["b"])
    big = map_paragraph(corpus_big.paragraphs["a#0"], corpus_big.articles["b"])
    assert big.unigram_recall >= small.unigram_recall
