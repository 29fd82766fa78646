"""Iterative retrieve-read-rerank question answering over a paragraph corpus."""

from .corpus import (
    Article,
    Corpus,
    IngestError,
    MappingVerdict,
    Paragraph,
    ingest_corpus,
    load_corpus,
    map_paragraph,
    tokenize,
)
from .metrics import exact_match, normalize_answer, unigram_f1
from .models import (
    GoldReader,
    LexicalReranker,
    LexicalRetriever,
    ModelBundle,
    OracleRetriever,
    ReaderOutput,
    SerializedPath,
    answerability_span,
    answerability_yesno,
    build_model_factory,
    pick_answer,
    serialize_path,
)
from .oracle import (
    OracleQuery,
    OverlapSpan,
    UntrainableExample,
    build_oracle_query,
    extract_overlap_spans,
    recall_curve,
)
from .pipeline import (
    AnswerRecord,
    PipelineConfig,
    QuestionExample,
    ReasoningPath,
    RunResult,
    StepOutcome,
    TrainingTrace,
    generate_training_traces,
    initial_path,
    run_question,
)
from .search import (
    InvertedIndex,
    SearchHit,
    build_index,
    rank_of,
    search_topk,
)

__version__ = "0.1.0"
