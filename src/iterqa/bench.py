"""Benchmark runs over question files: EM/F1 plus retrieval-behavior reports."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

from .corpus import REQUIRED, Corpus, check_fields, is_str, read_json_lines
from .metrics import exact_match, unigram_f1
from .models import ModelBundle
from .pipeline import PipelineConfig, QuestionExample, RunResult, run_policies
from .search import InvertedIndex

ModelFactory = Callable[[QuestionExample], ModelBundle]


class QuestionsFormatError(ValueError):
    pass


def _is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


_QUESTION_FIELDS = (
    ("id", is_str, "a string", REQUIRED),
    ("question", is_str, "a string", REQUIRED),
    ("answers", _is_str_list, "a list of strings", []),
    ("gold_paragraph_ids", _is_str_list, "a list of strings", []),
    # null, or absent, infers the kind from the answers
    ("answer_kind", lambda v: v in (None, "span", "yes", "no"), "'span', 'yes' or 'no'", None),
    ("fixed_steps", lambda v: v is None or type(v) is int and v >= 1,
     "null or an integer >= 1", None),
    ("dataset", is_str, "a string", ""),
)


def load_examples(path) -> list[QuestionExample]:
    """Read a line-delimited questions file: one object per line, with the fields of
    ``_QUESTION_FIELDS``, a new id and distinct gold_paragraph_ids."""
    examples = []
    id_lines: dict[str, int] = {}  # question id -> line it is first used on
    for line_no, record in read_json_lines(path, QuestionsFormatError):
        qid, question, answers, gold_ids, kind, fixed_steps, dataset = check_fields(
            record, _QUESTION_FIELDS, QuestionsFormatError, f"line {line_no}: "
        )
        if id_lines.setdefault(qid, line_no) != line_no:
            raise QuestionsFormatError(
                f"line {line_no}: id {qid!r} is already used on line {id_lines[qid]}"
            )
        repeated = next((g for i, g in enumerate(gold_ids) if g in gold_ids[:i]), None)
        if repeated is not None:
            raise QuestionsFormatError(
                f"line {line_no}: gold paragraph {repeated!r} is listed twice"
            )
        kind = kind or (answers[0] if answers in (["yes"], ["no"]) else "span")
        examples.append(QuestionExample(qid, question, tuple(answers), tuple(gold_ids), kind,
                                        fixed_steps, dataset))
    return examples


@dataclass(frozen=True)
class PerQuestion:
    qid: str
    em: float | None  # None when the question has no gold answers
    f1: float | None
    steps_used: int
    paragraphs_retrieved_total: int
    status: str
    prediction: str


@dataclass
class BenchmarkReport:
    """Aggregate EM/F1 (means over scored questions), per-question rows and the tables."""

    em: float
    f1: float
    per_question: tuple[PerQuestion, ...]
    n_scored: int
    n_unscored: int
    step_histogram: dict[int, int] = field(default_factory=dict)
    # rows of (docs_per_step, mean paragraphs retrieved per question, em, f1)
    budget_table: list[tuple[int, float, float, float]] = field(default_factory=list)
    # rows of (policy name, em, f1); "dynamic" first, then fixed-K policies
    dynamic_vs_fixed: list[tuple[str, float, float]] = field(default_factory=list)


def _mean_scores(rows: Sequence[PerQuestion]) -> tuple[float, float]:
    """Mean EM and F1 over the scored rows; 0.0 each when none is scored."""
    scored = [row for row in rows if row.em is not None]
    if not scored:
        return 0.0, 0.0
    em = f1 = 0.0
    for row in scored:  # left to right: sum() compensates from Python 3.12 on
        em += row.em
        f1 += row.f1
    return em / len(scored), f1 / len(scored)


def _row(example: QuestionExample, result: RunResult) -> PerQuestion:
    """The report row of ``result``; EM and F1 are None when the question has no gold answers."""
    prediction = result.prediction
    em = f1 = None
    if answers := example.answers:
        em, f1 = float(exact_match(prediction, answers)), unigram_f1(prediction, answers)
    return PerQuestion(
        example.qid, em, f1, len(result.final_path.steps), result.paragraphs_retrieved,
        result.status, prediction,
    )


def grid_configs(
    config: PipelineConfig, fixed_k_grid: Sequence[int], docs_grid: Sequence[int]
) -> tuple[list[PipelineConfig], list[PipelineConfig]]:
    """The docs-grid and fixed-K-grid settings; a bad grid value raises ConfigError."""
    docs_configs = [replace(config, docs_per_step=docs) for docs in docs_grid]
    return docs_configs, [replace(config, fixed_steps=k) for k in fixed_k_grid]


def question_config(config: PipelineConfig, example: QuestionExample) -> PipelineConfig:
    """``config`` as it applies to ``example``: its own ``fixed_steps`` overrides the stop rule."""
    return replace(config, fixed_steps=example.fixed_steps or config.fixed_steps)


def run_benchmark(
    examples: Sequence[QuestionExample],
    corpus: Corpus,
    index: InvertedIndex,
    factory: ModelFactory,
    config: PipelineConfig = PipelineConfig(),
    fixed_k_grid: Sequence[int] = (),
    docs_grid: Sequence[int] = (),
) -> BenchmarkReport:
    """Run every question, aggregate EM/F1 over the scored ones, and add the reports.

    ``fixed_k_grid`` adds a dynamic-vs-fixed-steps table and ``docs_grid`` a
    retrieval-budget-vs-F1 table (see ``question_config``). Each question
    makes one ``run_policies`` call over the main setting and every grid
    setting, with one model bundle: each setting runs its own trajectory
    through the question's memo of reads, so the roles must be pure.
    """
    if not examples:
        raise ValueError("no questions to run")
    # Built before any question runs, so a bad grid value fails at once.
    docs_configs, fixed_configs = grid_configs(config, fixed_k_grid, docs_grid)

    settings = [config, *fixed_configs, *docs_configs]
    rows: list[list[PerQuestion]] = [[] for _ in settings]  # one row list per setting
    for example in examples:
        configs = [question_config(c, example) for c in settings]
        runs = run_policies(example.question, corpus, index, factory(example), configs)
        for table, run in zip(rows, runs):
            table.append(_row(example, run))

    main, *others = rows
    em, f1 = _mean_scores(main)
    n_scored = sum(r.em is not None for r in main)
    report = BenchmarkReport(em, f1, tuple(main), n_scored, len(main) - n_scored)
    for row in main:
        report.step_histogram[row.steps_used] = report.step_histogram.get(row.steps_used, 0) + 1
    for docs, table in zip(docs_grid, others[len(fixed_configs):]):
        mean_retrieved = sum(r.paragraphs_retrieved_total for r in table) / len(table)
        report.budget_table.append((docs, mean_retrieved, *_mean_scores(table)))
    if fixed_k_grid:
        report.dynamic_vs_fixed.append(("dynamic", em, f1))
        for k, table in zip(fixed_k_grid, others):
            report.dynamic_vs_fixed.append((f"fixed-{k}", *_mean_scores(table)))
    return report


def write_reports(report: BenchmarkReport, directory) -> None:
    """Emit per-question records (JSONL) and a human-readable summary."""
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "per_question.jsonl"), "w", encoding="utf-8") as out:
        for row in report.per_question:
            out.write(json.dumps(row.__dict__) + "\n")
    with open(os.path.join(directory, "summary.txt"), "w", encoding="utf-8") as out:
        out.write(format_summary(report))


def format_summary(report: BenchmarkReport) -> str:
    lines = [
        f"questions scored: {report.n_scored} (unscored: {report.n_unscored})",
        f"exact match: {report.em:.4f}",
        f"unigram F1:  {report.f1:.4f}",
        "",
        "steps-per-question histogram:",
    ]
    total = len(report.per_question) or 1
    for steps in sorted(report.step_histogram):
        count = report.step_histogram[steps]
        lines.append(f"  {steps} steps: {count:5d}  ({100.0 * count / total:.1f}%)")
    if report.budget_table:
        lines += ["", "retrieval budget vs quality:"]
        lines.append("  docs/step  mean retrieved     EM      F1")
        for docs, retrieved, em, f1 in report.budget_table:
            lines.append(f"  {docs:9d}  {retrieved:14.1f}  {em:.4f}  {f1:.4f}")
    if report.dynamic_vs_fixed:
        lines += ["", "stopping policy comparison:"]
        lines.append("  policy        EM      F1")
        for name, em, f1 in report.dynamic_vs_fixed:
            lines.append(f"  {name:10s}  {em:.4f}  {f1:.4f}")
    return "\n".join(lines) + "\n"
