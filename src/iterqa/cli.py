"""Command-line interface: oracle, traces, run, bench, map, synth."""

from __future__ import annotations

import argparse
import json
import os
import sys

from .bench import (
    QuestionsFormatError, format_summary, grid_configs, load_examples, question_config,
    run_benchmark, write_reports,
)
from .corpus import IngestError, load_corpus, map_paragraph, read_json_lines
from .models import ManifestError, build_model_factory, load_manifest
from .oracle import UntrainableExample, oracle_trace_record, recall_curve
from .pipeline import (
    ConfigError,
    ModelOutputError,
    PipelineConfig,
    QuestionExample,
    run_question,
    step_log_record,
    training_traces,
    walk_gold_path,
)
from .search import build_index
from .synth import make_chain_benchmark, write_benchmark


def _add_pipeline_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--docs-per-step", type=int, default=50,
                        help="paragraphs retrieved per reasoning step (e.g. 50, 100, 150)")
    parser.add_argument("--k-cap", type=int, default=5,
                        help="maximum paragraphs on a reasoning path")
    parser.add_argument("--stop-threshold", type=float, default=0.0,
                        help="answerability needed to stop and answer")
    parser.add_argument("--fixed-steps", type=int, default=None,
                        help="force answering at exactly this step (disables dynamic stopping)")
    parser.add_argument("--models", default=None,
                        help="path to a JSON model manifest (default: oracle retriever, "
                             "gold reader, baseline reranker)")


def _pipeline_config(args) -> PipelineConfig:
    return PipelineConfig(
        k_cap=args.k_cap,
        docs_per_step=args.docs_per_step,
        stop_threshold=args.stop_threshold,
        fixed_steps=args.fixed_steps,
    )


def _check_fixed_steps(config: PipelineConfig, fixed_k_grid, examples) -> None:
    """Refuse a fixed step past the path cap: such a run ends exhausted, short of
    that step, and would be scored on its best attempt as if it had answered."""
    fixed = [("--fixed-steps", config.fixed_steps)]
    fixed += [("--fixed-k-grid", k) for k in fixed_k_grid]
    fixed += [(f"question {e.qid!r}: fixed_steps", e.fixed_steps) for e in examples]
    for name, steps in fixed:
        if steps is not None and steps > config.k_cap:
            raise ConfigError(f"{name} {steps} is above --k-cap {config.k_cap}")


def _factory(args, index, corpus):
    try:
        manifest = load_manifest(args.models) if args.models else {}
        return build_model_factory(manifest, index, corpus)
    except ManifestError as exc:
        raise ManifestError(f"manifest {args.models!r}: {exc}") from None


def _load_corpus(path):
    """The corpus at ``path``, once it holds a paragraph."""
    try:
        corpus = load_corpus(path)
    except IngestError as exc:
        raise IngestError(f"corpus {path!r}: {exc}") from None
    if not corpus.paragraphs:
        raise IngestError(f"corpus {path!r} holds no paragraphs")
    return corpus


def _examples_for(path, corpus) -> list[QuestionExample]:
    """The questions in ``path``, once it holds one and every gold id is in the corpus."""
    try:
        examples = load_examples(path)
    except QuestionsFormatError as exc:
        raise QuestionsFormatError(f"questions file {path!r}: {exc}") from None
    if not examples:
        raise QuestionsFormatError(f"questions file {path!r} holds no questions")
    for example in examples:
        for gold_id in example.gold_ids:
            if gold_id not in corpus.paragraphs:
                line_no = next(n for n, record in read_json_lines(path, QuestionsFormatError)
                               if record["id"] == example.qid)
                raise QuestionsFormatError(f"questions file {path!r}: line {line_no}: "
                                           f"gold paragraph {gold_id!r} is not in the corpus")
    return examples


def cmd_oracle(args) -> int:
    corpus = _load_corpus(args.corpus)
    index = build_index(corpus)
    examples = _examples_for(args.questions, corpus)
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    skipped = 0
    ranks: dict[int, list[int | None]] = {}  # gold step position -> achieved ranks
    try:
        for example in examples:
            gold_path = walk_gold_path(corpus, index, example.question, example.gold_ids)
            achieved: list[int | None] = []
            try:
                for path, target, query in gold_path:
                    record = oracle_trace_record(path.path_tokens(), target, query)
                    record["qid"] = example.qid
                    out.write(json.dumps(record) + "\n")
                    achieved.append(query.achieved_rank)
            except UntrainableExample:
                skipped += 1
                achieved.append(None)  # the walk stops here, so later steps have no rank
            for position, rank in enumerate(achieved, start=1):
                ranks.setdefault(position, []).append(rank)
    finally:
        if out is not sys.stdout:
            out.close()
    print(f"oracle queries for {len(examples)} questions ({skipped} skipped)", file=sys.stderr)
    for position, step_ranks in sorted(ranks.items()):
        recall = recall_curve(step_ranks, (1, 5, 10))
        shares = ", ".join(f"@{k} {share:.4f}" for k, share in recall.items())
        print(f"gold step {position} recall {shares} ({len(step_ranks)} steps)", file=sys.stderr)
    return 0


def cmd_traces(args) -> int:
    corpus = _load_corpus(args.corpus)
    index = build_index(corpus)
    examples = _examples_for(args.questions, corpus)
    config = PipelineConfig(k_cap=args.k_cap, docs_per_step=args.docs_per_step)
    written = skipped = 0
    with open(args.out, "w", encoding="utf-8") as out:
        for example in examples:
            try:
                records = training_traces(corpus, index, example, config, not args.no_augment)
            except UntrainableExample:
                skipped += 1
                continue
            for record in records:
                out.write(json.dumps(record) + "\n")
            written += len(records)
    print(f"wrote {written} traces to {args.out} "
          f"({skipped} examples skipped: no path/target overlap)")
    return 0


def cmd_run(args) -> int:
    corpus = _load_corpus(args.corpus)
    index = build_index(corpus)
    if args.question_file:
        example = _examples_for(args.question_file, corpus)[0]
    else:
        example = QuestionExample(qid="cli", question=args.question)
    factory = _factory(args, index, corpus)
    config = _pipeline_config(args)
    _check_fixed_steps(config, (), [example])
    config = question_config(config, example)
    result = run_question(example.question, corpus, index, factory(example), config)
    for i, outcome in enumerate(result.steps, start=1):
        record = step_log_record(outcome)
        record["step"] = i
        print(json.dumps(record))
    if result.status == "answered":
        print(f"answer: {result.answer.text!r} "
              f"(answerability {result.answer.answerability:.3f}, "
              f"{len(result.answer.path_snapshot)} steps)", file=sys.stderr)
    else:
        attempt = result.best_attempt.text if result.best_attempt else "(none)"
        print(f"exhausted; best attempt: {attempt!r}", file=sys.stderr)
    return 0


def cmd_bench(args) -> int:
    corpus = _load_corpus(args.corpus)
    index = build_index(corpus)
    examples = _examples_for(args.questions, corpus)
    factory = _factory(args, index, corpus)
    config = _pipeline_config(args)
    grids = {"fixed_k_grid": args.fixed_k_grid or (), "docs_grid": args.docs_grid or ()}
    _check_fixed_steps(config, grids["fixed_k_grid"], examples)
    if args.report_dir:
        grid_configs(config, **grids)  # a bad grid value fails before the directory is made
        os.makedirs(args.report_dir, exist_ok=True)
    report = run_benchmark(examples, corpus, index, factory, config, **grids)
    print(format_summary(report), end="")
    if args.report_dir:
        write_reports(report, args.report_dir)
        print(f"reports written to {args.report_dir}")
    return 0


def cmd_map(args) -> int:
    original = _load_corpus(args.original)
    candidate = _load_corpus(args.candidate)
    # An original whose article id the candidate lacks is compared with every
    # article of its title, in id order; max() keeps the earliest best verdict.
    by_title: dict[str, list] = {}
    for _, article in sorted(candidate.articles.items()):
        by_title.setdefault(article.title, []).append(article)
    matched = 0
    total = 0
    with open(args.out, "w", encoding="utf-8") as out:
        for para in original.paragraphs.values():
            if not para.tokens:
                continue
            total += 1
            article = candidate.articles.get(para.article_id)
            articles = [article] if article is not None else by_title.get(para.title, [])
            if not articles:
                record = {"paragraph_id": para.id, "matched": False, "reason": "article not found"}
            else:
                verdict = max(
                    (map_paragraph(para, a) for a in articles),
                    key=lambda v: (v.matched, v.unigram_recall, v.lcs_coverage),
                )
                matched += int(verdict.matched)
                record = {
                    "paragraph_id": para.id,
                    "matched": verdict.matched,
                    "unigram_recall": verdict.unigram_recall,
                    "lcs_coverage": verdict.lcs_coverage,
                    "target_paragraph_ids": list(verdict.target_paragraph_ids),
                }
            out.write(json.dumps(record) + "\n")
    print(f"mapped {matched}/{total} paragraphs -> {args.out}")
    return 0


def cmd_synth(args) -> int:
    if os.path.realpath(args.corpus_out) == os.path.realpath(args.questions_out):
        raise ConfigError(f"--corpus-out and --questions-out are one file, {args.corpus_out!r}")
    benchmark = make_chain_benchmark(
        n_per_hop=tuple(args.per_hop), n_distractors=args.distractors, seed=args.seed
    )
    write_benchmark(benchmark, args.corpus_out, args.questions_out)
    corpus = benchmark.corpus
    print(
        f"wrote {len(corpus.paragraphs)} paragraphs / {len(corpus.articles)} articles "
        f"and {len(benchmark.examples)} questions"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iterqa",
        description="Iterative retrieve-read-rerank question answering over a paragraph corpus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("oracle", help="emit oracle queries along gold paths")
    p.add_argument("--corpus", required=True)
    p.add_argument("--questions", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("traces", help="emit training traces, with optional augmentation")
    p.add_argument("--corpus", required=True)
    p.add_argument("--questions", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--k-cap", type=int, default=3)
    p.add_argument("--docs-per-step", type=int, default=50)
    p.add_argument("--no-augment", action="store_true")
    p.set_defaults(func=cmd_traces)

    p = sub.add_parser("run", help="answer a single question with a verbose step log")
    p.add_argument("--corpus", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--question")
    group.add_argument("--question-file")
    _add_pipeline_flags(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("bench", help="run a questions file and report EM/F1 + behavior")
    p.add_argument("--corpus", required=True)
    p.add_argument("--questions", required=True)
    p.add_argument("--report-dir", default=None)
    p.add_argument("--fixed-k-grid", type=int, nargs="*", default=None,
                   help="also evaluate fixed-step policies at these K values")
    p.add_argument("--docs-grid", type=int, nargs="*", default=None,
                   help="also evaluate at these docs-per-step settings")
    _add_pipeline_flags(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("map", help="map one corpus's paragraphs onto another version")
    p.add_argument("--original", required=True)
    p.add_argument("--candidate", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("synth", help="generate a planted-chain benchmark")
    p.add_argument("--corpus-out", required=True)
    p.add_argument("--questions-out", required=True)
    p.add_argument("--per-hop", type=int, nargs=3, default=[100, 100, 100],
                   metavar=("ONE", "TWO", "THREE"))
    p.add_argument("--distractors", type=int, default=150)
    p.add_argument("--seed", type=int, default=13)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # so a closed standard output shows here, not at exit
        return status
    except BrokenPipeError:
        # Standard output's reader is gone (`iterqa bench ... | head`): not an input
        # fault. Devnull takes the flush at exit (Python's signal docs, "Note on SIGPIPE").
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (OSError, IngestError, QuestionsFormatError, ManifestError, ConfigError,
            ModelOutputError) as exc:
        print(f"iterqa {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
