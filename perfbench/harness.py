"""Workloads, closed-loop measurement and reporting for the iterqa benchmark.

One client sends one question at a time through the workload's public call
and sends the next only when the previous one has returned (a closed loop,
single process, single thread). Every call's output is checked and hashed
outside the timed region. See NOTES.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import iterqa.bench
import iterqa.corpus
import iterqa.metrics
import iterqa.models
import iterqa.pipeline
import iterqa.search
from tracer import (
    CORPUS_LOAD,
    INDEX_BUILD,
    INDEX_LOAD,
    INDEX_SAVE,
    ORACLE,
    PIPELINE,
    RANK,
    READER,
    RERANKER,
    RETRIEVER,
    TOPK,
    Tracer,
    traced_api,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"

# Set-up is short next to the questions, so it is repeated in batches and
# its median reported, since a single set-up time spreads too much between
# runs. A batch sets up at least SETUP_REPEATS times and, for a small corpus,
# until SETUP_SECONDS have been spent.
SETUP_REPEATS = 4
SETUP_SECONDS = 1.5
SETUP_MAX_REPEATS = 25

ORACLE_MANIFEST = {"retriever": "oracle", "reader": "gold", "reranker": "baseline"}
BASELINE_MANIFEST = {"retriever": "baseline", "reader": "gold", "reranker": "baseline"}


@dataclass(frozen=True)
class Workload:
    name: str
    distractors: int
    manifest: dict


WORKLOADS = {
    w.name: w
    for w in (
        Workload("oracle-chain", 150, ORACLE_MANIFEST),
        Workload("baseline-large", 3000, BASELINE_MANIFEST),
    )
}


# -- inputs and set-up ----------------------------------------------------


@dataclass(frozen=True)
class Inputs:
    corpus: Path
    questions: Path
    index: Path


def make_inputs(workload: Workload, seed: int, directory: Path) -> Inputs:
    """Generate the workload's JSONL inputs in a child process."""
    directory.mkdir(parents=True, exist_ok=True)
    inputs = Inputs(directory / "corpus.jsonl", directory / "questions.jsonl",
                    directory / "index.jsonl")
    subprocess.run(
        [sys.executable, str(HERE / "inputs.py"), "--seed", str(seed),
         "--distractors", str(workload.distractors),
         "--corpus-out", str(inputs.corpus), "--questions-out", str(inputs.questions)],
        check=True,
        timeout=120,
    )
    return inputs


def set_up(inputs: Inputs):
    """Load the corpus, then build, save and reload the index.

    Returns the corpus, the reloaded index (the one the run uses, so work
    moved into build or load shows here) and the seconds taken.
    """
    start = perf_counter()
    corpus = iterqa.corpus.load_corpus(inputs.corpus)
    # The built index is dropped before the reload, as in the CLI, which
    # either builds or loads: only one index is alive at a time.
    iterqa.search.save_index(iterqa.search.build_index(corpus), inputs.index)
    index = iterqa.search.load_index(inputs.index)
    return corpus, index, perf_counter() - start


def repeated_set_up(inputs: Inputs):
    """Set up one batch; returns the last corpus and index, and every time."""
    times: list[float] = []
    while len(times) < SETUP_REPEATS or (
        sum(times) < SETUP_SECONDS and len(times) < SETUP_MAX_REPEATS
    ):
        corpus = index = None  # free the previous set-up's objects first
        corpus, index, seconds = set_up(inputs)
        times.append(seconds)
    return corpus, index, times


# -- one question ---------------------------------------------------------


@dataclass(frozen=True)
class Answer:
    digest: str  # hash of the question's outputs
    em: float
    f1: float
    steps: int
    ok: bool  # passed the workload's correctness check


def _digest(record) -> str:
    # json.dumps writes floats with repr, so equal digests mean bit-equal scores.
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()


def result_answer(example, result) -> Answer:
    """Check and hash one RunResult."""
    prediction = result.prediction
    em = float(iterqa.metrics.exact_match(prediction, example.answers))
    f1 = iterqa.metrics.unigram_f1(prediction, example.answers)
    record = [
        example.qid, prediction, result.status, list(result.final_path.step_ids()),
        [[[hit.paragraph_id, hit.score] for hit in outcome.retrieved] for outcome in result.steps],
    ]
    # Every workload runs the gold reader, which answers only when every gold
    # paragraph is on the path and a gold answer is in the last one. A
    # question the reranker led astray ends exhausted: a model error, which
    # shows in em and f1.
    ok = result.status != "answered" or (
        em == 1.0 and set(example.gold_ids) <= set(result.final_path.step_ids())
    )
    return Answer(_digest(record), em, f1, len(result.steps), ok)


class Runner:
    """Sends a question through the workload's public call."""

    def __init__(self, workload: Workload, corpus, index):
        self.corpus = corpus
        self.index = index
        self.config = iterqa.pipeline.PipelineConfig()
        self.factory = iterqa.models.build_model_factory(dict(workload.manifest), index, corpus)

    def call(self, example, factory):
        # Looked up on the module at call time, so the tracer's wrappers apply.
        return iterqa.pipeline.run_question(
            example.question, self.corpus, self.index, factory(example), self.config
        )


# -- passes ---------------------------------------------------------------


@dataclass
class Pass:
    answers: dict[str, Answer] = field(default_factory=dict)
    latencies: list[float] = field(default_factory=list)  # s, passing calls only
    attempted: int = 0
    failed: int = 0
    busy: float = 0.0  # s spent inside the public calls


def run_one(runner: Runner, example, factory, done: Pass, reference=None) -> None:
    """Run one question through the public call and record it in ``done``.

    The question fails when it raises, fails the workload's check, or (given
    a ``reference`` pass) hashes differently from its reference answer.
    """
    done.attempted += 1
    start = perf_counter()
    try:
        output = runner.call(example, factory)
    except Exception as exc:  # a raising question is a failed run; the others still run
        done.busy += perf_counter() - start
        done.failed += 1
        done.answers[example.qid] = Answer(f"error:{type(exc).__name__}", 0.0, 0.0, 0, False)
        print(f"perfbench: question {example.qid} raised {exc!r}", file=sys.stderr)
        traceback.print_exc()
        return
    elapsed = perf_counter() - start
    done.busy += elapsed
    answer = result_answer(example, output)
    done.answers[example.qid] = answer
    if answer.ok and (reference is None or reference[example.qid].digest == answer.digest):
        done.latencies.append(elapsed)
    else:
        done.failed += 1


def run_pass(runner: Runner, order, factory, *, deadline=None, reference=None) -> Pass:
    """Run questions in ``order`` one after another, stopping at ``deadline``."""
    done = Pass()
    for example in order:
        if deadline is not None and perf_counter() >= deadline:
            break
        run_one(runner, example, factory, done, reference)
    return done


def paired_pass(runner: Runner, order, tracer: Tracer, reference=None) -> tuple[Pass, Pass]:
    """Run each question untraced and traced, back to back.

    The two calls of a question are seconds apart at most, so a slow spell
    on the machine lands on both, and which of them goes first alternates,
    so neither always finds the caches warm. Returns the untraced and the
    traced pass.
    """
    plain, traced = Pass(), Pass()
    traced_factory = tracer.wrap_factory(runner.factory)

    def run_plain(example):
        run_one(runner, example, runner.factory, plain, reference)

    def run_traced(example):
        tracer.qid = example.qid
        with traced_api(tracer):
            run_one(runner, example, traced_factory, traced, reference)

    for i, example in enumerate(order):
        for run in (run_plain, run_traced) if i % 2 == 0 else (run_traced, run_plain):
            run(example)
    return plain, traced


def fingerprint(answers: dict[str, Answer], examples) -> str:
    joined = "\n".join(answers[ex.qid].digest for ex in examples)
    return hashlib.sha256(joined.encode()).hexdigest()


def shuffled(examples, rng: random.Random) -> list:
    # Each hop count is spread over the whole pass, so a slow spell on the
    # machine does not land on one kind of question.
    order = list(examples)
    rng.shuffle(order)
    return order


# -- end-to-end run -------------------------------------------------------

END_TO_END_UNITS = {
    "questions_per_s": "1/s",
    "question_ms.p50": "ms",
    "question_ms.p98": "ms",
    "em": "share",
    "f1": "share",
    "steps_per_question": "steps",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def end_to_end_run(workload: Workload, inputs: Inputs, examples, seed: int, seconds: int):
    corpus, index, setup_times = repeated_set_up(inputs)
    runner = Runner(workload, corpus, index)

    rng = random.Random(seed)
    deadline = perf_counter() + seconds
    # The first pass always completes: it is the reference for correctness
    # and the fingerprint. Later passes add samples until the deadline.
    passes = [run_pass(runner, shuffled(examples, rng), runner.factory)]
    while perf_counter() < deadline:
        passes.append(run_pass(runner, shuffled(examples, rng), runner.factory,
                               deadline=deadline, reference=passes[0].answers))

    first = passes[0].answers
    # Every passing call is one latency sample. Per-question medians are not
    # used: on baseline-large they fall in sharp clusters, one per hop
    # count, so a few questions more or fewer on one side of a cluster's
    # edge moved their p50 and p95 a long way.
    call_ms = sorted(t * 1e3 for done in passes for t in done.latencies)
    p98 = statistics.quantiles(call_ms, n=50)[48]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    busy = sum(p.busy for p in passes)
    answers = list(first.values())
    values = {
        # Every call and all the time it took, slow calls too. Each pass is
        # a fresh shuffle, so a cut-off last pass favours no kind of question.
        "questions_per_s": (attempted - failed) / busy,
        "question_ms.p50": statistics.median(call_ms),
        "question_ms.p98": p98,
        "em": statistics.fmean(a.em for a in answers),
        "f1": statistics.fmean(a.f1 for a in answers),
        "steps_per_question": statistics.fmean(a.steps for a in answers),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    # A second batch of set-ups, with the run's objects freed, so that
    # setup_s samples the machine at both ends of the run, as the question
    # metrics do over the whole of it.
    del runner, corpus, index
    setup_times += repeated_set_up(inputs)[2]
    values["setup_s"] = statistics.median(setup_times)
    beyond = sum(ms > p98 for ms in call_ms)
    sample_notes = {
        "questions_per_s": f"{attempted - failed} completed calls in {busy:.1f} s,"
                           f" {len(passes)} passes",
        "question_ms.p50": f"{len(call_ms)} calls",
        "question_ms.p98": f"{len(call_ms)} calls, {beyond} beyond p98",
        "em": f"{len(answers)} questions",
        "f1": f"{len(answers)} questions",
        "steps_per_question": f"{len(answers)} questions",
        "setup_s": f"median of {len(setup_times)} set-ups, before and after the questions",
        "peak_rss_mb": "process peak, set-up and questions",
    }
    lines = [
        f"{name:22s} {values[name]:12.4f} {END_TO_END_UNITS[name]:6s} ({sample_notes[name]})"
        for name in END_TO_END_UNITS
    ]
    lines.append(f"{'failed_share':22s} {failed / attempted:12.4f} share  "
                 f"({failed} failed of {attempted} question runs)")
    lines.append(f"fingerprint {fingerprint(first, examples)}")
    metrics = {name: (values[name], END_TO_END_UNITS[name]) for name in END_TO_END_UNITS}
    return metrics, attempted, failed, True, lines


# -- traced run -----------------------------------------------------------

# Per-layer metrics in BENCHMARK.json order, with units. The ones in TIMED
# are medians over the traced passes of a run; every other one is a count
# that must read the same in every pass.
LAYER_UNITS = {
    "corpus.load_s": "s",
    "corpus.paragraphs": "count",
    "search.build_s": "s",
    "search.save_s": "s",
    "search.load_s": "s",
    "search.index_bytes": "bytes",
    "search.topk.calls": "count",
    "search.topk.self_ms": "ms",
    "search.topk.ms_per_call": "ms",
    "search.query_terms.mean": "terms",
    "search.rank.calls": "count",
    "search.rank.self_ms": "ms",
    "search.rank.ms_per_call": "ms",
    "oracle.queries": "count",
    "oracle.self_ms": "ms",
    "oracle.rank_evals": "count",
    "oracle.rank_evals_per_query": "count",
    "oracle.budget_used": "share",
    "oracle.rank1_share": "share",
    "models.retriever.calls": "count",
    "models.retriever.self_ms": "ms",
    "models.reader.calls": "count",
    "models.reader.self_ms": "ms",
    "models.reranker.calls": "count",
    "models.reranker.self_ms": "ms",
    "models.reads_per_step": "count",
    "pipeline.questions_run": "count",
    "pipeline.steps": "count",
    "pipeline.self_ms": "ms",
    "pipeline.paragraphs_retrieved_per_question": "count",
    "trace_overhead": "share",
}
TIMED = {name for name, unit in LAYER_UNITS.items() if unit in ("s", "ms")} | {"trace_overhead"}

# Layers whose self time is attributed in the Amdahl table.
LAYERS = [TOPK, RANK, ORACLE, RETRIEVER, READER, RERANKER, PIPELINE]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass over all the questions."""
    self_ms = {name: t * 1e3 for name, t in tracer.self_times().items()}
    calls = {name: tracer.calls(name) for name in LAYERS}
    oracle = tracer.oracle_calls
    evals = sum(c.rank_evals for c in oracle)
    metrics = {
        "search.topk.calls": calls[TOPK],
        "search.topk.self_ms": self_ms.get(TOPK, 0.0),
        "search.topk.ms_per_call": _ratio(self_ms.get(TOPK, 0.0), calls[TOPK]),
        "search.query_terms.mean": _ratio(tracer.query_terms, calls[TOPK]),
        "search.rank.calls": calls[RANK],
        "search.rank.self_ms": self_ms.get(RANK, 0.0),
        "search.rank.ms_per_call": _ratio(self_ms.get(RANK, 0.0), calls[RANK]),
        "oracle.queries": len(oracle),
        "oracle.self_ms": self_ms.get(ORACLE, 0.0),
        "oracle.rank_evals": evals,
        "oracle.rank_evals_per_query": _ratio(evals, len(oracle)),
        "oracle.budget_used": _ratio(evals, sum(c.budget() for c in oracle)),
        "oracle.rank1_share": _ratio(sum(c.achieved_rank == 1 for c in oracle), len(oracle)),
        "pipeline.questions_run": calls[PIPELINE],
        "pipeline.steps": tracer.steps,
        "pipeline.self_ms": self_ms.get(PIPELINE, 0.0),
        "pipeline.paragraphs_retrieved_per_question":
            _ratio(tracer.paragraphs_retrieved, calls[PIPELINE]),
        "models.reads_per_step": _ratio(calls[READER], tracer.steps),
    }
    for role in (RETRIEVER, READER, RERANKER):
        metrics[f"{role}.calls"] = calls[role]
        metrics[f"{role}.self_ms"] = self_ms.get(role, 0.0)
    return metrics


def traced_run(workload: Workload, inputs: Inputs, examples, seed: int, seconds: int):
    setup_tracer = Tracer()
    with traced_api(setup_tracer):
        corpus, index, _ = repeated_set_up(inputs)
    runner = Runner(workload, corpus, index)

    # Every question runs untraced and traced back to back, so the two busy
    # times compare the same work in the same seconds, and the outputs must
    # hash alike.
    order = shuffled(examples, random.Random(seed))
    start = perf_counter()
    deadline = start + seconds
    plain_passes, traced_passes, tracers = [], [], []
    # A paired pass is not cut short, so a new one starts only when one more
    # of the same length still ends before the deadline.
    while not tracers or perf_counter() + (perf_counter() - start) / len(tracers) < deadline:
        tracer = Tracer()
        reference = plain_passes[0].answers if plain_passes else None
        plain, traced = paired_pass(runner, order, tracer, reference)
        plain_passes.append(plain)
        traced_passes.append(traced)
        tracers.append(tracer)

    per_pass = [pass_layer_metrics(t) for t in tracers]
    consistent = all(
        p[name] == per_pass[0][name] for p in per_pass for name in p if name not in TIMED
    )
    values = {
        name: (statistics.median(p[name] for p in per_pass) if name in TIMED else per_pass[0][name])
        for name in per_pass[0]
    }
    values.update({
        "corpus.load_s": statistics.median(setup_tracer.durations(CORPUS_LOAD)),
        "corpus.paragraphs": len(corpus.paragraphs),
        "search.build_s": statistics.median(setup_tracer.durations(INDEX_BUILD)),
        "search.save_s": statistics.median(setup_tracer.durations(INDEX_SAVE)),
        "search.load_s": statistics.median(setup_tracer.durations(INDEX_LOAD)),
        "search.index_bytes": inputs.index.stat().st_size,
        "trace_overhead": sum(t.busy for t in traced_passes)
        / sum(p.busy for p in plain_passes) - 1.0,
    })

    all_passes = plain_passes + traced_passes
    attempted = sum(p.attempted for p in all_passes)
    failed = sum(p.failed for p in all_passes)
    plain_print = fingerprint(plain_passes[0].answers, examples)
    traced_print = fingerprint(traced_passes[0].answers, examples)

    traced_ms = statistics.median(p.busy for p in traced_passes) * 1e3
    lines = [f"{len(tracers)} paired passes of {len(examples)} questions, each question run"
             f" untraced and traced back to back;"
             f" counts {'identical' if consistent else 'DIFFER'} across traced passes"]
    lines += [f"{name:44s} {values[name]:14.4f} {unit}" for name, unit in LAYER_UNITS.items()]
    lines.append("self time by layer (share of a traced pass; Amdahl ceiling if that layer cost 0):")
    for name in LAYERS:
        ms = statistics.median(t.self_times().get(name, 0.0) for t in tracers) * 1e3
        share = ms / traced_ms
        ceiling = f"{1.0 / (1.0 - share):6.2f}x" if share < 1.0 else "   inf"
        lines.append(f"  {name:20s} {ms:12.1f} ms {100 * share:6.1f}%  {ceiling}")
    lines.append(f"fingerprint {plain_print} (untraced)")
    lines.append(f"fingerprint {traced_print} (traced)")
    WORK.mkdir(parents=True, exist_ok=True)
    tracers[0].write_spans(WORK / f"{workload.name}-seed{seed}-spans.jsonl")
    correct = consistent and plain_print == traced_print
    metrics = {name: (values[name], unit) for name, unit in LAYER_UNITS.items()}
    return metrics, attempted, failed, correct, lines


# -- provenance and output -------------------------------------------------


def _git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest() -> str:
    """Hash of the package sources, which identifies the build without git."""
    digest = hashlib.sha256()
    package = ROOT / "src" / "iterqa"
    for path in sorted(package.rglob("*.py")):
        digest.update(str(path.relative_to(package)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(workload: Workload, examples, seed: int, seconds: int, trace: bool) -> dict:
    hops = [len(ex.gold_ids) for ex in examples]
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "questions": len(examples),
        "per_hop": [hops.count(n) for n in sorted(set(hops))],
        "distractors": workload.distractors,
        "manifest": workload.manifest,
        "config": dataclasses.asdict(iterqa.pipeline.PipelineConfig()),
        "setup_batches": {"batches": 1 if trace else 2, "min_repeats": SETUP_REPEATS,
                          "min_seconds": SETUP_SECONDS, "max_repeats": SETUP_MAX_REPEATS},
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="iterqa benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    workdir = WORK / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    try:
        inputs = make_inputs(workload, args.seed, workdir)
        examples = iterqa.bench.load_examples(inputs.questions)
        info = provenance(workload, examples, args.seed, args.seconds, bool(args.trace))
        run = traced_run if args.trace else end_to_end_run
        metrics, attempted, failed, checks_pass, lines = run(
            workload, inputs, examples, args.seed, args.seconds
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": checks_pass and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    WORK.mkdir(parents=True, exist_ok=True)
    record_path = WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps({"provenance": info, "report": lines, **result}, indent=1))
    print(f"provenance {json.dumps(info)}")
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0
