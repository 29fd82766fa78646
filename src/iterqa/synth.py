"""Synthetic planted-chain benchmarks.

Generates a corpus of small articles plus questions whose answers require
following a chain of 1, 2, or 3 paragraphs: each chain paragraph names the
next one's title, the unique answer token lives only in the terminal
paragraph, and every hop title occurs only in its own paragraph and its
predecessor (or the question, for the first hop). Retrieval quality,
oracle behavior, and dynamic stopping can all be measured exactly against
the planted structure.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import permutations

from .corpus import Corpus, ingest_corpus
from .pipeline import ConfigError, QuestionExample

_SYLLABLES = [
    "bal", "dor", "fen", "gri", "hol", "jun", "kel", "lor", "mav", "nim",
    "pra", "quil", "ras", "sel", "tor", "ulm", "vex", "wyn", "xan", "zor",
]

_CATEGORIES = ["river", "island", "valley", "harbor", "forest", "tower", "bridge", "garden"]

_FILLER = [
    "old", "quiet", "small", "wide", "grey", "green", "stone", "wooden",
    "travelers", "merchants", "farmers", "fishermen", "storytellers",
    "roads", "paths", "walls", "gates", "fields", "lamps", "boats",
    "morning", "evening", "winter", "summer", "rain", "fog", "wind",
    "market", "village", "township", "county", "region", "festival",
    "records", "maps", "songs", "legends", "chronicles", "letters",
]

_TEMPLATES = [
    "which secret is kept by the {title}",
    "what do the chronicles say the {title} is hiding",
    "what lies hidden near the {title}",
    "which relic do legends place at the {title}",
]


@dataclass(frozen=True)
class SyntheticBenchmark:
    corpus: Corpus
    examples: tuple[QuestionExample, ...]
    corpus_records: tuple[dict, ...]


_RESERVED = frozenset(_FILLER + _CATEGORIES + _SYLLABLES)


class _Namer:
    """Unique pseudo-word factory; keeps planted tokens collision-free."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used = set(_RESERVED)

    def word(self) -> str:
        while True:
            parts = self.rng.sample(_SYLLABLES, self.rng.randint(2, 3))
            candidate = "".join(parts)
            if candidate not in self.used:
                self.used.add(candidate)
                return candidate


def make_chain_benchmark(
    n_per_hop: tuple[int, int, int] = (100, 100, 100),
    n_distractors: int = 150,
    seed: int = 13,
) -> SyntheticBenchmark:
    """Build a corpus and question set with planted 1/2/3-hop chains."""
    if min(*n_per_hop, n_distractors) < 0 or not sum(n_per_hop):
        raise ConfigError(
            f"counts must be >= 0 and ask for a question, "
            f"got per hop {list(n_per_hop)} and distractors {n_distractors}"
        )
    # A question names each hop's title and its answer, a distractor its title.
    # _Namer makes runs of 2 or 3 distinct syllables that are not reserved.
    names = sum(n * (hops + 1) for hops, n in zip((1, 2, 3), n_per_hop)) + n_distractors
    capacity = len({"".join(r) for n in (2, 3) for r in permutations(_SYLLABLES, n)} - _RESERVED)
    if names > capacity:
        raise ConfigError(
            f"per hop {list(n_per_hop)} and distractors {n_distractors} need {names} "
            f"distinct names, more than the {capacity} the generator can make"
        )
    rng = random.Random(seed)
    namer = _Namer(rng)
    records: list[dict] = []
    examples: list[QuestionExample] = []

    qid_no = 0
    for hop_count, n_questions in zip((1, 2, 3), n_per_hop):
        for _ in range(n_questions):
            qid_no += 1
            qid = f"q{qid_no:04d}"
            titles = [
                f"{namer.word()} {rng.choice(_CATEGORIES)}" for _ in range(hop_count)
            ]
            answer = namer.word()
            gold_ids = []
            for j, title in enumerate(titles):
                article_id = f"{qid}-hop{j + 1}"
                gold_ids.append(f"{article_id}#0")
                filler = " ".join(rng.sample(_FILLER, rng.randint(3, 6)))
                if j + 1 < hop_count:
                    text = (
                        f"the {title} is a {filler} place and old stories say "
                        f"the {titles[j + 1]} lies beyond it"
                    )
                else:
                    text = f"the {title} keeps the secret {answer} hidden under its {filler}"
                records.append(
                    {
                        "article_id": article_id,
                        "title": title.title(),
                        "order": 0,
                        "text": text,
                    }
                )
            question = rng.choice(_TEMPLATES).format(title=titles[0])
            examples.append(
                QuestionExample(
                    qid=qid,
                    question=question,
                    answers=(answer,),
                    gold_ids=tuple(gold_ids),
                    answer_kind="span",
                    dataset=f"synth-{hop_count}hop",
                )
            )

    for d in range(n_distractors):
        article_id = f"dist{d:04d}"
        title = f"{namer.word()} {rng.choice(_CATEGORIES)}"
        n_paras = 1 if rng.random() < 0.7 else rng.randint(2, 3)
        for order in range(n_paras):
            words = rng.sample(_FILLER, rng.randint(6, 12))
            text = f"the {title} has {' '.join(words)}"
            if rng.random() < 0.3:
                text += f" near the {rng.choice(_CATEGORIES)}"
            records.append(
                {"article_id": article_id, "title": title.title(), "order": order, "text": text}
            )

    corpus = ingest_corpus(enumerate(records, start=1))
    return SyntheticBenchmark(
        corpus=corpus, examples=tuple(examples), corpus_records=tuple(records)
    )


def write_benchmark(benchmark: SyntheticBenchmark, corpus_path, questions_path) -> None:
    """Write the benchmark as a corpus file and a questions file.

    Both files are opened before either is written, so an output that
    cannot be opened leaves no record in the other.
    """
    with (
        open(corpus_path, "w", encoding="utf-8") as corpus_out,
        open(questions_path, "w", encoding="utf-8") as questions_out,
    ):
        for record in benchmark.corpus_records:
            corpus_out.write(json.dumps(record) + "\n")
        for ex in benchmark.examples:
            record = {
                "id": ex.qid,
                "question": ex.question,
                "answers": list(ex.answers),
                "gold_paragraph_ids": list(ex.gold_ids),
                "answer_kind": ex.answer_kind,
                "dataset": ex.dataset,
            }
            questions_out.write(json.dumps(record) + "\n")
