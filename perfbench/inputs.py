"""Write one workload's planted-chain inputs as JSONL files.

Run as a child process by run.py, so that generating the inputs adds
nothing to the measured process's memory and the program under test only
ever sees the files:

    python3 perfbench/inputs.py --seed 13 --distractors 150 \
        --corpus-out corpus.jsonl --questions-out questions.jsonl
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from iterqa.synth import make_chain_benchmark, write_benchmark  # noqa: E402


def write_inputs(seed: int, distractors: int, corpus_out, questions_out, **sizes) -> None:
    """Write the inputs; ``sizes`` (n_per_hop) lets the tests make small ones."""
    benchmark = make_chain_benchmark(n_distractors=distractors, seed=seed, **sizes)
    write_benchmark(benchmark, corpus_out, questions_out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--distractors", type=int, required=True)
    parser.add_argument("--corpus-out", required=True)
    parser.add_argument("--questions-out", required=True)
    args = parser.parse_args(argv)
    write_inputs(args.seed, args.distractors, args.corpus_out, args.questions_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
