#!/usr/bin/env python3
"""Time `translate_corpus` forked and in place, to place decode.FORK_MIN_WORK.

Decodes with a random d=128 checkpoint (V=1000, eos pushed down so every
hypothesis runs to max_len - 1 tokens, as in the benchmark's translate-long)
at greedy and width-4 beam shapes whose work, rows x max_len, runs from 128
to 4096. Each shape runs REPEATS times each way, alternating which goes
first, and checks that both ways give the same hypotheses. Prints one
tab-separated row per shape: mode, sources, rows, max_len, work, the median
in-place and forked times in ms and their ratio. Needs two CPUs; BLAS is
pinned to one thread, as the fork requires.

Run from the repository root:  python3 scripts/fork_break_even.py [REPEATS]
"""

import os
import statistics
import sys
import time

os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np  # noqa: E402

from tagmt import forking  # noqa: E402
from tagmt.mt import decode  # noqa: E402
from tagmt.mt.model import ModelConfig, Transformer  # noqa: E402
from tagmt.mt.train import Checkpoint  # noqa: E402
from tagmt.mt.vocab import vocab_from_pairs  # noqa: E402
from tagmt.toy import make_copy_task  # noqa: E402

SHAPES = {"greedy": (1, (2, 4, 8, 16, 32, 64)), "beam": (4, (2, 4, 8, 16))}
MAX_LENS = (8, 16, 32, 64)


def main(repeats):
    if not forking.can_fork():
        sys.exit("the CPUs this process may use do not hold two processes' BLAS threads")
    pairs = make_copy_task(1000, seed=11, vocab_size=993, min_len=8, max_len=24)
    vocab = vocab_from_pairs(pairs)
    config = ModelConfig(seed=11, max_len=max(MAX_LENS))
    model = Transformer(config, len(vocab), pad_id=vocab.pad_id, rng=np.random.default_rng(11))
    model.params["out.b"][vocab.eos_id] = -1e4
    checkpoint = Checkpoint(config, model.params, vocab)
    sources = [src for src, _ in pairs]

    def run(n, mode, max_len, fork):
        decode.FORK_MIN_WORK = 0 if fork else sys.maxsize
        start = time.perf_counter()
        out = decode.translate_corpus(checkpoint, sources[:n], decode=mode, beam_width=4, max_len=max_len)
        return time.perf_counter() - start, out

    for mode, (width, counts) in SHAPES.items():
        for n in counts:
            for max_len in MAX_LENS:
                work = n * width * max_len
                if not 128 <= work <= 4096:
                    continue
                run(n, mode, max_len, False)  # warm-up
                times = {False: [], True: []}
                for r in range(repeats):
                    outs = {}
                    for fork in (False, True) if r % 2 == 0 else (True, False):
                        elapsed, outs[fork] = run(n, mode, max_len, fork)
                        times[fork].append(elapsed)
                    if outs[False] != outs[True]:
                        sys.exit(f"{mode} {n} sources, max_len {max_len}: forked hypotheses differ")
                here, forked = (statistics.median(times[f]) * 1e3 for f in (False, True))
                print(f"{mode}\t{n}\t{n * width}\t{max_len}\t{work}\t{here:.1f}\t{forked:.1f}\t{forked / here:.2f}", flush=True)


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 11)
