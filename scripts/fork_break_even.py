#!/usr/bin/env python3
"""Time `translate_corpus` forked and in place, to place decode.FORK_MIN_WORK.

Decodes with random checkpoints (V=1000, eos pushed down so every hypothesis
runs to max_len - 1 tokens, as in the benchmark's translate-long) at two
shapes: the default (model_dim 128, max_len 64) and the toy experiment's
translator (model_dim 32, max_len 48, fixtures/toy.cfg). At each, greedy and
width-4 beam batches run whose work, rows x max_len, lies in 128..4096. Each
batch runs REPEATS times each way, alternating which goes first. The two ways
are what setting decode.FORK_MIN_WORK to 0 or to sys.maxsize picks between:
the batch plan rounded up to an even count, run forked, and the plan without
rounding, run in place. The script stops if they give different hypotheses,
which can happen only where the rounding regroups the sources and two
candidates tie to within the last bits, as batching can. Prints one
tab-separated row per batch: model_dim, mode, sources, rows, max_len, work
(rows x max_len), the median in-place and forked times in ms, their ratio,
and what decode.FORK_MIN_WORK's rule (work x model_dim >= FORK_MIN_WORK)
picks there. Needs two CPUs.

Run from the repository root:  python3 scripts/fork_break_even.py [REPEATS]
"""

import os
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np  # noqa: E402

from tagmt import forking  # noqa: E402
from tagmt.mt import decode  # noqa: E402
from tagmt.mt.model import ModelConfig, Transformer  # noqa: E402
from tagmt.mt.train import Checkpoint  # noqa: E402
from tagmt.mt.vocab import vocab_from_pairs  # noqa: E402
from tagmt.toy import make_copy_task  # noqa: E402

# mode -> (beam width, source counts decoded)
SHAPES = {"greedy": (1, (2, 4, 8, 16, 32, 64)), "beam": (4, (2, 4, 8, 16))}
# model_dim -> (config, max_lens decoded)
MODELS = {
    128: (ModelConfig(seed=11, max_len=64), (8, 16, 32, 64)),
    32: (ModelConfig(model_dim=32, heads=2, ff_dim=64, max_len=48, seed=11), (8, 16, 32, 48)),
}


RULE = decode.FORK_MIN_WORK


def main(repeats):
    if not forking.can_fork():
        sys.exit("needs two CPUs")
    pairs = make_copy_task(1000, seed=11, vocab_size=993, min_len=8, max_len=24)
    vocab = vocab_from_pairs(pairs)
    sources = [src for src, _ in pairs]
    for dim, (config, max_lens) in MODELS.items():
        model = Transformer(config, len(vocab), pad_id=vocab.pad_id, rng=np.random.default_rng(11))
        model.params["out.b"][vocab.eos_id] = -1e4
        sweep(Checkpoint(config, model.params, vocab), sources, max_lens, repeats)


def sweep(checkpoint, sources, max_lens, repeats):
    dim = checkpoint.config.model_dim

    def run(n, width, max_len, fork):
        decode.FORK_MIN_WORK = 0 if fork else sys.maxsize
        start = time.perf_counter()
        out = decode.translate_corpus(checkpoint, sources[:n], beam_width=width, max_len=max_len)
        return time.perf_counter() - start, out

    for mode, (width, counts) in SHAPES.items():
        for n in counts:
            for max_len in max_lens:
                work = n * width * max_len
                if not 128 <= work <= 4096:
                    continue
                run(n, width, max_len, False)  # warm-up
                times = {False: [], True: []}
                for r in range(repeats):
                    outs = {}
                    for fork in (False, True) if r % 2 == 0 else (True, False):
                        elapsed, outs[fork] = run(n, width, max_len, fork)
                        times[fork].append(elapsed)
                    if outs[False] != outs[True]:
                        sys.exit(f"d={dim} {mode} {n} sources, max_len {max_len}: forked hypotheses differ")
                here, forked = (statistics.median(times[f]) * 1e3 for f in (False, True))
                rule = "fork" if work * dim >= RULE else "here"
                print(f"{dim}\t{mode}\t{n}\t{n * width}\t{max_len}\t{work}\t{here:.1f}\t{forked:.1f}\t{forked / here:.2f}\t{rule}", flush=True)


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 11)
