#!/usr/bin/env python3
"""Print the sha256 of every artifact of one `pipeline run`, to compare commits.

Runs `run_pipeline` on --config (default fixtures/toy.cfg), with --seed in
place of the config's [experiment] seed when given, into a temporary
directory that is removed afterwards. No `tagmt` flag overrides a config
key, so this --seed is the way to run the pipeline at another seed without
editing a config. Prints `<sha256>  <name>` for each artifact in name order,
then `<sha256>  (stage log)` over the lines the pipeline logs, each ended by
a newline. Two checkouts that print the same lines wrote the same bytes.

Under `taskset -c 0` the process may use one CPU, so the text-only training
and every decode take the in-place path instead of a forked child; the lines
must match those of a normal run.

Run from the repository root:
    python3 scripts/artifact_digests.py [--config fixtures/toy.cfg] [--seed N]
    taskset -c 0 python3 scripts/artifact_digests.py [--seed N]
"""

import argparse
import hashlib
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from tagmt.config import load_experiment_config  # noqa: E402
from tagmt.pipeline import run_pipeline  # noqa: E402

TOY_CFG = os.path.join(os.path.dirname(__file__), "..", "fixtures", "toy.cfg")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", default=TOY_CFG, help="experiment config (default: toy.cfg)")
    parser.add_argument("--seed", type=int, default=None, help="override the [experiment] seed")
    args = parser.parse_args()
    config = load_experiment_config(args.config)
    if args.seed is not None:
        config.with_seed(args.seed)
    stage_log = []
    with tempfile.TemporaryDirectory() as out_dir:
        config.paths["output_dir"] = out_dir
        run_pipeline(config, log=stage_log.append)
        for name in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, name), "rb") as fh:
                print(f"{hashlib.sha256(fh.read()).hexdigest()}  {name}")
    log_bytes = "".join(line + "\n" for line in stage_log).encode("utf-8")
    print(f"{hashlib.sha256(log_bytes).hexdigest()}  (stage log)")


if __name__ == "__main__":
    main()
