#!/usr/bin/env python3
"""Run the benchmark in fresh processes and write BENCH_<workload>.json.

    python3 scripts/bench.py --workload train-base --against REV --pairs 10 --seed 11 --seed 7

Each run is ``python3 perf/run.py --workload W --seed S --seconds T --trace 0``
in a new process; its last line gives the end-to-end metrics, its first the
machine block. With ``--against REV``, a copy of REV's committed files
(``git archive``, extracted into a temporary directory and removed at the
end) runs the same command, in pairs that alternate which side goes first.
Without it, this checkout runs ``--pairs`` times alone.

The file records the command, both sides (commit, whether this checkout's
files differ from it, and a digest of each side's ``src/``), the machine,
every run's metrics and, per seed and metric, each side's median and
quartiles and, with two sides, how many pairs this checkout won (ties count
for neither side; lower is better for the metrics BENCHMARK.json lists).
Run from the repository root, with nothing else busy on the machine.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, action="append", help="repeatable; default 11")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--against", metavar="REV", help="a git revision to run in alternation")
    parser.add_argument("--output", help="default: BENCH_<workload>.json in the repository root")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be >= 2 for quartiles")
    return args


def git(*args):
    return subprocess.run(
        ["git", "-C", ROOT, *args], capture_output=True, text=True, check=True
    ).stdout.strip()


def src_digest(root):
    """sha256 over the path and bytes of every file under root/src (no caches)."""
    digest = hashlib.sha256()
    base = os.path.join(root, "src")
    for directory, dirs, files in sorted(os.walk(base)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__" and not d.endswith(".egg-info"))
        for name in sorted(files):
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, base).encode() + b"\0")
            with open(path, "rb") as data:
                digest.update(data.read())
    return digest.hexdigest()


def extract(rev, into):
    """The committed files of rev, extracted under into; returns that directory."""
    archive = os.path.join(into, "rev.tar")
    with open(archive, "wb") as out:
        subprocess.run(["git", "-C", ROOT, "archive", rev], stdout=out, check=True)
    checkout = os.path.join(into, "checkout")
    with tarfile.open(archive) as tar:
        tar.extractall(checkout, filter="data")
    os.remove(archive)
    return checkout


def run_once(root, args, seed):
    """(machine block, {metric: value}, correct) of one perf/run.py process in root."""
    command = [
        sys.executable, os.path.join("perf", "run.py"), "--workload", args.workload,
        "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        sys.exit(f"perf/run.py exited with {done.returncode} in {root}")
    lines = done.stdout.splitlines()
    machine, result = json.loads(lines[0])["machine"], json.loads(lines[-1])
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    return machine, metrics, result["correct"] and result["failed"] == 0


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(samples, sides, lower_better):
    summary = {}
    for name in samples[sides[0]][0]:
        entry = {side: spread([s[name] for s in samples[side]]) for side in sides}
        if len(sides) == 2:
            mine, theirs = ([s[name] for s in samples[side]] for side in sides)
            sign = 1 if name in lower_better else -1
            entry["wins"] = sum(sign * (b - a) > 0 for a, b in zip(mine, theirs))
            entry["losses"] = sum(sign * (a - b) > 0 for a, b in zip(mine, theirs))
        summary[name] = entry
    return summary


def main(argv=None):
    args = parse_args(argv)
    seeds = args.seed or [11]
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as spec:
        lower_better = {m["name"] for m in json.load(spec)["end_to_end"] if m["better"] == "lower"}
    head = git("rev-parse", "HEAD")
    dirty = bool(git("status", "--porcelain", "--untracked-files=no", "--", "src", "perf"))
    sides = {"this": {"commit": head, "differs_from_commit": dirty, "src_digest": src_digest(ROOT)}}
    roots = {"this": ROOT}
    scratch = tempfile.mkdtemp(prefix="bench-")
    try:
        if args.against:
            roots["against"] = extract(args.against, scratch)
            sides["against"] = {
                "rev": args.against,
                "commit": git("rev-parse", args.against),
                "src_digest": src_digest(roots["against"]),
            }
        names = list(roots)
        record = {
            "command": ["python3", "perf/run.py", "--workload", args.workload, "--seed", "S",
                        "--seconds", str(args.seconds), "--trace", "0"],
            "workload": args.workload,
            "sides": sides,
            "machine": None,
            "seeds": {},
        }
        for seed in seeds:
            samples = {side: [] for side in names}
            for pair in range(args.pairs):
                order = names if pair % 2 == 0 else names[::-1]
                for side in order:
                    machine, metrics, correct = run_once(roots[side], args, seed)
                    if not correct:
                        sys.exit(f"seed {seed}: a run of {side} reported a failure")
                    record["machine"] = record["machine"] or machine
                    samples[side].append(metrics)
                print(f"seed {seed} pair {pair + 1}: " + "  ".join(
                    f"{side} op_wall_s {samples[side][-1]['op_wall_s']:.4f}" for side in names
                ), flush=True)
            record["seeds"][str(seed)] = {
                "samples": samples,
                "summary": summarize(samples, names, lower_better),
            }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    record["machine"].pop("git_commit", None)  # the sides say which commit ran
    output = args.output or os.path.join(ROOT, f"BENCH_{args.workload}.json")
    with open(output, "w", encoding="utf-8") as out:
        json.dump(record, out, indent=1)
        out.write("\n")
    print(f"wrote {output}")


if __name__ == "__main__":
    main()
