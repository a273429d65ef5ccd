#!/usr/bin/env python3
"""The tagmt benchmark: one workload per process, a closed loop of one caller.

    python3 perf/run.py --workload toy-pipeline --seed 11 --seconds 20 --trace 0

Workloads (see workloads.py and BENCHMARK.json): ``toy-pipeline``,
``train-base`` and ``translate-long``. The benchmark generates the inputs
from ``--seed``, runs one untimed warm-up operation and then operations back
to back until ``--seconds`` have passed (at least two), checks that all of
them agree and are correct, and prints, as its last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before
it give the machine block, each operation's wall and CPU time, the
workload's own metrics and any failed check.

``--trace 0`` reports the end-to-end metrics: ``setup_s``, the median of
seven fresh processes' time from start to ready for the first operation
(imports, inputs, checkpoint build/load); ``op_wall_s``, the median wall time
of one operation; and ``peak_rss_mb``. ``--trace 1`` alternates untraced and
traced operations and reports the per-layer metrics computed from the span
dump (layers.py), which it writes to ``.perf_out/spans/``, the workload's own
metrics from the untraced operations, and ``trace.overhead_pct``.

``--tiny`` shrinks every workload for the self-test (selftest.py).
BLAS runs on one thread in every benchmark process.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import namedtuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".perf_out")
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_OPS = 2
SETUP_REPEATS = 7

# kind is "warmup", "plain" or "traced"; outcome is None if the operation raised
Op = namedtuple("Op", "kind wall cpu outcome")

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the self-test")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _blas_threads_in_effect():
    """Ask the BLAS that numpy loaded (OpenBLAS builds) for its thread count."""
    import numpy as np

    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return None
    for symbol in (
        "scipy_openblas_get_num_threads64_",
        "scipy_openblas_get_num_threads",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    ):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return fn()
    return None


def _git_commit():
    """HEAD of the checkout, read from .git without leaving it; None outside git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as head:
            ref = head.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[len("ref: ") :]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as packed:
            for line in packed:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def machine_block():
    import numpy as np

    from tagmt.mt import kernels

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_set": BLAS_THREADS,
        "blas_threads_in_effect": _blas_threads_in_effect(),
        "kernels_backend": kernels.BACKEND,
        "numba_importable": kernels.HAS_NUMBA,
        "readme_numba_speedups": (
            "checkable with benchmarks/bench_kernels.py"
            if kernels.HAS_NUMBA
            else "not reproducible here: numba is not importable"
        ),
        "git_commit": _git_commit(),
    }


def setup_seconds(args):
    """Median over fresh processes of start-to-ready time.

    perf_counter is CLOCK_MONOTONIC on Linux, shared by parent and child.
    """
    command = [
        sys.executable, os.path.abspath(__file__), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed),
    ] + (["--tiny"] if args.tiny else [])
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        done = subprocess.run(command, capture_output=True, text=True, timeout=170)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise RuntimeError(f"set-up process exited with {done.returncode}")
        samples.append(json.loads(done.stdout.splitlines()[-1])["ready"] - start)
    return statistics.median(samples)


def run_op(workload, workdir, kind, tracer):
    begin, begin_cpu = time.perf_counter(), time.process_time()
    try:
        if kind == "traced":
            with tracer.active(), tracer.span("bench.op"):
                outcome = workload.run_op(workdir)
        else:
            outcome = workload.run_op(workdir)
    except Exception:
        traceback.print_exc()
        outcome = None
    return Op(kind, time.perf_counter() - begin, time.process_time() - begin_cpu, outcome)


def run_ops(workload, workdir, seconds, tracer=None):
    """One warm-up operation, then operations back to back until `seconds`
    have passed, at least MIN_OPS of them.

    The first operation of a process runs up to 20% slower (translate-long
    grows its buffers), so it is checked but not timed. With a tracer, the
    timed operations alternate untraced and traced.
    """
    ops = [run_op(workload, workdir, "warmup", tracer)]
    start = time.perf_counter()
    while len(ops) <= MIN_OPS or time.perf_counter() - start < seconds:
        traced = tracer is not None and len(ops) % 2 == 0
        ops.append(run_op(workload, workdir, "traced" if traced else "plain", tracer))
    return ops


def main(argv=None):
    args = parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "tagmt")):
        sys.exit(f"no tagmt sources under {src}; run from a checkout of the repository")
    sys.path.insert(0, src)
    import layers
    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.seed, args.tiny)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        if args.setup_only:
            workload.setup(workdir)
            print(json.dumps({"ready": time.perf_counter()}))
            return
        machine = machine_block()
        print(json.dumps({"machine": machine}))
        tracer = Tracer() if args.trace else None
        if tracer is None:
            setup_s = setup_seconds(args)
            failures = workload.setup(workdir)
        else:
            with tracer.active(), tracer.span("bench.setup"):
                failures = workload.setup(workdir)
        ops = run_ops(workload, workdir, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    done = [op for op in ops if op.outcome is not None]
    if not done:
        sys.exit("every operation failed")
    failures += workload.check([op.outcome for op in done])
    for failure in failures:
        print(f"check failed: {failure}")
    plain = [op for op in done if op.kind == "plain"]
    traced = [op for op in done if op.kind == "traced"]
    print("op_wall_s " + " ".join(f"{op.kind}:{op.wall:.4f}" for op in done))
    print("op_cpu_s " + " ".join(f"{op.kind}:{op.cpu:.4f}" for op in done))
    summary = workload.summary([op.outcome for op in plain])
    for name, value in summary.items():
        print(f"{name} {value} {workloads.SUMMARY_UNITS[name]}")

    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_wall_s": (statistics.median(op.wall for op in plain), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
        dump = os.path.join(OUT, "spans", f"{args.workload}-seed{args.seed}.json")
        tracer.dump(dump, workload=args.workload, seed=args.seed, machine=machine)
        plain_s = statistics.median(op.wall for op in plain)
        traced_s = statistics.median(op.wall for op in traced)
        metrics = {name: (value, layers.UNITS[name]) for name, value in layers.layer_metrics(tracer.spans).items()}
        # a workload reports 0 for the other workloads' own metrics
        metrics.update({name: (summary.get(name, 0.0), unit) for name, unit in workloads.SUMMARY_UNITS.items()})
        metrics["trace.overhead_pct"] = (100.0 * (traced_s - plain_s) / plain_s, "%")

    # an operation fails if it raised; a failed check counts as one more
    failed = min(len(ops), len(ops) - len(done) + bool(failures))
    print(
        json.dumps(
            {
                "correct": not failures and failed == 0,
                "attempted": len(ops),
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )


if __name__ == "__main__":
    main()
