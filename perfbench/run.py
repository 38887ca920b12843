#!/usr/bin/env python3
"""Benchmark of the wormhole-DSM invalidation simulator, end to end.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fig-sweep --seed 1 --seconds 20 --trace 0

Workloads: ``fig-sweep``, ``dsm-apps``, ``atlas`` (in-process, CPU
timed) and ``serve-mix`` (a real ``repro serve``, client timed).
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
separate traced measurement and prints the per-layer metrics.  Every
metric is printed with its unit; the last line of standard output is
the JSON result.  The exit code is non-zero when an output check fails
(the result line then says ``"correct": false``) or when the program
cannot run here.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import traceback

# numpy is loaded before set-up is timed: its import is the
# environment's cost, not the program's, and it varied by a fifth
# between three fresh interpreters on one quiet host.
import numpy  # noqa: F401

from common import (ROOT, WORK, BenchError, Metrics, RunDir, child_env,
                    cpu_s, emit, median, peak_rss_mib, require_program,
                    run_metadata)

WORKLOADS = ("fig-sweep", "dsm-apps", "atlas", "serve-mix")
#: In-process set-up is measured this many times per run (this process
#: plus fresh probe processes); ``setup_s`` is their median.
SETUP_SAMPLES = 5


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs (self-test)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def timed_setup(args, rundir) -> tuple[object, float]:
    """Set up as a measured run does; returns the workload and the raw
    CPU seconds of set-up: the program's imports, input construction
    and warm-up (the interpreter and numpy are already loaded)."""
    import inproc

    start = cpu_s()
    workload = inproc.setup(args.workload, args.seed, rundir, args.tiny)
    return workload, cpu_s() - start


def setup_probe(args) -> int:
    """Child process: set up, report the set-up time, and exit."""
    rundir = RunDir(f"probe-{args.workload}")
    try:
        print(f"setup_s={timed_setup(args, rundir)[1]!r}", flush=True)
    finally:
        rundir.close()
    return 0


def probe_samples(args, count: int) -> list[float]:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    if args.tiny:
        cmd.append("--tiny")
    samples = []
    for _ in range(count):
        out = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                             capture_output=True, text=True, timeout=120,
                             check=True)
        samples.append(float(out.stdout.strip().rsplit("=", 1)[1]))
    return samples


def run_inproc(args, rundir, metrics: Metrics):
    import inproc

    workload, setup = timed_setup(args, rundir)
    if args.trace:
        problems, passes = inproc.traced(workload, rundir, args.seconds,
                                         trace_dir(args), metrics)
        return problems, passes * workload.ops_per_pass, 0
    samples = [setup] + probe_samples(args, SETUP_SAMPLES - 1)
    passes = inproc.timed_passes(workload, rundir, args.seconds,
                                 min_passes=3)
    # Set-up is scaled by the run's median pass scale, not by one loop
    # right after it: that single loop gave one set of ten fig-sweep
    # runs a two-valued set-up (0.27-0.31 s in seven, 0.53 s in three)
    # while the same runs' pass-scaled cpu_s spread was 0.03.
    scale = median([p[4] for p in passes])
    metrics.put("setup_s", median(samples) * scale, "s",
                f"CPU, program imports to timed phase, at the run's "
                f"reference speed; median of {len(samples)} processes "
                f"(raw {median(samples):.4f} s)")
    metrics.put("peak_rss_mib", peak_rss_mib(), "MiB", "benchmark process")
    inproc.end_to_end(workload, passes, metrics)
    for out, *_ in passes[:1]:
        print(f"pass digest: {out['digest']}")
    return (inproc.verify(workload, passes, rundir),
            len(passes) * workload.ops_per_pass, 0)


def run_serve(args, rundir, metrics: Metrics):
    import serve_mix

    if args.trace:
        return serve_mix.measure_traced(rundir, args.seed, args.seconds,
                                        trace_dir(args), metrics, args.tiny)
    return serve_mix.measure(rundir, args.seed, args.seconds, metrics,
                             args.tiny)


def trace_dir(args) -> str:
    import shutil

    path = os.path.join(WORK, "traces", f"{args.workload}-seed{args.seed}")
    shutil.rmtree(path, ignore_errors=True)
    return path


def main(argv=None) -> int:
    args = parse(argv)
    try:
        require_program()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)
    load_before = os.getloadavg()
    rundir = RunDir(args.workload)
    metrics = Metrics()
    try:
        runner = run_serve if args.workload == "serve-mix" else run_inproc
        problems, attempted, failed = runner(args, rundir, metrics)
    except Exception:
        traceback.print_exc()
        print("perfbench: the run failed before producing a result",
              file=sys.stderr)
        return 1
    finally:
        rundir.close()
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    correct = not problems and failed == 0
    meta = run_metadata(load_before, os.getloadavg())
    emit(args.workload, args.seed, bool(args.trace), metrics, correct,
         max(1, attempted), failed, meta, {"problems": problems})
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
