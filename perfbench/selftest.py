#!/usr/bin/env python3
"""Smoke self-test of the benchmark.

Runs every workload at its tiny size through ``perfbench/run.py``,
untraced and traced, and asserts that

* every metric named in ``BENCHMARK.json`` is printed with its unit
  (end-to-end metrics untraced, per-layer metrics traced);
* the output checks pass (``"correct": true`` and exit code 0);
* the traced per-layer self times plus ``other.self_s`` add up to
  ``trace.total_s``.

It also runs the command in a directory holding only
``BENCHMARK.json`` and the benchmark's files, where it must fail
without printing a result.  Usage::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SELF_TIMES = ("sim.self_s", "network.self_s", "core.plan_s",
              "core.engine_s", "coherence.self_s", "workloads.trace_s",
              "explore.compile_s", "explore.eval_s", "explore.self_s",
              "runner.self_s", "serve.self_s", "other.self_s")


def run(cwd: str, workload: str, trace: int) -> tuple[int, str]:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--tiny"]
    out = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                         timeout=300)
    return out.returncode, out.stdout + out.stderr


def check_result(spec: dict, workload: str, trace: int) -> list[str]:
    code, output = run(ROOT, workload, trace)
    last = output.strip().splitlines()[-1] if output.strip() else ""
    try:
        result = json.loads(
            [ln for ln in output.splitlines() if ln.startswith('{"correct"')]
            [-1])
    except (IndexError, ValueError):
        return [f"{workload} trace={trace}: no result line "
                f"(exit {code}): {last}"]
    problems = []
    if code != 0 or not result["correct"]:
        problems.append(f"{workload} trace={trace}: output checks failed "
                        f"(exit {code})\n{output}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result["metrics"]
    for metric in wanted:
        got = metrics.get(metric["name"])
        if got is None or got.get("unit") != metric["unit"]:
            problems.append(f"{workload} trace={trace}: metric "
                            f"{metric['name']} [{metric['unit']}] -> {got}")
    if set(metrics) != {m["name"] for m in wanted}:
        problems.append(f"{workload} trace={trace}: unexpected metrics "
                        f"{sorted(set(metrics) - {m['name'] for m in wanted})}")
    if trace and not problems:
        total = metrics["trace.total_s"]["value"]
        parts = sum(metrics[name]["value"] for name in SELF_TIMES)
        if abs(parts - total) > 1e-9 * max(1.0, total):
            problems.append(f"{workload}: self times sum to {parts}, "
                            f"traced total is {total}")
        if metrics["other.self_s"]["value"] < -1e-9:
            problems.append(f"{workload}: negative other.self_s")
    return problems


def check_bare_directory() -> list[str]:
    """Without the program sources the command must fail, unprinted."""
    bare = os.path.join(ROOT, ".perfbench-run", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, output = run(bare, "fig-sweep", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or '"correct"' in output:
        return [f"bare directory: exit {code}, output {output!r}"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = check_bare_directory()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check_result(spec, workload, trace)
            print(f"{workload} trace={trace}: "
                  f"{'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
