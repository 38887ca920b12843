#!/usr/bin/env python
"""Runner chaos harness: fault-inject the sweep scheduler itself.

Drives :func:`repro.chaos.run_runner_chaos` — SIGKILLed workers, hung
and poison jobs, an interrupted cached sweep re-run from its cache, and
corrupted result-cache entries — and verifies that every scenario
recovers to the exact digest of a clean serial run (the bit-identity
guarantee documented in ``docs/RUNNER.md``).

CI runs the smoke profile::

    PYTHONPATH=src python benchmarks/bench_runner_chaos.py --smoke \
        --workdir runner-chaos --out runner-chaos/summary.json

and uploads ``--workdir`` (flag files, the scenario cache) as an
artifact when a scenario fails.  Exit status is 0 iff every scenario
recovered.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.chaos import run_runner_chaos


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="chaos-test the supervised sweep runner")
    parser.add_argument("--smoke", action="store_true",
                        help="small mesh/short watchdog profile (~seconds; "
                             "what CI runs)")
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed for the sweep workload (default 0)")
    parser.add_argument("--workdir", default=None,
                        help="directory for flags/cache "
                             "(default: a temp dir; pass a path so CI can "
                             "upload it on failure)")
    parser.add_argument("--out", default=None,
                        help="write the JSON summary here as well")
    args = parser.parse_args(argv)

    summary = run_runner_chaos(smoke=args.smoke, seed=args.seed,
                               workdir=args.workdir, log=print)
    print()
    for scenario in summary["scenarios"]:
        mark = "ok " if scenario["ok"] else "FAIL"
        print(f"  [{mark}] {scenario['name']:<9} {scenario['detail']}")
    verdict = "recovered" if summary["ok"] else "FAILED"
    print(f"\nrunner chaos: {len(summary['scenarios'])} scenario(s) "
          f"{verdict}; baseline digest "
          f"{summary['baseline_digest'][:16]}…")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2)
        print(f"summary written to {args.out}")
    return 0 if summary["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
