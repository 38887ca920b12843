#!/usr/bin/env python3
"""Start ``repro serve`` for the benchmark, optionally traced.

Usage::

    python3 perfbench/launcher.py [--trace-dir DIR] -- serve [ARGS...]

With ``--trace-dir`` the span wrappers of :mod:`tracer` are installed
before the CLI's serve entry point runs (forked pool workers inherit
them); the server's own spans are written to ``DIR`` when it exits.
"""

import os
import sys

from common import require_program


def main(argv: list[str]) -> int:
    trace_dir = None
    if argv[:1] == ["--trace-dir"]:
        trace_dir, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    require_program()
    tracer = None
    if trace_dir is not None:
        from tracer import Tracer

        tracer = Tracer(trace_dir)
        tracer.install()
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        if tracer is not None:
            tracer.flush(f"spans-{os.getpid()}.jsonl.gz")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
