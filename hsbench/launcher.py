"""Run one `honeysheets` subcommand with every layer wrapped in spans.

Usage: launcher.py SPANS_JSON PARENT_T0 SUBCOMMAND [ARGS...]

PARENT_T0 is the parent's time.perf_counter() just before it started this
process (the clock is system-wide on Linux), so the time from process
start to `cli.run` entry can be measured. The spans are written to
SPANS_JSON when the CLI returns, including after SIGINT ends `serve`.
"""

from __future__ import annotations

import sys
import time

import tracing


def main() -> int:
    spans_path, parent_t0, *argv = sys.argv[1:]
    recorder = tracing.Recorder()
    tracing.install(recorder)
    from honeysheets import cli

    entered = time.perf_counter()
    try:
        code = cli.run(argv)
    finally:
        recorder.dump(spans_path, {"start_s": entered - float(parent_t0)})
    return code


if __name__ == "__main__":
    sys.exit(main())
