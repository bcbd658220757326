"""Traced stand-in for `python -m gausscalc.cli`, used by the `cli`
workload's traced run.

Usage: python3 perfbench/cli_child.py <gausscalc arguments>

Times the import of gausscalc.cli, installs the span recorder, runs
`gausscalc.cli.main` and exits with its status.  An exception escaping
`main` propagates as it would from the real entry point (traceback,
status 1).  The recorder's aggregates are written as JSON to the file
named by the PERFBENCH_TRACE_OUT environment variable.
"""

import json
import os
import sys
import time

t_start = time.perf_counter()
import gausscalc.cli  # noqa: E402

import_s = time.perf_counter() - t_start

from spans import Recorder  # noqa: E402


def main() -> int:
    rec = Recorder()
    rec.install()
    main_s = 0.0
    t0 = time.perf_counter()
    try:
        return gausscalc.cli.main(sys.argv[1:])
    finally:
        main_s = time.perf_counter() - t0
        snap = rec.snapshot()
        snap["import_s"] = import_s
        snap["main_s"] = main_s
        with open(os.environ["PERFBENCH_TRACE_OUT"], "w", encoding="utf-8") as fh:
            json.dump(snap, fh)


if __name__ == "__main__":
    sys.exit(main())
