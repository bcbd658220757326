"""Print every metric of every workload by name, with its unit.

Usage (from the root of a checkout):

    python3 perfbench/report.py [--trace]

Runs each workload once untraced, with seed 1 and BENCHMARK.json's
run_seconds (`derive` and `verify`, which BENCHMARK.json lists, and
`cli`), and prints its end-to-end metrics; with
--trace it also makes the traced run and prints the per-layer metrics and
the tracing overhead.  Exits 1 when any output
check failed in any run (a wrong answer, an unexpected exception or exit
status, or a CLI call whose stdout is not one JSON document), and names
the failing runs.
"""

from __future__ import annotations

import argparse
import sys

from common import load_benchmark, run_benchmark
import workloads


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--trace", action="store_true", help="also make the traced run")
    args = ap.parse_args(argv)
    bench = load_benchmark()
    failing = []
    for name in workloads.NAMES:
        for trace in (False, True) if args.trace else (False,):
            doc = run_benchmark(bench, name, 1, trace)
            label = f"{name} ({'traced' if trace else 'untraced'})"
            if doc is None:
                print(f"\n{label}: no result")
                failing.append(label)
                continue
            print(f"\n{label}: correct={doc['correct']} attempted={doc['attempted']} failed={doc['failed']}")
            for key, metric in doc["metrics"].items():
                print(f"  {key:32s} {metric['value']:14.6g} {metric['unit']}")
            if not doc["correct"] or doc["failed"]:
                failing.append(label)
    if failing:
        print(f"\noutput checks failed in: {', '.join(failing)}")
        return 1
    print("\nall output checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
