"""Steadiness report: two sets of runs of every workload, each end-to-end
metric's spread against its bound.

Usage (from the root of a checkout):

    python3 perfbench/steady.py [--out FILE]

Each of the two sets makes ten untraced runs of each workload that
BENCHMARK.json lists, each with its own seed (1-10, then 11-20), as
BENCHMARK.json's command and run_seconds give them.  For each metric and
set the spread is the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median.
The drift is how far the second set's median lies from the first's, in
either direction, as a share of the first.  Exits 1 when a spread or a
drift exceeds the metric's bound, or when a run fails or reports an
incorrect output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys

from common import load_benchmark, run_benchmark

SETS, RUNS = 2, 10

TOWERS = {"default": {"m": 12, "k_mult": 2, "p": 1990657, "N_v": 144, "N_u": 82944},
          "small": {"m": 2, "k_mult": 1, "p": 257, "N_v": 4, "N_u": 16},
          "m4k2": {"m": 4, "k_mult": 2, "p": 40961, "N_v": 16, "N_u": 1024}}


def environment() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "machine": platform.machine(), "towers": TOWERS}


def spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def drift(first: float, second: float) -> float:
    """Share by which `second` differs from `first`, either way."""
    return abs(second - first) / first


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", default=None, help="write every run's metrics as JSON")
    args = ap.parse_args(argv)
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    ok = True
    record = {"environment": environment(), "run_seconds": bench["run_seconds"], "workloads": {}}
    for name in names:
        sets = []
        for s in range(SETS):
            runs = []
            for r in range(RUNS):
                seed = 1 + s * RUNS + r
                doc = run_benchmark(bench, name, seed, trace=False)
                if doc is None or not doc["correct"]:
                    print(f"{name} seed {seed}: run failed or incorrect", file=sys.stderr)
                    ok = False
                    continue
                runs.append({"seed": seed, "attempted": doc["attempted"], "failed": doc["failed"],
                             "metrics": {k: v["value"] for k, v in doc["metrics"].items()}})
                print(f"{name} set {s + 1} seed {seed}: "
                      + " ".join(f"{k}={v:.4g}" for k, v in runs[-1]["metrics"].items()),
                      file=sys.stderr, flush=True)
            sets.append(runs)
        summary = {}
        record["workloads"][name] = {"sets": sets, "summary": summary}
        print(f"\n{name}")
        print(f"  {'metric':16s} {'unit':6s} {'bound':>6s} " + " ".join(
            f"{'median' + str(i + 1):>11s} {'spread' + str(i + 1):>8s}" for i in range(SETS))
            + f" {'drift':>8s}")
        for metric in bench["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            medians, spreads = [], []
            for runs in sets:
                values = [d["metrics"][key] for d in runs]
                if len(values) < 2:
                    ok = False
                    medians.append(float("nan"))
                    spreads.append(float("nan"))
                    continue
                medians.append(statistics.median(values))
                spreads.append(spread(values) if medians[-1] else 0.0)
            moved = drift(medians[0], medians[1]) if medians[0] else 0.0
            summary[key] = {"unit": metric["unit"], "bound": bound, "medians": medians,
                            "spreads": spreads, "drift": moved}
            flags = []
            if any(not (sp <= bound) for sp in spreads):
                flags.append("SPREAD>BOUND")
            elif any(not (sp <= bound / 3) for sp in spreads):
                flags.append("spread>bound/3")
            if not (moved <= bound):
                flags.append("DRIFT>BOUND")
            if any(f.isupper() for f in flags):
                ok = False
            print(f"  {key:16s} {metric['unit']:6s} {bound:6.3f} " + " ".join(
                f"{m:11.5g} {sp:8.4f}" for m, sp in zip(medians, spreads))
                + f" {moved:8.4f} {' '.join(flags)}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
