"""gausscalc benchmark: one run of one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {derive,verify,cli} --seed N \
        --seconds S --trace {0,1} [--spans FILE]

The workload's inputs come from the seed alone.  The run first measures
set-up time in fresh interpreters, then drives the workload with one
closed-loop client for whole passes over its request list until S
seconds have elapsed, checking every output.  Every pass has the same
request kinds in the same order, with parameters drawn afresh from the
seed and the pass number.  Each request slot keeps its best time over the
passes; the latency percentiles and ops_per_s come from those times,
scaled, like setup_s, to the reference host's speed by the host probe
(common.host_probe_s).  The last line on stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 a third of the time runs
untraced, then as many fresh passes run under the span recorder (so that
both phases' best times are over equally many draws), and the metrics
are the per-layer ones (per pass over the request list) plus the tracing
overhead.

Exit status: 0 unless an output check found a wrong answer (then 1; other
failures are counted in "failed"), 2 when the run could not start (for
example without src/gausscalc).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

from common import (  # noqa: E402
    HOST_PROBE_REF_S, WORK, SourceTreeMissing, Tally, child_env, digest, latency_metrics, median,
    run_passes, use_source_tree,
)
import workloads  # noqa: E402

SETUP_REPEATS = {"derive": 9, "verify": 9, "cli": 9}
UNITS = {
    "ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms", "latency_p99_ms": "ms",
    "setup_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio",
}
# derive: V-domain results re-checked against literal oracles after timing
RECHECK = {"gauss_closed": 4, "inner": 4, "apply_free": 1, "qe": 3}


def measure_setup(workload: str, seed: int) -> float:
    """Median set-up time over fresh interpreters, each scaled to the
    reference host's speed by its own host probe."""
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for _ in range(SETUP_REPEATS[workload]):
        out = subprocess.run([sys.executable, probe, workload, str(seed)], capture_output=True,
                             text=True, env=child_env(), timeout=120)
        if out.returncode:
            raise RuntimeError(f"set-up probe failed: {out.stderr.strip()[-400:]}")
        setup_s, host_s = map(float, out.stdout.split()[-2:])
        times.append(setup_s * HOST_PROBE_REF_S / host_s)
    return median(times)


def end_to_end(tally: Tally, setup_s: float, rss_mb: float) -> dict:
    """The end-to-end metrics; times scaled to the reference host's speed."""
    scale = HOST_PROBE_REF_S / tally.host_s  # below 1 on a host slower than the reference
    print(f"host probe best {1e3 * tally.host_s:.4f} ms (reference {1e3 * HOST_PROBE_REF_S} ms): "
          f"request times scaled by {scale:.4f}; unscaled ops_per_s {tally.ops_per_s():.6g}",
          file=sys.stderr)
    out = {"ops_per_s": tally.ops_per_s() / scale}
    out.update(latency_metrics([t * scale for t in tally.best]))
    out["setup_s"] = setup_s
    out["peak_rss_mb"] = rss_mb
    out["ok_ratio"] = (tally.attempted - tally.failed) / tally.attempted
    return out


def recheck_derive(wl, requests, seed: int) -> int:
    """Re-check a seeded sample of V-domain results; returns the number
    that disagree with literal summation or fail."""
    rng = random.Random(seed * 31 + 5)
    candidates = wl.recheck_candidates(requests)
    bad = 0
    for kind, count in RECHECK.items():
        pool = [i for i in candidates if requests[i].kind == kind]
        for i in rng.sample(pool, min(count, len(pool))):
            try:
                ok = wl.recheck(requests[i])
            except Exception as exc:  # an oracle that raises is a failed check
                print(f"recheck {requests[i]}: {type(exc).__name__}: {exc}", file=sys.stderr)
                ok = False
            if not ok:
                print(f"recheck disagrees: {requests[i]}", file=sys.stderr)
                bad += 1
    return bad


def run_in_process(name: str, seed: int, seconds: float, trace: bool, spans_path: str | None):
    t0 = time.perf_counter()
    import gausscalc.cli  # noqa: F401  (timed once here for the traced run)

    import_ms = 1e3 * (time.perf_counter() - t0)
    setup_s = measure_setup(name, seed)
    wl = workloads.in_process(name)
    for req in wl.warmup_requests(seed):
        wl.execute(req)
    make_pass = functools.partial(wl.make_pass, seed)
    first_pass: list[str] = []

    def keep(pass_no, index, req, outcome, result):
        if pass_no == 0:
            first_pass.append(f"{outcome}|{result}")

    tally = Tally()
    if not trace:
        run_passes(make_pass, wl.execute, seconds, tally, keep)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = end_to_end(tally, setup_s, rss_mb)
    else:
        from spans import Recorder, layer_metrics

        _, untraced_passes = run_passes(make_pass, wl.execute, seconds / 3, tally, keep)
        untraced_ops = tally.ops_per_s()
        traced = Tally()
        rec = Recorder()

        def execute(req):
            rec.request_id += 1
            return wl.execute(req)

        rec.install()
        try:
            wall_t, passes = run_passes(make_pass, execute, 0, traced, first_pass=untraced_passes,
                                        count=untraced_passes)
        finally:
            rec.uninstall()
        snap = rec.snapshot()
        metrics = layer_metrics(snap, passes)
        metrics["cli.import_ms"] = import_ms
        metrics["cli.startup_share"] = 0.0  # in-process: no interpreter start per call
        metrics.update(trace_metrics(untraced_ops, traced, wall_t, passes, snap))
        if spans_path:
            dump_spans(spans_path, rec.spans)
        print(f"spans kept {len(rec.spans)}, dropped {rec.dropped}", file=sys.stderr)
        tally.absorb(traced)
    rechecks_bad = 0
    if name == "derive":
        rechecks_bad = recheck_derive(wl, make_pass(0), seed)
        print(f"digest {digest(first_pass)}")
    return tally, metrics, rechecks_bad


def trace_metrics(untraced_ops, traced: Tally, wall_t, passes, snap) -> dict:
    from spans import accounted_share

    traced_ops = traced.ops_per_s()
    return {
        "trace.ops_per_s": traced_ops,
        "trace.ops_per_s_untraced": untraced_ops,
        "trace.overhead_ratio": untraced_ops / traced_ops,
        "trace.wall_ms": 1e3 * wall_t / passes,
        "trace.bench_ms": 1e3 * (wall_t - snap["root_s"]) / passes,
        "trace.accounted_share": accounted_share(snap),
    }


def dump_spans(path: str, spans) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for name, start, end, parent, request in spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                 "request": request}) + "\n")


def run_cli(seed: int, seconds: float, trace: bool):
    from cli_load import CliLoad, make_cycle

    import gausscalc.cli  # noqa: F401  (byte-code cache for the probes and children)

    setup_s = measure_setup("cli", seed)
    wl = CliLoad()
    cycle = make_cycle(seed, wl.files)

    def make_pass(pass_no):  # every cycle makes the same calls: each is a fresh process
        return cycle

    tally = Tally()
    if not trace:
        run_passes(make_pass, wl.execute, seconds, tally)
        rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        return tally, end_to_end(tally, setup_s, rss_mb), 0

    from spans import empty_snapshot, layer_metrics, merge

    _, untraced_passes = run_passes(make_pass, wl.execute, seconds / 3, tally)
    untraced_ops = tally.ops_per_s()
    out_file = os.path.join(WORK, "child-trace.json")
    env = child_env()
    env["PERFBENCH_TRACE_OUT"] = out_file
    traced_wl = CliLoad([sys.executable, os.path.join(HERE, "cli_child.py")], env)
    total = empty_snapshot()
    import_s = [0.0]
    startup = [0.0, 0.0]  # seconds outside cli.main, child wall seconds

    def execute(req):
        if os.path.exists(out_file):
            os.remove(out_file)
        t0 = time.perf_counter()
        result = traced_wl.execute(req)
        wall = time.perf_counter() - t0
        startup[1] += wall
        if os.path.exists(out_file):
            with open(out_file, encoding="utf-8") as fh:
                part = json.load(fh)
            merge(total, part)
            import_s[0] += part["import_s"]
            startup[0] += wall - part["main_s"]
        else:
            startup[0] += wall
        return result

    traced = Tally()
    wall_t, passes = run_passes(make_pass, execute, 0, traced, count=untraced_passes)
    if os.path.exists(out_file):
        os.remove(out_file)
    metrics = layer_metrics(total, passes)
    metrics["cli.import_ms"] = 1e3 * import_s[0] / passes
    metrics["cli.startup_share"] = startup[0] / startup[1]
    metrics.update(trace_metrics(untraced_ops, traced, wall_t, passes, total))
    tally.absorb(traced)
    return tally, metrics, 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=workloads.NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None, help="write the traced run's span records as JSON lines (derive, verify)")
    args = ap.parse_args(argv)
    try:
        use_source_tree()
    except SourceTreeMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.workload == "cli":
        tally, metrics, rechecks_bad = run_cli(args.seed, args.seconds, bool(args.trace))
    else:
        tally, metrics, rechecks_bad = run_in_process(
            args.workload, args.seed, args.seconds, bool(args.trace), args.spans)
    if tally.failures:
        print(f"failures by kind: {tally.failures}", file=sys.stderr)
    correct = tally.wrong == 0 and rechecks_bad == 0
    units = UNITS if not args.trace else {}
    doc = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed + rechecks_bad,
        "metrics": {k: {"value": v, "unit": units.get(k) or per_layer_unit(k)} for k, v in metrics.items()},
    }
    print(json.dumps(doc))
    return 0 if correct else 1


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("ops_per_s") or name.endswith("ops_per_s_untraced"):
        return "1/s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
