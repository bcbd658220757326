"""Shared pieces of the benchmark: the source tree it measures, the timed
loop over a workload's request pass, percentiles and outcome bookkeeping.

Nothing here imports gausscalc at module level, so that the set-up probe
can time the program's import from a fresh interpreter.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# scratch space inside the checkout: params documents and child trace dumps
WORK = os.path.join(ROOT, ".perfbench")

# outcome of one request
OK = "ok"            # completed, output checked (an expected refusal is OK)
FAILED = "failed"    # unexpected exception, refusal or exit status, or non-JSON output
WRONG = "wrong"      # an output disagreed with its oracle: the run is not correct


class SourceTreeMissing(RuntimeError):
    pass


def use_source_tree() -> None:
    """Put the checkout's src/ first on sys.path; refuse to run without it."""
    if not os.path.isfile(os.path.join(SRC, "gausscalc", "__init__.py")):
        raise SourceTreeMissing(f"no gausscalc source tree at {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env() -> dict:
    """Environment for child interpreters: the checkout's src/ first."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + old if old else "")
    return env


def work_dir() -> str:
    os.makedirs(WORK, exist_ok=True)
    return WORK


# host_probe_s() on the reference host (2-CPU x86_64 VM, Python 3.11.7):
# the median of its best time over 18 runs of 40 s
HOST_PROBE_REF_S = 1.35e-3


def host_probe_s() -> float:
    """Best of three timings of a fixed pure-Python integer loop that
    shares no code with gausscalc: the host's speed at the moment.

    The reference host's speed drifts by 10-40% over minutes; a run's
    times are scaled by its best probe time over HOST_PROBE_REF_S, so that
    a run on a slow stretch reads like one on a fast stretch while a change
    to the program, which the probe does not run, shows in full."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        x = 0
        for i in range(20000):
            x = (x * 31 + i) % 1000003
        best = min(best, time.perf_counter() - t0)
    return best


@dataclass(frozen=True)
class Request:
    kind: str
    args: tuple
    refuse: bool = False  # True when the input lies outside the closed-form fragment


@dataclass
class Tally:
    """Per-run bookkeeping of outcomes and request times.

    Every pass sends the same kinds of request in the same order, with
    fresh parameters, so each request slot keeps the best (lowest) time
    over the run's passes: host noise only ever adds time, and the best of
    several repeats estimates the program's own cost of that kind of
    request far more steadily than any single pass.  Costs that recur on
    only some repetitions (a garbage collection, a cache rebuilt now and
    then) and costs that only some parameter draws pay do not show."""

    best: list = field(default_factory=list)  # per request slot, seconds
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    failures: dict = field(default_factory=dict)  # kind -> count
    host_s: float = math.inf  # best host_probe_s() of the run, probed before each pass

    def add(self, index: int, req: Request, outcome: str, seconds: float) -> None:
        if index == len(self.best):
            self.best.append(seconds)
        elif seconds < self.best[index]:
            self.best[index] = seconds
        self.attempted += 1
        if outcome != OK:
            self.failed += 1
            self.failures[req.kind] = self.failures.get(req.kind, 0) + 1
            if outcome == WRONG:
                self.wrong += 1

    def absorb(self, other: "Tally") -> None:
        """Add another phase's outcome counts (not its times)."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        for kind, n in other.failures.items():
            self.failures[kind] = self.failures.get(kind, 0) + n

    def ops_per_s(self) -> float:
        """Requests per second over one pass at each slot's best time."""
        return len(self.best) / sum(self.best)


def run_passes(make_pass, execute, seconds: float, tally: Tally, on_result=None,
               first_pass: int = 0, count: int | None = None) -> tuple[float, int]:
    """Closed loop, one client: send the requests of pass `first_pass`
    (`make_pass(n)` gives pass n's) in order, each after the previous one
    completed, then those of the next pass, and so on until `seconds` have
    elapsed, or until `count` passes are done when it is given.  The
    host's speed is probed before each pass, outside every request's time.
    Returns (wall seconds, passes)."""
    clock = time.perf_counter
    start = clock()
    passes = 0
    while True:
        tally.host_s = min(tally.host_s, host_probe_s())
        pass_no = first_pass + passes
        for index, req in enumerate(make_pass(pass_no)):
            t0 = clock()
            outcome, result = execute(req)
            tally.add(index, req, outcome, clock() - t0)
            if on_result is not None:
                on_result(pass_no, index, req, outcome, result)
        passes += 1
        if passes == count or (count is None and clock() - start >= seconds):
            return clock() - start, passes


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, q in [0, 1]."""
    data = sorted(values)
    if not data:
        raise ValueError("no samples")
    pos = q * (len(data) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 0.5)


def latency_metrics(seconds) -> dict:
    ms = [x * 1e3 for x in seconds]
    return {
        "latency_p50_ms": percentile(ms, 0.50),
        "latency_p90_ms": percentile(ms, 0.90),
        "latency_p99_ms": percentile(ms, 0.99),
    }


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def classify_exception(req: Request, exc: BaseException, refusal_type) -> str:
    """An expected refusal is OK; any other exception is a failure."""
    if isinstance(exc, refusal_type):
        return OK if req.refuse else FAILED
    return FAILED


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_benchmark(bench: dict, workload: str, seed: int, trace: bool, seconds=None) -> dict | None:
    """One run as the benchmark's own command makes it; the parsed last
    stdout line, or None when the run did not produce one."""
    cmd = list(bench["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds if seconds is not None else bench["run_seconds"]),
        "--trace", "1" if trace else "0",
    ]
    if cmd[0] in ("python3", "python"):
        cmd[0] = sys.executable
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    return json.loads(lines[-1])
