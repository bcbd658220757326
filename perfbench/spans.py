"""Span recorder for the traced run.

`Recorder.install()` wraps every public function, public method, class
constructor and arithmetic operator of each gausscalc module, where it is
defined and wherever another module imported it by name (for example
`coeffring.squarefree_split` or `hilbert.quadratic_window_sum`).  Classes
are patched in place, so isinstance checks still hold.

Each wrapped call is timed; its self time is its duration minus the time
of the wrapped calls it made.  Module-level functions and the oracle
methods also leave a span record (name, start, end, parent span,
request id), kept in memory up to a cap.  Hot leaf calls (constructors,
operators, methods such as `to_fp`, `char_e`, `kernel_value` and
`coordinate`) are only aggregated into counts and time sums.

The layer of a wrapped callable is the module that defines it.

While installed, the recorder also samples the stack on a wall-clock
timer (SIGALRM every SAMPLE_S seconds).  Each interval between two samples
goes to the module of the innermost gausscalc frame on the stack, or to
the benchmark when there is none.  `accounted_share` compares the two
independent accounts of the same time: the spans' (each layer's self
time, and the traced time outside any wrapped call as the benchmark's own)
and the sampler's.
"""

from __future__ import annotations

import inspect
import os
import signal
import time
from collections import defaultdict

LAYERS = ("arith", "coeffring", "gauss", "hilbert", "dynamics", "wick", "climit", "frontend", "cli")
OPERATORS = frozenset(("__init__", "__call__", "__mul__", "__rmul__", "__truediv__", "__pow__",
                       "__add__", "__neg__"))
# module-level functions too hot for a span record each
HOT_FUNCTIONS = frozenset(("coeffring.to_fp", "coeffring.to_complex"))
# methods that are oracles or caches worth a span record each
SPAN_METHODS = frozenset((
    "hilbert.DenseState.from_state", "hilbert.DenseState.pair_full",
    "dynamics.WeylPair.commutation_defect",
))

# groups whose inclusive time is reported; nested members count once
GROUPS = {
    "tower_search": ("arith.find_params",),
    "gauss_brute": ("gauss.gauss_brute", "gauss.sm_brute"),
    "hilbert_oracle": ("hilbert.DenseState.from_state", "hilbert.DenseState.pair_full",
                       "hilbert.DenseState.permute", "hilbert.DenseState.add",
                       "hilbert.apply_dense", "hilbert.check_unitary",
                       "hilbert.permutation_unitary"),
    "dynamics_oracle": ("dynamics.free_propagator_brute", "dynamics.WeylPair.commutation_defect"),
    "quadrature": ("climit.continuum_inner_quadrature",),
    "parse": ("frontend.parse",),
    "eliminate": ("frontend.eliminate",),
    "eval_nf": ("frontend.eval_normal_form",),
    "eval_expr": ("frontend.eval_expr",),
    "cli_main": ("cli.main",),
}
GAUSS_CLOSED = ("gauss.gauss_closed", "gauss.gauss_closed_sm", "gauss.quadratic_window_sum",
                "gauss.sqrt_with_scale")
HILBERT_KERNEL = ("hilbert.GaussOperator.kernel_value", "hilbert.GaussState.coordinate")


def _hook_gauss_brute(rec, args, kwargs):
    rec.counters["gauss.brute_terms"] += args[1].M


def _hook_sm_brute(rec, args, kwargs):
    rec.counters["gauss.brute_terms"] += args[0].N_u // args[1]


def _hook_propagator_brute(rec, args, kwargs):
    rec.counters["dynamics.brute_terms"] += args[2].N


def _hook_sqrt(rec, args, kwargs):
    if args[1] in getattr(args[0], "_sqrt_cache", ()):
        rec.counters["arith.sqrt_hits"] += 1


def _hook_poly_eval(rec, args, kwargs):
    # a phase polynomial evaluated inside the literal evaluator: one unit of its work
    if rec.group_depth["eval_expr"]:
        rec.counters["frontend.eval_points"] += 1


HOOKS = {
    "gauss.gauss_brute": _hook_gauss_brute,
    "gauss.sm_brute": _hook_sm_brute,
    "dynamics.free_propagator_brute": _hook_propagator_brute,
    "arith.Params.sqrt_canonical": _hook_sqrt,
    "frontend.Poly.eval": _hook_poly_eval,
}


SPAN_CAP = 100_000  # span records kept per run; later spans are only counted
SAMPLE_S = 0.001  # sampler period
BENCH = "bench"  # the bucket of time outside gausscalc code


class Recorder:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total s, self s]
        self.counters: dict[str, int] = defaultdict(int)
        self.refusals: dict[str, int] = defaultdict(int)
        self.group_time: dict[str, float] = defaultdict(float)
        self.group_depth: dict[str, int] = defaultdict(int)
        self.root = [0.0, None, -1]  # frame: [child seconds, layer, span index]
        self.stack = [self.root]
        self.spans: list = []
        self.dropped = 0
        self.request_id = 0
        self._patches: list = []
        self._refusal = None
        self.sampled: dict[str, float] = defaultdict(float)  # bucket -> seconds
        self._files: dict[str, str] = {}  # gausscalc source file -> layer
        self._t_start = self._t_stop = self._t_sample = None
        self._old_handler = None

    # -- wrapping ---------------------------------------------------------------

    def _wrap(self, func, name: str, layer: str, span: bool):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, clock = self.stack, time.perf_counter
        refusal = self._refusal
        hook = HOOKS.get(name)
        group = next((g for g, names in GROUPS.items() if name in names), None)
        rec = self

        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(rec, args, kwargs)
            if group is not None:
                rec.group_depth[group] += 1
            index = -1
            if span:
                if len(rec.spans) < SPAN_CAP:
                    index = len(rec.spans)
                    rec.spans.append([name, 0.0, 0.0, stack[-1][2], rec.request_id])
                else:
                    rec.dropped += 1
            frame = [0.0, layer, index]
            stack.append(frame)
            t0 = clock()
            try:
                return func(*args, **kwargs)
            except refusal:
                if stack[-2][1] != layer:  # the refusal leaves this layer here
                    rec.refusals[layer] += 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                stack[-1][0] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[0]
                if index >= 0:
                    rec.spans[index][1] = t0
                    rec.spans[index][2] = t0 + dt
                if group is not None:
                    rec.group_depth[group] -= 1
                    if not rec.group_depth[group]:
                        rec.group_time[group] += dt

        wrapper.__wrapped__ = func
        wrapper.__name__ = getattr(func, "__name__", name)
        wrapper.__qualname__ = getattr(func, "__qualname__", name)
        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        import gausscalc
        from gausscalc.gauss import NonGaussianSum

        self._refusal = NonGaussianSum
        modules = []
        for layer in LAYERS:
            __import__(f"gausscalc.{layer}")
            modules.append(getattr(gausscalc, layer))
        wrapped = {}  # original function -> wrapper
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    wrapped[obj] = self._wrap(obj, name, layer, name not in HOT_FUNCTIONS)
                    self._patch(mod, attr, wrapped[obj])
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(obj, layer)
        for mod in modules + [gausscalc]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(mod, attr, wrapped[obj])
        package_dir = os.path.dirname(gausscalc.__file__)
        for name in os.listdir(package_dir):
            if name.endswith(".py"):
                layer = name[:-3] if name[:-3] in LAYERS else "gausscalc"
                self._files[os.path.join(package_dir, name)] = layer
        self._start_sampling()

    def _wrap_class(self, cls, layer: str) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in OPERATORS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, (classmethod, staticmethod)):
                kind = type(member)
                self._patch(cls, attr, kind(self._wrap(member.__func__, name, layer, False)))
            elif inspect.isfunction(member):
                self._patch(cls, attr, self._wrap(member, name, layer, name in SPAN_METHODS))

    # -- sampling ---------------------------------------------------------------

    def _start_sampling(self) -> None:
        self._t_start = self._t_sample = time.perf_counter()
        self._old_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)

    def _sample(self, signum, frame) -> None:
        now = time.perf_counter()
        bucket = BENCH
        files = self._files
        while frame is not None:
            layer = files.get(frame.f_code.co_filename)
            if layer is not None:
                bucket = layer
                break
            frame = frame.f_back
        self.sampled[bucket] += now - self._t_sample
        self._t_sample = now

    def _stop_sampling(self) -> None:
        if self._t_start is None or self._t_stop is not None:
            return
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        self._t_stop = time.perf_counter()
        # stopped from the benchmark's own code
        self.sampled[BENCH] += self._t_stop - self._t_sample

    def uninstall(self) -> None:
        self._stop_sampling()
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------------

    def snapshot(self) -> dict:
        """Aggregates as plain data (summable across processes); ends the
        sampling."""
        self._stop_sampling()
        return {
            "stats": {k: list(v) for k, v in self.stats.items() if v[0]},
            "counters": dict(self.counters),
            "refusals": dict(self.refusals),
            "groups": dict(self.group_time),
            "root_s": self.root[0],
            "spans": len(self.spans),
            "dropped": self.dropped,
            "sampled": dict(self.sampled),
            "traced_s": self._t_stop - self._t_start,
        }


def merge(total: dict, part: dict) -> dict:
    """Add one snapshot into another (for child processes)."""
    for name, (calls, tot, self_s) in part["stats"].items():
        acc = total["stats"].setdefault(name, [0, 0.0, 0.0])
        acc[0] += calls
        acc[1] += tot
        acc[2] += self_s
    for key in ("counters", "refusals", "groups", "sampled"):
        for name, value in part[key].items():
            total[key][name] = total[key].get(name, 0) + value
    for key in ("root_s", "spans", "dropped", "traced_s"):
        total[key] = total.get(key, 0) + part[key]
    return total


def empty_snapshot() -> dict:
    return {"stats": {}, "counters": {}, "refusals": {}, "groups": {}, "root_s": 0.0,
            "spans": 0, "dropped": 0, "sampled": {}, "traced_s": 0.0}


def layer_metrics(snap: dict, passes: int) -> dict:
    """Per-layer metrics per pass of the workload's request list."""
    stats, counters, groups = snap["stats"], snap["counters"], snap["groups"]

    def calls(names):
        return sum(stats.get(n, (0,))[0] for n in names)

    def self_ms(names):
        return 1e3 * sum(stats[n][2] for n in names if n in stats)

    by_layer = defaultdict(list)
    for name in stats:
        by_layer[name.split(".", 1)[0]].append(name)
    hilbert_oracle = set(GROUPS["hilbert_oracle"])
    hilbert_symbolic = [n for n in by_layer["hilbert"] if n not in hilbert_oracle and n not in HILBERT_KERNEL]
    sqrt_calls = calls(["arith.Params.sqrt_canonical"])
    out = {
        "arith.calls": calls(by_layer["arith"]),
        "arith.self_ms": self_ms(by_layer["arith"]),
        "arith.tower_search_ms": 1e3 * groups.get("tower_search", 0.0),
        "arith.sqrt_cache_hit_ratio": counters.get("arith.sqrt_hits", 0) / sqrt_calls if sqrt_calls else 0.0,
        "coeffring.coeffs_built": calls(["coeffring.GaussCoeff.__init__"]),
        "coeffring.squarefree_splits": calls(["arith.squarefree_split"]),
        "coeffring.to_fp_calls": calls(["coeffring.to_fp"]),
        "coeffring.self_ms": self_ms(by_layer["coeffring"]),
        "gauss.self_ms": self_ms(by_layer["gauss"]),
        "gauss.closed_calls": calls(GAUSS_CLOSED),
        "gauss.closed_self_ms": self_ms(GAUSS_CLOSED),
        "gauss.brute_terms": counters.get("gauss.brute_terms", 0),
        "gauss.brute_ms": 1e3 * groups.get("gauss_brute", 0.0),
        "gauss.refusals": snap["refusals"].get("gauss", 0),
        "hilbert.self_ms": self_ms(by_layer["hilbert"]),
        "hilbert.symbolic_calls": calls(hilbert_symbolic),
        "hilbert.symbolic_self_ms": self_ms(hilbert_symbolic),
        "hilbert.kernel_evals": calls(HILBERT_KERNEL),
        "hilbert.oracle_ms": 1e3 * groups.get("hilbert_oracle", 0.0),
        "hilbert.refusals": snap["refusals"].get("hilbert", 0),
        "dynamics.calls": calls(by_layer["dynamics"]),
        "dynamics.self_ms": self_ms(by_layer["dynamics"]),
        "dynamics.brute_terms": counters.get("dynamics.brute_terms", 0),
        "dynamics.oracle_ms": 1e3 * groups.get("dynamics_oracle", 0.0),
        "wick.calls": calls(by_layer["wick"]),
        "wick.self_ms": self_ms(by_layer["wick"]),
        "climit.calls": calls(by_layer["climit"]),
        "climit.self_ms": self_ms(by_layer["climit"]),
        "climit.quadrature_ms": 1e3 * groups.get("quadrature", 0.0),
        "frontend.self_ms": self_ms(by_layer["frontend"]),
        "frontend.parse_ms": 1e3 * groups.get("parse", 0.0),
        "frontend.eliminate_ms": 1e3 * groups.get("eliminate", 0.0),
        "frontend.eval_nf_ms": 1e3 * groups.get("eval_nf", 0.0),
        "frontend.eval_expr_ms": 1e3 * groups.get("eval_expr", 0.0),
        "frontend.eval_points": counters.get("frontend.eval_points", 0),
        "frontend.refusals": snap["refusals"].get("frontend", 0),
        "cli.self_ms": self_ms(by_layer["cli"]),
        "cli.main_ms": 1e3 * groups.get("cli_main", 0.0),
    }
    ratios = ("arith.sqrt_cache_hit_ratio",)
    for key, value in out.items():
        if key not in ratios:
            out[key] = value / passes
    return out


def accounted_share(snap: dict) -> float:
    """How far the spans' account of the traced time agrees with the
    sampler's: 1 minus half the summed absolute difference between the two
    accounts' time shares per bucket (the layers and the benchmark).  1
    when both attribute every interval alike; time the spans miss or put
    in the wrong layer lowers it."""
    traced = snap["traced_s"]
    by_spans = defaultdict(float)
    for name, (_, _, self_s) in snap["stats"].items():
        by_spans[name.split(".", 1)[0]] += self_s
    by_spans[BENCH] = traced - snap["root_s"]
    sampled = snap["sampled"]
    total = sum(sampled.values())
    keys = set(by_spans) | set(sampled)
    return 1 - sum(abs(by_spans[k] / traced - sampled.get(k, 0.0) / total) for k in keys) / 2
