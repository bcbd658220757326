"""Tests of the benchmark itself (not of gausscalc).

Run from the root of a checkout:  python3 -m pytest -q perfbench/tests
The run-level tests start the benchmark's command with --seconds 0, which
makes exactly one pass over each workload's request list.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

from common import (FAILED, HOST_PROBE_REF_S, OK, ROOT, WORK, WRONG, Request, Tally, load_benchmark,
                    run_benchmark)
import cli_load
import derive
import spans
import verify

EXACT_COUNTS = ("gauss.brute_terms", "frontend.eval_points", "hilbert.kernel_evals",
                "coeffring.coeffs_built")


@pytest.fixture(scope="module")
def bench():
    return load_benchmark()


def _run(workload, seed, trace=False):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", "1" if trace else "0"]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)


def _last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["derive", "verify", "cli"])
def test_each_workload_runs_and_reports_every_metric(bench, workload):
    doc = run_benchmark(bench, workload, seed=3, trace=False, seconds=0)
    assert doc is not None and doc["correct"] is True
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == want
    assert all(v["value"] > 0 for v in doc["metrics"].values())
    if workload == "cli":
        # the known OverflowError traceback of `--backend complex inner` is counted
        assert doc["failed"] == 1
    else:
        assert doc["failed"] == 0


def test_end_to_end_times_scale_with_host_speed():
    import run

    tally = Tally()
    tally.add(0, Request("a", ()), OK, 0.004)
    tally.add(1, Request("b", ()), OK, 0.002)
    tally.host_s = 2 * HOST_PROBE_REF_S  # the host runs at half the reference speed
    m = run.end_to_end(tally, 0.5, 30.0)
    assert m["ops_per_s"] == pytest.approx(2 * 2 / 0.006)
    assert m["latency_p50_ms"] == pytest.approx(1.5)
    assert (m["setup_s"], m["peak_rss_mb"], m["ok_ratio"]) == (0.5, 30.0, 1.0)


def test_same_seed_same_digest_and_counts(bench):
    first, second = _run("derive", 5, trace=True), _run("derive", 5, trace=True)
    assert first.returncode == 0 and second.returncode == 0
    digests = [line for p in (first, second) for line in p.stdout.splitlines() if line.startswith("digest ")]
    assert len(digests) == 2 and digests[0] == digests[1]
    a, b = _last_json(first)["metrics"], _last_json(second)["metrics"]
    assert set(a) == {m["name"] for m in bench["per_layer"]}
    for key, metric in a.items():
        if metric["unit"] == "count":
            assert metric["value"] == b[key]["value"], key
    other = _run("derive", 6)
    assert [ln for ln in other.stdout.splitlines() if ln.startswith("digest ")] != digests[:1]


def test_verify_counts_repeat_exactly():
    a = _last_json(_run("verify", 2, trace=True))["metrics"]
    b = _last_json(_run("verify", 2, trace=True))["metrics"]
    for key in EXACT_COUNTS:
        assert a[key]["value"] == b[key]["value"] > 0, key


def test_traced_run_accounts_for_wall_time():
    doc = _last_json(_run("verify", 4, trace=True))
    m = {k: v["value"] for k, v in doc["metrics"].items()}
    # the spans' split of the traced time (layer self times, the benchmark's
    # own time) agrees with the stack sampler's on at least nine tenths of it
    assert 0.9 <= m["trace.accounted_share"] <= 1.0
    assert 0 < m["trace.bench_ms"] < m["trace.wall_ms"]
    assert m["trace.overhead_ratio"] > 1.0


def test_sampler_sees_time_the_spans_miss():
    import gausscalc.frontend as frontend

    snap = {"stats": {"frontend.parse": [1, 0.5, 0.5]}, "root_s": 0.5, "traced_s": 1.0,
            "sampled": {"frontend": 0.5, "bench": 0.5}}
    assert spans.accounted_share(snap) == pytest.approx(1.0)
    # time the sampler found in arith while the spans called it the benchmark's
    snap["sampled"] = {"frontend": 0.5, "arith": 0.3, "bench": 0.2}
    assert spans.accounted_share(snap) == pytest.approx(0.7)
    handler = signal.getsignal(signal.SIGALRM)
    rec = spans.Recorder()
    rec.install()
    try:
        deadline = time.perf_counter() + 0.05
        while time.perf_counter() < deadline:
            frontend.parse("sum r . e((-r^2)/2N @V)")
    finally:
        rec.uninstall()
    snap = rec.snapshot()
    assert snap["sampled"]["frontend"] > 0.5 * snap["traced_s"]
    assert sum(snap["sampled"].values()) == pytest.approx(snap["traced_s"])
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_without_source_tree_exits_nonzero_and_prints_no_result():
    bare = os.path.join(WORK, "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "derive", "--seed", "1",
                               "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True,
                              text=True, timeout=180)
        assert proc.returncode != 0
        assert "correct" not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


# -- outcome classification, in process ------------------------------------------


@pytest.fixture(scope="module")
def derive_wl():
    return derive.Derive()


@pytest.fixture(scope="module")
def verify_wl():
    return verify.Verify()


def test_expected_refusal_is_not_a_failure(derive_wl):
    refused = [r for r in derive.make_pass(1) if r.refuse]
    assert len(refused) == 120
    for req in refused[:40]:
        assert derive_wl.execute(req)[0] == OK, req
    # the same input presented as in-fragment is a failure
    req = refused[0]
    assert derive_wl.execute(Request(req.kind, req.args, refuse=False))[0] == FAILED


def test_missing_refusal_is_a_failure(derive_wl):
    req = next(r for r in derive.make_pass(1) if r.kind == "gauss_closed")
    assert derive_wl.execute(Request(req.kind, req.args, refuse=True))[0] == FAILED


def test_injected_wrong_oracle_value_counts_as_failed(verify_wl, monkeypatch):
    req = next(r for r in verify.make_pass(1) if r.kind == "brute_fp")
    assert verify_wl.execute(req)[0] == OK
    real = verify_wl.gauss.gauss_brute
    monkeypatch.setattr(verify_wl.gauss, "gauss_brute", lambda params, spec, chunks=1: (real(params, spec) + 1) % params.p)
    assert verify_wl.execute(req)[0] == WRONG


def test_injected_wrong_oracle_fails_derive_recheck(derive_wl, monkeypatch):
    req = next(r for r in derive.make_pass(1) if r.kind == "gauss_closed" and r.args[3] == "V")
    assert derive_wl.recheck(req) is True
    monkeypatch.setattr(derive_wl.gauss, "gauss_brute", lambda params, spec, chunks=1: -1)
    assert derive_wl.recheck(req) is False


def test_cli_output_classification():
    agree = Request("gauss_sum", ((), 0, cli_load.AGREE))
    error = Request("bad_window", ((), 1, cli_load.ERROR))
    assert cli_load.check_output(agree, 0, '{"agree":true}\n') == OK
    assert cli_load.check_output(agree, 2, '{"agree":false}\n') == WRONG
    assert cli_load.check_output(agree, 0, "") == FAILED
    assert cli_load.check_output(agree, 0, '{"agree":true}\n{"agree":true}\n') == FAILED
    assert cli_load.check_output(agree, 1, '{"error":"x","type":"ArithError"}\n') == FAILED
    # an expected JSON error is not a failure; a traceback with empty stdout is
    assert cli_load.check_output(error, 1, '{"error":"need 4|a| dividing M","type":"PreconditionViolation"}\n') == OK
    assert cli_load.check_output(error, 1, "") == FAILED


def test_cli_json_error_call_is_not_a_failure():
    wl = cli_load.CliLoad()
    cycle = cli_load.make_cycle(1, wl.files)
    by_kind = {r.kind: r for r in cycle}
    assert wl.execute(by_kind["bad_window"])[0] == OK
    assert wl.execute(by_kind["bad_descriptor"])[0] == OK
    assert wl.execute(by_kind["inner_complex_overflow"])[0] == FAILED


def test_expression_points_count():
    from gausscalc.arith import ParamSpec, find_params
    import gausscalc.frontend as frontend

    params = find_params(ParamSpec())
    rec = spans.Recorder()
    rec.install()
    try:
        e1 = frontend.parse("sum r . e((-r^2)/2N @V)")
        e2 = frontend.parse("sum r . sum s . e((-r^2 - s^2)/2N @V)")
        frontend.eval_normal_form(frontend.eliminate(e1, params), params, {})
        assert rec.counters["frontend.eval_points"] == 0  # only the literal evaluator counts
        frontend.eval_expr(e1, params)
        assert rec.counters["frontend.eval_points"] == 144
        frontend.eval_expr(e2, params)
        assert rec.counters["frontend.eval_points"] == 144 + 144 * 144
    finally:
        rec.uninstall()


def test_passes_keep_slot_kinds_and_draw_fresh_inputs():
    for make_pass in (derive.make_pass, verify.make_pass):
        first, second = make_pass(1, 0), make_pass(1, 1)
        assert [r.kind for r in first] == [r.kind for r in second]
        assert [r.refuse for r in first] == [r.refuse for r in second]
        differ = sum(a.args != b.args for a, b in zip(first, second))
        assert differ > len(first) // 2
        assert [r.args for r in make_pass(1, 1)] == [r.args for r in second]


def test_recorder_wraps_imported_names_and_restores_them():
    import gausscalc.coeffring as coeffring
    import gausscalc.hilbert as hilbert
    from gausscalc import arith, gauss

    originals = (coeffring.squarefree_split, hilbert.quadratic_window_sum, coeffring.GaussCoeff.__init__)
    rec = spans.Recorder()
    rec.install()
    try:
        assert coeffring.squarefree_split is not originals[0]
        assert hilbert.quadratic_window_sum is not originals[1]
        P = arith.find_params(arith.ParamSpec(2, 1))
        gauss.gauss_closed(gauss.GaussSumSpec(1, 0, 16), params=P)
        snap = rec.snapshot()
        assert snap["stats"]["gauss.gauss_closed"][0] == 1
        assert snap["stats"]["coeffring.GaussCoeff.__init__"][0] > 0
        total_self = sum(s[2] for s in snap["stats"].values())
        assert total_self == pytest.approx(snap["root_s"], rel=1e-9)
    finally:
        rec.uninstall()
    assert (coeffring.squarefree_split, hilbert.quadratic_window_sum,
            coeffring.GaussCoeff.__init__) == originals


def test_span_records_form_a_tree():
    path = os.path.join(WORK, "test-spans.jsonl")
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", "derive", "--seed", "1",
           "--seconds", "0", "--trace", "1", "--spans", path]
    assert subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=600).returncode == 0
    try:
        with open(path, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
    finally:
        os.remove(path)
    assert records
    for rec in records:
        assert rec["end"] >= rec["start"]
        if rec["parent"] >= 0:
            parent = records[rec["parent"]]
            assert parent["start"] <= rec["start"] and rec["end"] <= parent["end"]
            assert parent["request"] == rec["request"]
