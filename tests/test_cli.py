import contextlib
import io
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from gausscalc import cli
from gausscalc.arith import MAX_POWER_TABLE, ParamSpec, default_params, find_params
from gausscalc.dynamics import free_propagator, sm_transfer
from gausscalc.frontend import MAX_DEPTH, MAX_EVAL_POINTS, MAX_TERMS, ParseError, format_expr, parse
from gausscalc.hilbert import MAX_DEN, QuadForm, apply_operator, domain_u, state_from_descriptor

CLI = [sys.executable, "-m", "gausscalc.cli"]


def run_cli(*args, check=True):
    proc = subprocess.run(
        CLI + list(args), capture_output=True, text=True, timeout=600
    )
    if check:
        assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc


def test_params_json():
    out = run_cli("params", "--m-base", "2", "--k-mult", "1").stdout
    doc = json.loads(out)
    assert doc["p"] == 257 and doc["N_u"] == 16


def test_params_toml_roundtrip(tmp_path):
    toml = run_cli("params", "--m-base", "2", "--k-mult", "1", "--format", "toml").stdout
    f = tmp_path / "params.toml"
    f.write_text(toml)
    out = run_cli("--params-file", str(f), "gauss-sum", "--a", "1", "--b", "0", "--M", "16").stdout
    assert json.loads(out)["agree"] is True


def test_gauss_sum_both():
    out = run_cli("gauss-sum", "--a", "2", "--b", "2", "--M", "32").stdout
    doc = json.loads(out)
    assert doc["agree"] is True and doc["value_fp"] == doc["value_fp_brute"]


def test_gauss_sum_complex_backend():
    out = run_cli("--backend", "complex", "gauss-sum", "--a", "1", "--b", "0", "--M", "16").stdout
    doc = json.loads(out)
    assert doc["agree"] is True
    re, im = doc["value_complex"]
    assert abs(complex(re, im) - 4 * complex(2**-0.5, 2**-0.5)) < 1e-9


def test_closed_gauss_sum_sums_nothing_literally(monkeypatch):
    def literal_sum(*args, **kwargs):
        raise AssertionError("--compute closed ran a literal sum")

    monkeypatch.setattr(cli, "gauss_brute", literal_sum)
    argv = ["--backend", "complex", "gauss-sum", "--a", "1", "--b", "0", "--M", "82944", "--domain", "U",
            "--compute", "closed"]
    status, lines = main_lines(argv)
    doc = strict_json(lines[0])
    assert status == 0 and "value_complex" not in doc and "value_fp_brute" not in doc
    assert doc["closed_complex"] == [12.0, 0.0]


@pytest.mark.parametrize("backend", ["fp", "complex"])
@pytest.mark.parametrize("compute", ["closed", "brute", "both"])
def test_gauss_sum_prints_agree_only_when_it_compared(backend, compute):
    argv = ["--backend", backend, "gauss-sum", "--a", "2", "--b", "2", "--M", "32", "--compute", compute]
    status, lines = main_lines(argv)
    doc = strict_json(lines[0])
    assert status == 0 and len(lines) == 1
    assert ("agree" in doc) == (compute == "both")
    assert doc.get("agree", True) is True


def test_inner_subcommand():
    s1 = json.dumps({"domain": "V", "coeff": "1/12", "form": [-1, 1, 0], "p_param": 1})
    s2 = json.dumps({"domain": "V", "coeff": "1/12", "form": [0, 0, 0], "p_param": 0})
    out = run_cli("inner", "--s1", s1, "--s2", s2, "--kind", "H").stdout
    doc = json.loads(out)
    assert "coeff_normal_form" in doc and isinstance(doc["value_fp"], int)


def test_evolve_position():
    out = run_cli("evolve", "--t", "2", "--r", "0").stdout
    doc = json.loads(out)
    assert doc["state"]["support"] == [2, 0]


def test_evolve_refuses_a_time_of_period_2N():
    """t = 145 = 1 + N is -143 mod 2N on the default tower, not the time 1."""
    proc = run_cli("evolve", "--t", "145", "--r", "3", check=False)
    assert proc.returncode == 1
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["type"] == "PreconditionViolation" and "t=145" in doc["error"]


def test_evolve_accepts_a_negative_time():
    """t = -1 is the adjoint of P(1), whose support t | q - r is every q."""
    doc = json.loads(run_cli("evolve", "--t", "-1", "--r", "3").stdout)
    assert doc["state"]["support"] == [1, 0]


def test_evolve_a_u_state_on_u():
    desc = {"domain": "U", "coeff": "1/12 * j^-1", "form": [-1, 0, 0]}
    status, lines = main_lines(["evolve", "--t", "1", "--state", json.dumps(desc)])
    params = default_params()
    U = domain_u(params)
    want = apply_operator(params, free_propagator(params, 1, U), state_from_descriptor(params, desc))
    assert status == 0 and json.loads(lines[0]) == {"t": 1, "state": want.to_descriptor()}


def test_weyl_check():
    out = run_cli("weyl-check").stdout
    doc = json.loads(out)
    assert doc["ok"] is True and doc["checked"] == 144


def test_sm_compose():
    out = run_cli("sm-compose", "--A", "-1", "--B", "1", "--C", "-1").stdout
    assert json.loads(out)["agree"] is True


def test_wick_check():
    out = run_cli("wick-check", "--pairs", "25", "--kind", "E").stdout
    doc = json.loads(out)
    assert doc["ok"] is True and doc["failures"] == 0


def test_limit_subcommand():
    out = run_cli("limit", "--A", "2", "--kind", "E", "--N-seq", "144,576").stdout
    doc = json.loads(out)
    assert doc["errors"][0] > doc["errors"][1]


def test_ho_subcommand():
    out = run_cli("ho", "--omega", "1.0", "--t", "0.5", "--x", "0.1", "--x0", "0.2").stdout
    doc = json.loads(out)
    assert "value" in doc


def test_qe_subcommand():
    out = run_cli(
        "--params-file", "/dev/null", "qe", "--expr", "sum r . e((-r^2)/2N @V)",
        check=False,
    )
    # /dev/null is an invalid params doc: one JSON error, exit 1
    assert out.returncode == 1 and not out.stderr
    assert json.loads(out.stdout)["type"] == "ArithError"
    out2 = run_cli("qe", "--expr", "sum r . e((-r^2 + 2*r*x)/2N @V)", "--assign", "x=3")
    doc = json.loads(out2.stdout)
    assert doc["agree"] is True and "sum" not in doc["normal_form"]


def test_qe_past_the_point_budget_prints_its_normal_form_unchecked():
    text = "sum a . sum b . sum c . sum d . e((-a^2 + 2*a*b - b^2 + 2*c*d)/2N @V)"
    status, lines = main_lines(["qe", "--expr", text])
    doc = strict_json(lines[0])
    assert status == 0 and len(lines) == 1
    assert doc["checked"] is False and "agree" not in doc and "eval_fp" not in doc
    assert doc["normal_form"] == "248832 * e8^7"
    assert doc["reason"] == (f"literal evaluation would visit {144 ** 4} index points, "
                             f"more than the bound {MAX_EVAL_POINTS}")


def test_a_long_integer_literal_is_a_parse_error():
    status, lines = main_lines(["qe", "--expr", "9" * 5000])
    assert status == 1 and len(lines) == 1
    assert strict_json(lines[0]) == {"error": "1:1: integer literal of 5000 digits is too long", "type": "ParseError"}


def test_cli_determinism():
    a = run_cli("gauss-sum", "--a", "2", "--b", "2", "--M", "144").stdout
    b = run_cli("gauss-sum", "--a", "2", "--b", "2", "--M", "144").stdout
    assert a == b
    c = run_cli("wick-check", "--pairs", "10", "--kind", "H").stdout
    d = run_cli("wick-check", "--pairs", "10", "--kind", "H").stdout
    assert c == d


def test_cli_overflow_is_a_json_error():
    # a U-scale inner product whose real exponent exceeds double range
    s1 = json.dumps({"domain": "U", "coeff": "1/12", "form": [-1, 300, 0], "p_param": 1})
    s2 = json.dumps({"domain": "U", "coeff": "1/12", "form": [0, 0, 0], "p_param": 0})
    proc = run_cli("--backend", "complex", "inner", "--s1", s1, "--s2", s2, "--kind", "E", check=False)
    assert proc.returncode == 1 and not proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["type"] == "OverflowError" and proc.stdout.count("\n") == 1


def test_cli_bad_assign_item_named():
    proc = run_cli("qe", "--expr", "sum r . e((-r^2 + 2*r*x)/2N @V)", "--assign", "x=3,y", check=False)
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert "'y'" in doc["error"] and "invalid literal" not in doc["error"]


def test_cli_rejects_non_primitive_epsilon(tmp_path):
    f = tmp_path / "params.toml"
    f.write_text("epsilon = 25\nk_mult = 2\nm = 12\np = 1990657\n")
    s = json.dumps({"domain": "V", "coeff": "1/12", "form": [-1, 1, 0], "p_param": 1})
    proc = run_cli("--params-file", str(f), "inner", "--s1", s, "--s2", s, "--kind", "E", check=False)
    assert proc.returncode == 1
    assert "primitive root" in json.loads(proc.stdout)["error"]


def test_cli_error_exit():
    proc = run_cli("gauss-sum", "--a", "2", "--b", "0", "--M", "10", check=False)
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert "error" in doc


# -- the boundary, in process ----------------------------------------------------

SMALL = {"m": 2, "k_mult": 1, "p": 257, "epsilon": 3}
QE = ["qe", "--expr", "sum r . e((-r^2)/2N @V)"]


def main_lines(argv):
    """(status, stdout lines) of one in-process cli.main call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(argv)
    return status, out.getvalue().splitlines()


def strict_json(line):
    def no_constant(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(line, parse_constant=no_constant)


def _inner(state):
    """inner of a state descriptor with itself."""
    text = state if isinstance(state, str) else json.dumps(state)
    return ["inner", "--s1", text, "--s2", text]


# name: (Params document, None for the default tower; the subcommand's argv)
BAD_INPUTS = {
    "empty params document": ("", QE),
    "params without k_mult": ({"m": 2, "p": 257, "epsilon": 3}, QE),
    "params with a float": (dict(SMALL, epsilon=3.7), QE),
    "params with a bool": (dict(SMALL, m=True), QE),
    "params as a list": ("[2, 1, 257, 3]", QE),
    "params with m = 0": (dict(SMALL, m=0), QE),
    "null state": (SMALL, _inner("null")),
    "list state": (SMALL, _inner("[1, 2]")),
    "state without form": (SMALL, _inner({"domain": "V", "coeff": "1/2"})),
    "numeric coeff": (SMALL, _inner({"domain": "V", "coeff": 5, "form": [0, 0, 0]})),
    "float form": (SMALL, _inner({"domain": "V", "coeff": "1/2", "form": [-1.5, 0, 0]})),
    "short form": (SMALL, _inner({"domain": "V", "coeff": "1/2", "form": [-1, 0]})),
    "unknown domain": (SMALL, _inner({"domain": "X", "coeff": "1/2", "form": [0, 0, 0]})),
    "position on an unknown domain": (SMALL, _inner({"r": 3, "domain": "Q"})),
    "float position": (SMALL, _inner({"r": 1.5})),
    "NaN output": (None, ["ho", "--omega", "1.0", "--t", "nan", "--x", "0.1", "--x0", "0.2"]),
    "option-like value": (None, ["inner", "--s1", "-1e+16", "--s2", '{"r": 0}']),
    "missing required flag": (None, ["gauss-sum", "--a", "1"]),
    "bad choice": (None, ["inner", "--kind", "X", "--s1", '{"r": 0}', "--s2", '{"r": 0}']),
    "unknown subcommand": (None, ["frobnicate"]),
    "400 nested parentheses": (None, ["qe", "--expr", "(" * 400 + "1" + ")" * 400]),
    "400 nested quantifiers": (None, ["qe", "--expr", "".join(f"sum x{i} . " for i in range(400)) + "1"]),
}


def one_json_error(params, argv, tmp_path):
    """The one JSON error document of a cli.main call that must exit with
    status 1 and write nothing else; `params` (a document or None) goes
    through --params-file."""
    if params is not None:
        f = tmp_path / "params"
        f.write_text(params if isinstance(params, str) else json.dumps(params))
        argv = ["--params-file", str(f)] + argv
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        status, lines = main_lines(argv)
    assert status == 1 and len(lines) == 1 and not err.getvalue(), (lines, err.getvalue())
    doc = strict_json(lines[0])
    assert set(doc) == {"error", "type"}
    return doc


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_is_one_json_error(case, tmp_path):
    one_json_error(*BAD_INPUTS[case], tmp_path)


def _coeff(text):
    return _inner({"domain": "V", "coeff": text, "form": [0, 0, 0]})


def _den_inner(den, den2=1, form2=(0, 0, 0), domain="V"):
    """inner of a ket over den with one over den2 (form2), Euclidean."""
    s1 = json.dumps({"coeff": "1/12", "domain": domain, "form": [-1, 0, 0], "den": den})
    s2 = json.dumps({"coeff": "1/12", "domain": domain, "form": list(form2), "den": den2})
    return ["inner", "--s1", s1, "--s2", s2, "--kind", "E"]


_DESC_SUPPORT = '{"coeff": "1/12", "domain": "V", "form": [-1, 0, 0], "support": [2, 0]}'
_DESC_ZERO = '{"coeff": "1/12", "domain": "V", "form": [0, 0, 0]}'

# name: (Params document, None for the default tower; the subcommand's argv;
# the error's type; the start of its message)
REFUSALS = {
    "gauss-sum over M = 0": (None, ["gauss-sum", "--a", "0", "--b", "0", "--M", "0"],
                             "PreconditionViolation", "modulus M must be positive"),
    "assign item without a value": (None, ["qe", "--expr", "1", "--assign", "x"], "ValueError", "bad --assign item 'x'"),
    "assign item without a name": (None, ["qe", "--expr", "1", "--assign", "x=1,=2"], "ValueError", "bad --assign item '=2'"),
    "assign name given twice": (None, ["qe", "--expr", "1", "--assign", "x=1,x=2"], "ValueError", "bad --assign item 'x=2'"),
    "reserved name in a phase": (None, ["qe", "--expr", "e((j^2)/2N@V)"],
                                 "ParseError", "1:4: 'j' is reserved and cannot name a variable"),
    "limit over a non-square N": (None, ["limit", "--A", "1", "--N-seq", "145"], "ArithError", "N = 145 is not a perfect square"),
    "params with m = 3": (dict(SMALL, m=3), QE, "ArithError", "8*N_u must divide p - 1"),
    "coeff with a dangling '*'": (SMALL, _coeff("1/2 *"), "ArithError", "dangling '*' in coefficient"),
    "coeff without its '*'": (SMALL, _coeff("1/2 j"), "ArithError", "expected '*' at 4 in coefficient"),
    "coeff of bad syntax": (SMALL, _coeff("x"), "ArithError", "bad coefficient syntax at 0"),
    "coeff over a zero denominator": (SMALL, _coeff("1/0"), "ArithError", "zero denominator at 0"),
    "coeff phase over a zero V denominator": (SMALL, _coeff("j * e(1/0@V)"), "ArithError", "zero denominator at 3"),
    "coeff phase 0/0 on U": (SMALL, _coeff("e(0/0@U)"), "ArithError", "zero denominator at 0"),
    # 2^24 terms if expanded: refused at the first product past MAX_TERMS
    "expansion past its bound": (None, ["qe", "--expr", "sum x . " + "*".join(["(1+e(2*z*x/2N @V))"] * 24)],
                                 "TermBudgetExceeded", f"expansion would give {2 * MAX_TERMS} terms"),
    # sixteen addends of MAX_TERMS terms each: refused at the second
    "sum past its bound": (None, ["qe", "--expr", " + ".join(["*".join(["(1+e(2*z/2N @V))"] * 12)] * 16)],
                           "TermBudgetExceeded", f"expansion would give {2 * MAX_TERMS} terms"),
    # the smallest 21-digit prime: its trial division would take minutes
    "sqrt of a 21-digit prime in an expression": (None, ["qe", "--expr", "2 * sqrt(100000000000000000039)"],
                                                  "ParseError", "1:5: sqrt argument exceeds 1000000000000"),
    "sqrt of a 21-digit prime in a coeff": (SMALL, _coeff("2 * sqrt(100000000000000000039)"), "ArithError",
                                            "sqrt argument at 3 in coefficient"),
    "params field given twice in TOML": ("m = 2\nk_mult = 1\np = 999\np = 257\nepsilon = 3\n", QE,
                                         "ArithError", "Params field 'p' given twice"),
    "params field given twice in JSON": ('{"m": 2, "k_mult": 1, "p": 257, "epsilon": 3, "m": 2}', QE,
                                         "ArithError", "Params field 'm' given twice"),
    "params field not an integer in TOML": ("m = 2\nk_mult = 1\np = 25x7\nepsilon = 3\n", QE,
                                            "ArithError", "Params field 'p' must be an integer, got '25x7'"),
    # inner would factor a period of N * den by trial division: 2.8 s for this den
    "state den of 16 digits": (None, _den_inner(10**15 + 37), "ArithError",
                               f"state descriptor field 'den' exceeds {MAX_DEN}, got {10**15 + 37}"),
    "state den past its bound": (None, _den_inner(MAX_DEN + 3), "ArithError",
                                 f"state descriptor field 'den' exceeds {MAX_DEN}"),
    # p - 1 = 128 * 134217757 * 134218391: trial division of the cofactor up to its square root took 8.6 s
    "params whose p - 1 has a large composite factor": (
        {"m": 2, "k_mult": 1, "p": 2305854897685630337, "epsilon": 3}, QE, "ArithError",
        "p - 1 for p = 2305854897685630337 has a composite factor 18014491388168987 with no prime factor up to"),
    "misspelled state descriptor field": (None, ["inner", "--s1", _DESC_SUPPORT.replace("support", "suport"),
                                                 "--s2", _DESC_ZERO, "--kind", "E"],
                                          "ArithError", "state descriptor has no field 'suport'"),
    "misspelled position state field": (None, ["evolve", "--t", "1", "--state", '{"r": 3, "domian": "U"}'],
                                        "ArithError", "position state has no field 'domian'"),
    "state descriptor field given twice": (None, ["inner", "--s1", _DESC_SUPPORT[:-1] + ', "support": [1, 0]}',
                                                  "--s2", _DESC_ZERO, "--kind", "E"],
                                           "ArithError", "descriptor field 'support' given twice"),
    "position state field given twice": (None, ["evolve", "--t", "1", "--state", '{"r": 3, "r": 4}'],
                                         "ArithError", "descriptor field 'r' given twice"),
    # a valid tower (p - 1 = 9 * 2^33) on which the brute sum over M = 2^31 wants 2^32 int64 entries (32 GiB)
    "power table past its bound": ({"m": 2, "k_mult": 1, "p": 77309411329, "epsilon": 7},
                                   ["gauss-sum", "--a", "1", "--b", "0", "--M", str(1 << 31), "--compute", "brute"],
                                   "ArithError", f"a power table of {1 << 32} entries exceeds the bound {MAX_POWER_TABLE}"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusal_is_one_json_error_of_its_type(case, tmp_path):
    params, argv, kind, message = REFUSALS[case]
    doc = one_json_error(params, argv, tmp_path)
    assert doc["type"] == kind and doc["error"].startswith(message), doc


@pytest.mark.parametrize("case", ["expansion past its bound", "sum past its bound",
                                  "sqrt of a 21-digit prime in an expression", "sqrt of a 21-digit prime in a coeff",
                                  "state den of 16 digits", "state den past its bound", "power table past its bound",
                                  "params whose p - 1 has a large composite factor"])
def test_unbounded_work_is_refused_within_a_second(case, tmp_path):
    params, argv, _, _ = REFUSALS[case]
    start = time.perf_counter()
    one_json_error(params, argv, tmp_path)
    assert time.perf_counter() - start < 1.0


def test_a_params_document_with_a_large_prime_cofactor_loads_within_a_second(tmp_path):
    # p - 1 = 128 * c with c a prime near 2^55: trial division up to sqrt(c) took 10.9 s
    f = tmp_path / "params.json"
    f.write_text(json.dumps({"m": 2, "k_mult": 1, "p": 4611686018427388289, "epsilon": 3}))
    start = time.perf_counter()
    status, lines = main_lines(["--params-file", str(f)] + QE)
    assert time.perf_counter() - start < 1.0
    assert status == 0 and strict_json(lines[0])["agree"] is True


def test_the_dens_the_bound_admits_are_factored_within_a_second(tmp_path):
    # two primes just below MAX_DEN with combined A = 4 on U: inner factors
    # the period N_u * 999983 * 999979 / 4, trial division up to 999979
    assert 999979 < 999983 <= MAX_DEN
    start = time.perf_counter()
    doc = one_json_error(None, _den_inner(999983, 999979, (1, 0, 0), "U"), tmp_path)
    assert time.perf_counter() - start < 1.0
    assert doc == {"error": "period exceeds the domain; no reduced window", "type": "NonGaussianSum"}


def test_nesting_beyond_max_depth_is_a_parse_error_where_it_starts():
    deep = MAX_DEPTH + 1
    with pytest.raises(ParseError) as exc:
        parse("(" * deep + "1" + ")" * deep)
    assert (exc.value.line, exc.value.col) == (1, deep)
    quants = [f"sum x{i} . " for i in range(400)]
    with pytest.raises(ParseError) as exc:
        parse("".join(quants) + "1")
    assert (exc.value.line, exc.value.col) == (1, 1 + len("".join(quants[:MAX_DEPTH])))
    # at the limit a literal parenthesised nest still evaluates through `qe`
    at_limit = "(" * MAX_DEPTH + "1/2" + ")" * MAX_DEPTH
    status, lines = main_lines(["qe", "--expr", at_limit])
    doc = strict_json(lines[0])
    assert status == 0 and doc["agree"] is True and doc["input"] == "1/2"
    assert format_expr(parse("".join(quants[:MAX_DEPTH]) + "1")).count("sum") == MAX_DEPTH


SMALL_SM_FORMS = ((-4, 0), (-3, -1), (-2, -2), (-2, 0), (-1, -3), (-1, -1), (-1, 0), (0, -4), (0, -2), (0, -1))


def test_sm_compose_samples_equal_one_kernel_product_each(tmp_path):
    """Every transfer form whose square closes on the (2, 1) tower: each
    sample's brute value is its own row-by-column kernel product."""
    f = tmp_path / "small.json"
    f.write_text(json.dumps(SMALL))
    P = find_params(ParamSpec(2, 1))
    mm = domain_u(P).index_vector()
    for A, C in SMALL_SM_FORMS:
        for B in range(-2, 3):
            status, lines = main_lines(["--params-file", str(f), "sm-compose",
                                        "--A", str(A), "--B", str(B), "--C", str(C)])
            doc = strict_json(lines[0])
            T = sm_transfer(P, QuadForm(A, B, C))
            assert status == 0 and doc["agree"] is True and len(doc["samples"]) == 4
            for s in doc["samples"]:
                q, r = s["q"], s["r"]
                want = int((T.kernel_block(P, q, mm) * T.kernel_block(P, mm, r) % P.p).sum()) % P.p
                assert s["brute"] == want == s["closed"], (A, B, C, q, r)


def test_help_still_exits_zero():
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exc:
        cli.main(["gauss-sum", "--help"])
    assert exc.value.code == 0 and "--domain" in out.getvalue()


def test_degenerate_limit_is_strict_json():
    status, lines = main_lines(["limit", "--A", "0", "--kind", "H", "--N-seq", "144"])
    assert status == 0 and len(lines) == 1
    doc = strict_json(lines[0])
    assert doc["degenerate"] is True and doc["continuum_value"] is None


def test_toml_integer_literals_stay_valid(tmp_path):
    f = tmp_path / "params.toml"
    f.write_text("epsilon = +3\nk_mult = 1\nm = 2\np = 2_57\n")
    status, lines = main_lines(["--params-file", str(f)] + QE)
    assert status == 0 and strict_json(lines[0])["agree"] is True


# random documents: either one JSON result (status 0) or one JSON error (status 1)

_garbage = st.one_of(
    st.none(), st.booleans(), st.integers(-300, 300), st.floats(allow_nan=True), st.text(max_size=4),
    st.lists(st.integers(-9, 9), max_size=4),
)


def _replaced(doc, key, value):
    return {**doc, key: value}


def _dropped(doc, key):
    return {k: v for k, v in doc.items() if k != key}


def _mostly(valid, other):
    """valid three times in four, else other."""
    return st.sampled_from([True, True, True, False]).flatmap(lambda ok: valid if ok else other)


# valid documents, and valid documents with one field replaced or dropped
_params_doc = _mostly(st.just(SMALL), st.one_of(
    st.builds(_replaced, st.just(SMALL), st.sampled_from(sorted(SMALL)), st.one_of(st.integers(-3, 300), _garbage)),
    st.builds(_dropped, st.just(SMALL), st.sampled_from(sorted(SMALL))),
))
_ket = st.fixed_dictionaries(
    {
        "domain": st.sampled_from(["U", "V"]),
        "coeff": st.sampled_from(["1/2", "1/2 * j^-1", "0", "3 * e8"]),
        "form": st.lists(st.integers(-4, 4), min_size=3, max_size=3),
    },
    optional={
        "p_param": st.integers(-4, 4),
        "den": st.integers(-2, 4),
        "support": st.lists(st.integers(-2, 8), min_size=2, max_size=2),
    },
)
_position = st.fixed_dictionaries({"r": st.integers(-20, 20)}, optional={"domain": st.sampled_from(["U", "V"])})
_keys = st.sampled_from(["domain", "coeff", "form", "p_param", "den", "support", "r"])
_state_doc = _mostly(st.one_of(_ket, _position), st.one_of(
    st.builds(_replaced, _ket, _keys, _garbage),
    st.builds(_dropped, _ket, _keys),
    st.builds(_replaced, _position, _keys, _garbage),
    _garbage,
))


@settings(max_examples=150, deadline=None)
@given(params=_params_doc, s1=_state_doc, s2=_state_doc, kind=st.sampled_from(["E", "H"]),
       backend=st.sampled_from(["fp", "complex"]))
def test_random_documents_give_one_json_line(params, s1, s2, kind, backend):
    with tempfile.TemporaryDirectory() as tmp:
        f = Path(tmp) / "params.json"
        f.write_text(json.dumps(params))
        argv = ["--params-file", str(f), "--backend", backend,
                "inner", f"--s1={json.dumps(s1)}", f"--s2={json.dumps(s2)}", "--kind", kind]
        status, lines = main_lines(argv)
    assert len(lines) == 1, lines
    doc = strict_json(lines[0])
    event(doc.get("type", "result"))
    assert status == (1 if "error" in doc else 0), (status, doc)
