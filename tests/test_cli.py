import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from gausscalc import cli

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
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_is_one_json_error(case, tmp_path):
    params, argv = BAD_INPUTS[case]
    if params is not None:
        f = tmp_path / "params"
        f.write_text(params if isinstance(params, str) else json.dumps(params))
        argv = ["--params-file", str(f)] + argv
    status, lines = main_lines(argv)
    assert status == 1 and len(lines) == 1, lines
    assert set(strict_json(lines[0])) == {"error", "type"}


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
