import json
import subprocess
import sys

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
    # /dev/null is an invalid params doc: error path, exit 1
    assert out.returncode == 1
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
