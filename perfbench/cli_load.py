"""The `cli` workload: one fresh `python -m gausscalc.cli` process at a
time, cycling through every subcommand except `sm-compose` (which the
`verify` workload runs through `cli.main`).

Both towers are passed with `--params-file`; some calls use
`--backend complex`; malformed inputs must give one JSON error document
and exit status 1.  Every call's stdout must be exactly one JSON document,
its `agree`/`ok` fields must hold and its exit status must be the
expected one.  Known defects are counted as failures, not filtered out:
`--backend complex inner` on a U-scale ket whose inner product has a
large real exponent ends in an OverflowError traceback with empty stdout.

The cycle has a fixed order and composition; the seed picks parameters
that do not change a call's cost.  It is kept short (20 calls, about
0.2-0.35 s each, and one `weyl-check` on the default tower of about
0.6-1 s) so that a run repeats every call four to six times: process
start-up on the reference host swings by 40% over tens of seconds, and
each call's best time over more repeats is steadier.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

from common import FAILED, OK, WRONG, Request, child_env, work_dir
import exprgen

DEFAULT_TOWER = {"m": 12, "k_mult": 2, "p": 1990657, "epsilon": 5}
SMALL_TOWER_TOML = "epsilon = 3\nk_mult = 1\nm = 2\np = 257\n"
CHILD_TIMEOUT_S = 60

# expected outcome of a call: (exit status, check on the JSON document)
AGREE, OK_FIELD, ERROR, ANY, CAUSTIC = "agree", "ok", "error", "any", "caustic"


def _ket_json(domain, A, B, C, pp, coeff="1/12"):
    return json.dumps({"domain": domain, "coeff": coeff, "form": [A, B, C], "p_param": pp})


def make_cycle(seed: int, files: dict) -> list[Request]:
    rng = random.Random(seed * 15485863 + 3)
    default, small, garbage = files["default"], files["small"], files["garbage"]

    def r(lo, hi):
        return str(rng.randint(lo, hi))

    a = rng.choice((1, 2, 3, 4, 6)) * rng.choice((-1, 1))
    a_small = rng.choice((1, 2, 4)) * rng.choice((-1, 1))
    t = rng.choice((1, 2, 3, 4, 6))
    A_free = rng.choice({1: (-3, -2, -1, 0), 2: (-4, -1, 0), 3: (-1, 0), 4: (-2, 0), 6: (0,)}[t])
    qe_v = exprgen.fixed_text(rng, 1, "V")
    qe_s = exprgen.fixed_text(rng, 2, "V")
    x, y = rng.randint(-8, 7), rng.randint(-8, 7)
    big_b = rng.choice((300, 301, 302, 303, 304, 305))  # real exponent beyond double range
    calls = [
        ("params", ["params", "--m-base", str(rng.choice((2, 12))), "--k-mult", str(rng.choice((1, 2)))], 0, ANY),
        ("gauss_sum", ["gauss-sum", "--a", str(a), "--b", str(a * rng.randint(-5, 5)), "--M", "2304"], 0, AGREE),
        ("gauss_sum_small", ["--params-file", small, "gauss-sum", "--a", str(a_small),
                             "--b", str(a_small * rng.randint(-3, 3)), "--M", "16"], 0, AGREE),
        ("gauss_sum_complex", ["--params-file", default, "--backend", "complex", "gauss-sum",
                               "--a", str(a), "--b", str(a * rng.randint(-5, 5)), "--M", "144"], 0, AGREE),
        ("inner", ["inner", "--s1", _ket_json("V", -1, rng.randint(-3, 3), 0, rng.randint(-6, 6)),
                   "--s2", _ket_json("V", 0, rng.randint(-3, 3), 0, rng.randint(-6, 6)), "--kind", "H"], 0, ANY),
        ("inner_small", ["--params-file", small, "inner",
                         "--s1", _ket_json("V", -1, rng.randint(-1, 1), 0, rng.randint(-2, 2), "1/2"),
                         "--s2", _ket_json("V", 0, rng.randint(-1, 1), 0, rng.randint(-2, 2), "1/2"),
                         "--kind", "E"], 0, ANY),
        # known defect: the complex value overflows and cli.main does not catch it
        ("inner_complex_overflow", ["--backend", "complex", "inner",
                                    "--s1", _ket_json("U", -1, big_b, 0, 1),
                                    "--s2", _ket_json("U", 0, 0, 0, 0), "--kind", "E"], 1, ERROR),
        ("evolve", ["--params-file", default, "evolve", "--t", str(t), "--state",
                    _ket_json("V", A_free, rng.randint(-3, 3), rng.choice((0, -1)), rng.randint(-6, 6))],
         0, ANY),
        ("weyl_check", ["weyl-check"], 0, OK_FIELD),
        ("weyl_check_small", ["--params-file", small, "weyl-check"], 0, OK_FIELD),
        ("wick_check", ["wick-check", "--pairs", "25", "--kind", rng.choice("EH"), "--seed", r(0, 10**6)],
         0, OK_FIELD),
        ("limit", ["limit", "--A", str(rng.choice((1, 2, 4))), "--kind", "E", "--N-seq", "144,576"], 0, ANY),
        ("ho", ["ho", "--omega", "1", "--t", f"{rng.uniform(0.2, 1.4):.3f}",
                "--x", f"{rng.uniform(-1, 1):.3f}", "--x0", f"{rng.uniform(-1, 1):.3f}"], 0, ANY),
        ("ho_caustic", ["ho", "--omega", "1", "--t", "3.141592653589793", "--x", "0.1", "--x0", "0.2"],
         2, CAUSTIC),
        ("qe", ["qe", "--expr", qe_v, "--assign", f"x={x},y={y}"], 0, AGREE),
        ("qe_small", ["--params-file", small, "qe", "--expr", qe_s, "--assign", f"x={x},y={y}"], 0, AGREE),
        ("bad_window", ["gauss-sum", "--a", "2", "--b", "0", "--M", str(rng.choice((10, 18, 30)))], 1, ERROR),
        ("bad_descriptor", ["inner", "--s1", '{"domain": "V", "form": [', "--s2", "{}"], 1, ERROR),
        ("bad_params_file", ["--params-file", garbage, "gauss-sum", "--a", "1", "--b", "0", "--M", "16"],
         1, ERROR),
        ("bad_assign", ["qe", "--expr", qe_v, "--assign", f"x={x},y"], 1, ERROR),
    ]
    return [Request(kind, (tuple(argv), status, check)) for kind, argv, status, check in calls]


def write_files() -> dict:
    """Params documents for --params-file, inside the checkout."""
    base = work_dir()
    files = {
        "default": os.path.join(base, "tower-default.json"),
        "small": os.path.join(base, "tower-small.toml"),
        "garbage": os.path.join(base, "tower-garbage.toml"),
    }
    with open(files["default"], "w", encoding="utf-8") as fh:
        json.dump(DEFAULT_TOWER, fh)
    with open(files["small"], "w", encoding="utf-8") as fh:
        fh.write(SMALL_TOWER_TOML)
    with open(files["garbage"], "w", encoding="utf-8") as fh:
        fh.write("this is not a params document\n")
    return files


def check_output(req: Request, status: int, stdout: str) -> str:
    """Classify one call: stdout must be exactly one JSON object and the
    exit status and the agree/ok/error fields the expected ones."""
    _, want_status, check = req.args
    lines = stdout.splitlines()
    if len(lines) != 1:
        return FAILED
    try:
        doc = json.loads(lines[0])
    except ValueError:
        return FAILED
    if not isinstance(doc, dict):
        return FAILED
    if check in (AGREE, OK_FIELD) and doc.get(check) is False:
        return WRONG  # a check the program ran itself disagreed
    if status != want_status:
        return FAILED
    if check in (AGREE, OK_FIELD, CAUSTIC) and doc.get(check) is not True:
        return FAILED
    if check == ERROR and not ("error" in doc and "type" in doc):
        return FAILED
    return OK


class CliLoad:
    def __init__(self, command=None, env=None):
        self.files = write_files()
        self.command = command or [sys.executable, "-m", "gausscalc.cli"]
        self.env = env or child_env()

    def execute(self, req: Request):
        argv = list(req.args[0])
        try:
            proc = subprocess.run(self.command + argv, capture_output=True, text=True,
                                  env=self.env, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return FAILED, f"{req.kind}!timeout"
        outcome = check_output(req, proc.returncode, proc.stdout)
        return outcome, f"{req.kind}:{proc.returncode}"
