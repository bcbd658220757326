"""Golden outputs: CLI documents and symbolic results pinned byte-for-byte.

`golden.json` holds the stdout and exit status of `cli.main` for every
subcommand, and the text of `inner`, `apply_operator`, `compose` and
`eliminate` results over a fixed input grid.  It was recorded before the
Gauss-summation kernel replaced the per-caller summation code, with

    PYTHONPATH=src python tests/test_golden.py

Refusals (`NonGaussianSum`) are pinned by type only: their message text
may change.  Inputs that were refused then and that the kernel now
accepts (support cosets of any two moduli merged by `merge_cosets`,
coprime, nested or overlapping such as 4 and 6; on-coset divisibility,
pinned windows, unit support coefficients other than +-1, zero where a
guard can never hold) are listed in `golden_widened.txt`, written by

    PYTHONPATH=src python tests/test_golden.py --widened

and each must give a result.  The widened apply/V entries and every
accepted compose/V entry are checked against the literal oracles at every
point below; on U, each widened apply entry at a seeded sample of output
points of the default tower, and, after rebuilding the grid on the (6, 1)
tower, the widened apply entries at every point and every accepted
compose entry at a seeded sample of points.  The parametrized oracle
tests in test_gauss.py and test_hilbert.py check the kernel's branches.

    PYTHONPATH=src python tests/test_golden.py --refusals

prints the grid's refusal count per message, digits masked.

A re-record prints each key it changes, then the count of changed keys
per part and kind (for example `340 symbolic compose`), and writes nothing
when a changed entry's exit status or trailing |residue differs from the
recorded one.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

GOLDEN = Path(__file__).with_name("golden.json")
WIDENED_FILE = Path(__file__).with_name("golden_widened.txt")
WIDENED = set(WIDENED_FILE.read_text().splitlines()) if WIDENED_FILE.exists() else set()
SMALL_TOML = "epsilon = 3\nk_mult = 1\nm = 2\np = 257\n"
REFUSED = "NonGaussianSum"


# -- the CLI cases -------------------------------------------------------------


def _ket(domain, A, B, C, pp, coeff="1/12", **extra):
    doc = {"domain": domain, "coeff": coeff, "form": [A, B, C], "p_param": pp}
    doc.update(extra)
    return json.dumps(doc, sort_keys=True)


def cli_cases() -> list[list[str]]:
    """argv lists; '{small}' and '{garbage}' name files written by the test."""
    cases = [
        ["params", "--m-base", "2", "--k-mult", "1"],
        ["params", "--m-base", "2", "--k-mult", "1", "--format", "toml"],
        ["params", "--m-base", "4", "--k-mult", "1"],
    ]
    for a, b, M in [(1, 0, 16), (2, 2, 32), (-2, 4, 48), (3, -3, 96), (2, 1, 16), (0, 16, 16), (0, 1, 16)]:
        cases.append(["gauss-sum", "--a", str(a), "--b", str(b), "--M", str(M)])
    cases += [
        ["gauss-sum", "--a", "4", "--b", "8", "--M", "82944", "--domain", "U", "--compute", "closed"],
        ["--mode", "strict", "gauss-sum", "--a", "0", "--b", "16", "--M", "16"],
        ["--backend", "complex", "gauss-sum", "--a", "1", "--b", "0", "--M", "16"],
        ["--params-file", "{small}", "gauss-sum", "--a", "-2", "--b", "2", "--M", "16"],
    ]
    kets = [
        (-1, 1, 0, 1), (0, 0, 0, 0), (-2, 1, -1, 3), (-3, 2, 0, -2), (0, -1, 0, 5), (-1, 0, -1, 0),
    ]
    for dom in ("V", "U"):
        for kind in ("E", "H"):
            for i, k1 in enumerate(kets):
                k2 = kets[(i + 1 + (kind == "H")) % len(kets)]
                cases.append(["inner", "--s1", _ket(dom, *k1), "--s2", _ket(dom, *k2), "--kind", kind])
    cases += [
        ["--mode", "strict", "inner", "--s1", _ket("V", -1, 1, 0, 1), "--s2", _ket("V", -1, 1, 0, 1), "--kind", "H"],
        ["--mode", "strict", "inner", "--s1", _ket("V", 0, 1, 0, 2), "--s2", _ket("V", 0, 1, 0, 2), "--kind", "H"],
        ["inner", "--s1", _ket("V", -1, 1, 0, 1, den=2, support=[2, 1]), "--s2", _ket("V", 0, 0, 0, 0), "--kind", "H"],
        ["inner", "--s1", _ket("V", -3, 1, 0, 1, den=2), "--s2", _ket("V", 0, 1, 0, 0), "--kind", "E"],
        ["inner", "--s1", _ket("V", -1, 2, 0, 1, support=[3, 1]), "--s2", _ket("V", -1, 0, 0, 0, support=[4, 1]), "--kind", "E"],
        ["inner", "--s1", _ket("V", -1, 1, 0, 1), "--s2", json.dumps({"r": 5}), "--kind", "H"],
        ["inner", "--s1", json.dumps({"r": 5}), "--s2", _ket("V", -1, 1, 0, 1), "--kind", "H"],
        ["--backend", "complex", "inner", "--s1", _ket("V", -1, 1, 0, 1), "--s2", _ket("V", 0, 0, 0, 0), "--kind", "H"],
        ["--backend", "complex", "inner", "--s1", _ket("U", -1, 1, 0, 1), "--s2", _ket("U", -1, 0, 0, 0), "--kind", "E"],
        ["--params-file", "{small}", "inner", "--s1", _ket("V", -1, 1, 0, 1, "1/2"),
         "--s2", _ket("V", 0, 0, 0, 0, "1/2"), "--kind", "E"],
        # refusals and errors
        ["inner", "--s1", _ket("V", -2, 1, 0, 1), "--s2", _ket("V", -3, 0, 0, 0), "--kind", "E"],
        ["inner", "--s1", _ket("V", -1, 1, 0, 1), "--s2", _ket("U", 0, 0, 0, 0), "--kind", "H"],
        ["inner", "--s1", _ket("V", -1, 1, 0, 1, support=[5, 0]), "--s2", _ket("V", 0, 0, 0, 0)],
        ["inner", "--s1", "{not json", "--s2", _ket("V", 0, 0, 0, 0)],
    ]
    free_apply = {1: (-3, -2, -1, 0), 2: (-4, -1, 0), 3: (-1, 0), 4: (-2, 0), 6: (0,)}
    for t, pool in free_apply.items():
        for A in pool:
            for B, C, pp in ((1, 0, 2), (-2, -1, -3)):
                cases.append(["evolve", "--t", str(t), "--state", _ket("V", A, B, C, pp)])
        cases.append(["evolve", "--t", str(t), "--r", str(t + 2)])
    cases += [
        ["evolve", "--t", "2", "--state", _ket("V", -1, 1, 0, 1, support=[2, 1])],
        ["evolve", "--t", "3", "--state", _ket("V", 0, 1, 0, 1, support=[2, 0])],
        ["evolve", "--t", "2", "--state", _ket("V", -1, 1, 0, 1, den=2)],
        ["evolve", "--t", "1", "--state", json.dumps({"r": -7})],
        ["--params-file", "{small}", "evolve", "--t", "1", "--state", _ket("V", 0, 1, 0, 1, "1/2")],
        ["evolve", "--t", "5", "--r", "0"],
        ["evolve", "--t", "1", "--state", _ket("V", -5, 1, 0, 1)],
        ["--params-file", "{small}", "weyl-check"],
    ]
    for A, B, C in ((-1, 1, -1), (-2, 0, -2), (0, 1, -1), (-1, 2, 0), (-1, 1, -2)):
        cases.append(["--params-file", "{small}", "sm-compose", "--A", str(A), "--B", str(B), "--C", str(C)])
    cases += [
        ["--params-file", "{small}", "wick-check", "--pairs", "12", "--kind", "E"],
        ["--params-file", "{small}", "wick-check", "--pairs", "12", "--kind", "H", "--seed", "3"],
        ["wick-check", "--pairs", "6", "--kind", "E", "--seed", "1"],
        ["limit", "--A", "2", "--kind", "E", "--N-seq", "144,576"],
        ["limit", "--A", "1", "--kind", "H", "--N-seq", "144,576"],
        ["ho", "--omega", "1.0", "--t", "0.5", "--x", "0.1", "--x0", "0.2"],
        ["ho", "--omega", "1.0", "--t", "3.141592653589793", "--x", "0.1", "--x0", "0.2"],
    ]
    qe = [
        ("sum r . e((-r^2 + 2*r*x)/2N @V)", "x=3"),
        ("sum r . e((-2*r^2 + 2*r*x)/2N @V)", "x=3"),
        ("sum r . e((-2*r^2 + 2*r*x)/2N @V)", "x=4"),
        ("sum r . e((-2*r^2 + 2*r*x)/2N @U)", None),
        ("int r . e((-r^2 + 2*r*x + 1)/2N @V) * j * e8", "x=-2"),
        ("sum r . e((2*r*x)/2N @V)", "x=0"),
        ("sum r . e((x^2)/2N @V) + 1/2", "x=5"),
        ("sum a . sum b . e((-a^2 + 2*a*b - 2*b^2 + 2*b*x)/2N @V)", "x=1"),
        ("sum a . sum b . e((-a^2 + 2*a*b - b^2)/2N @V)", None),
        ("sum a . sum b . e((2*a^2 + 2*a*b + 2*a*x + b^2)/2N @V)", "x=2"),
        ("sum a . sum b . sum c . e((-a^2 + 2*a*x)/2N @V) * e((-b^2 + 2*b*y)/2N @V) * e((c^2 + 2*c*a)/2N @V)", None),
        ("sum a . sum b . sum c . e((-2*c^2 + 2*c*a + 2*c*b)/2N @V) * e((-a^2 + 2*a*b)/2N @V) * e((-b^2 + 2*b*x)/2N @V)",
         None),
        ("sum a . sum b . e((2*a*b)/2N @V)", None),
        ("sum r . e((-r^2 + 2*r*x)/2N @V)", None),
        # errors: refused fragment, parse error, bad params document
        ("sum r . e((5*r^2 + 2*r*x)/2N @V)", "x=1"),
        ("sum r . e((-r^2 + r*x)/2N @V)", "x=1"),
        ("sum r . e((r^3)/2N @V)", None),
        ("sum r . e((r)/3N @V)", None),
    ]
    for expr, asg in qe:
        cases.append(["qe", "--expr", expr] + (["--assign", asg] if asg else []))
    cases += [
        ["--params-file", "{small}", "qe", "--expr", "sum a . sum b . e((-a^2 + 2*a*b - 2*b^2 + 2*b*x)/2N @U)",
         "--assign", "x=3"],
        ["--params-file", "{small}", "qe", "--expr",
         "sum a . sum b . sum c . e((-a^2 + 2*a*x)/2N @V) * e((-b^2 + 2*b*y)/2N @V) * e((c^2 + 2*c*a)/2N @V)",
         "--assign", "x=1,y=-3"],
        ["--params-file", "{small}", "qe", "--expr",
         "sum a . sum b . sum c . e((-4*c^2 + 2*c*a + 2*c*b)/2N @U) * e((-a^2 + 2*a*b)/2N @U) * e((2*b^2 + 2*b*x)/2N @U)",
         "--assign", "x=2"],
        ["--params-file", "{small}", "qe", "--expr", "sum a . sum b . e((2*a*b + 2*a*x)/2N @U)", "--assign", "x=0"],
        ["--params-file", "{small}", "qe", "--expr", "sum a . sum b . e((2*a*b + a^2)/2N @U)"],
        ["--params-file", "{garbage}", "qe", "--expr", "sum r . e((-r^2)/2N @V)"],
        ["gauss-sum", "--a", "2", "--b", "0", "--M", "10"],
        ["--mode", "strict", "qe", "--expr", "sum r . e((x^2)/2N @V)", "--assign", "x=1"],
    ]
    return cases


def run_cli(argv: list[str]) -> dict:
    from gausscalc import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(argv)
    return {"stdout": out.getvalue(), "status": status}


def _files(tmp: Path) -> dict:
    small = tmp / "small.toml"
    small.write_text(SMALL_TOML)
    garbage = tmp / "garbage.toml"
    garbage.write_text("not a params document\n")
    return {"small": str(small), "garbage": str(garbage)}


def _argv(case: list[str], files: dict) -> list[str]:
    return [files.get(a[1:-1], a) if a.startswith("{") and a.endswith("}") else a for a in case]


def cli_key(case: list[str]) -> str:
    return json.dumps(case)


# -- the symbolic grid -----------------------------------------------------------


def _text(fn, refusals: Counter | None = None) -> str:
    from gausscalc.gauss import NonGaussianSum

    try:
        return fn()
    except NonGaussianSum as exc:
        if refusals is not None:
            refusals[re.sub(r"-?\d+", "#", str(exc))] += 1
        return REFUSED
    except (ArithmeticError, ValueError) as exc:
        return f"!{type(exc).__name__}: {exc}"


def _grid_objects(u_params=None):
    """The grid's states and operators by domain tag, on the default tower;
    `u_params` builds the U ones on that tower's U domain from the same
    draws."""
    from gausscalc import dynamics as D
    from gausscalc import hilbert as H
    from gausscalc.arith import ParamSpec, find_params
    from gausscalc.coeffring import GaussCoeff

    P = find_params(ParamSpec())
    rng = random.Random(20241001)

    def states(params, dom):
        out = []
        for A in (0, -1, -2, -3, -4):
            for support in ((1, 0), (2, 1), (3, 2), (4, 0), (6, 5), (8, 3), (9, 4)):
                for den in (1, 2):
                    B, C, pp = rng.randint(-3, 3), rng.choice((0, -1)), rng.randint(-6, 6)
                    coeff = H.unit_normalization(params, dom) * GaussCoeff.rational(rng.choice((1, 2)))
                    out.append(H.GaussState(coeff, A, B * pp, C * pp * pp, dom, den=den, support=support))
        out += [H.PositionState(r, dom) for r in (-5, 0, 7)]
        return out

    def ops(params, dom):
        out = [H.identity_operator(dom), D.position_operator_u(params, dom), D.shift_operator_v(params, dom),
               D.quadratic_phase_operator(params, 1, dom), D.quadratic_phase_operator(params, -2, dom),
               D.fourier_operator(params, dom)]
        if dom.tag == "V":
            out += [D.free_propagator(params, t, dom) for t in (1, 2, 3, 4, 6, 12)]
        for guard in (None, (2, (1, -1, 0)), (3, (1, 1, -2)), (4, (-1, 1, -1)), (6, (1, -1, -3)),
                      (8, (-1, -1, 0)), (9, (1, 2, 0)), (12, (5, -1, 0)), (12, (2, -1, 0)), (16, (1, -1, -1))):
            for _ in range(3):
                kA, kC = rng.choice((0, -1, -2)), rng.choice((0, -1, -2))
                out.append(H.GaussOperator(
                    H.unit_normalization(params, dom), kA, rng.randint(-2, 2), kC, dom, dom,
                    kD=rng.randint(-2, 2), kE=rng.randint(-2, 2), den=rng.choice((1, 1, 2)),
                    support=(guard,) if guard else ()))
        return out

    towers = (("V", P, H.domain_v(P)), ("U", u_params or P, H.domain_u(u_params or P)))
    return P, {tag: (states(params, d), ops(params, d)) for tag, params, d in towers}


def _state_text(P, s) -> str:
    from gausscalc.coeffring import to_fp

    return f"{json.dumps(s.to_descriptor(), sort_keys=True)}|{to_fp(P, s.coeff)}"


def _op_text(P, op) -> str:
    from gausscalc.coeffring import to_fp

    return f"{op.coeff}|{op.kA},{op.kB},{op.kC},{op.kD},{op.kE}|{op.den}|{list(op.support)}|{to_fp(P, op.coeff)}"


def symbolic_grid(refusals: Counter | None = None) -> dict[str, str]:
    """The grid's texts by key; `refusals`, when given, counts each
    refusal's message with its digits masked."""
    from gausscalc import frontend as F
    from gausscalc import hilbert as H
    from gausscalc.arith import ParamSpec, find_params
    from gausscalc.coeffring import to_fp

    from tests_support_qe import random_expression

    P, objs = _grid_objects()
    out: dict[str, str] = {}
    for tag, (states, ops) in objs.items():
        kets = [s for s in states if isinstance(s, H.GaussState)]
        for i, s1 in enumerate(kets[::4]):
            for j, s2 in enumerate(kets[1::7]):
                for kind in ("Euclidean", "Hermitian"):
                    for mode in ("extended", "strict"):
                        out[f"inner/{tag}/{i}/{j}/{kind}/{mode}"] = _text(
                            lambda: (lambda c: f"{c}|{to_fp(P, c)}")(H.inner(P, s1, s2, kind, mode)), refusals)
        for i, op in enumerate(ops):
            for j, s in enumerate(states[::3]):
                out[f"apply/{tag}/{i}/{j}"] = _text(lambda: _state_text(P, H.apply_operator(P, op, s)), refusals)
            for j, op2 in enumerate(ops[::2]):
                out[f"compose/{tag}/{i}/{j}"] = _text(lambda: _op_text(P, H.compose(P, op, op2)), refusals)
    small = find_params(ParamSpec(2, 1))
    for tower, params in (("small", small), ("default", P)):
        for domain in ("V", "U"):
            rng = random.Random(f"golden/{tower}/{domain}")
            for i in range(60):
                e = random_expression(rng, rng.choice((1, 2, 2, 3, 3)), domain)
                out[f"eliminate/{tower}/{domain}/{i}"] = _text(
                    lambda: f"{F.format_expr(e)} => {F.eliminate(e, params).render()}", refusals)
    return out


# -- widened entries against the literal oracles -----------------------------------


def _widened(prefix: str) -> list[tuple[int, int]]:
    """The (i, j) of the widened symbolic keys under prefix."""
    return sorted(tuple(map(int, k[len(prefix):].split("/"))) for k in WIDENED if k.startswith(prefix))


def _apply_vs_dense(P, states, ops, prefix: str) -> tuple[int, int]:
    """apply_operator against apply_dense at every output index for each
    widened apply key under prefix that P accepts: (keys checked, nonzero
    coordinates seen)."""
    from gausscalc import hilbert as H
    from gausscalc.gauss import NonGaussianSum

    checked = nonzero = 0
    for i, j in _widened(prefix):
        op, s = ops[i], states[::3][j]
        try:
            out = H.apply_operator(P, op, s)
        except NonGaussianSum:
            continue
        want = H.apply_dense(P, op, H.DenseState.from_state(P, s)).vec
        assert np.array_equal(H.DenseState.from_state(P, out).vec, want), (prefix, i, j)
        checked += 1
        nonzero += int(np.count_nonzero(want))
    return checked, nonzero


def _accepted(prefix: str) -> list[tuple[int, int]]:
    """The (i, j) of every symbolic key under prefix that golden.json
    records with a result or that is widened."""
    golden = json.loads(GOLDEN.read_text())["symbolic"]
    return sorted(tuple(map(int, k[len(prefix):].split("/"))) for k, v in golden.items()
                  if k.startswith(prefix) and (v != REFUSED or k in WIDENED))


def test_widened_v_results_match_the_literal_oracles():
    from gausscalc import hilbert as H

    P, objs = _grid_objects()
    states, ops = objs["V"]
    checked, nonzero = _apply_vs_dense(P, states, ops, "apply/V/")
    assert checked == len(_widened("apply/V/")) and nonzero
    # op1 after op2 at every (q, r), for every accepted compose key: the
    # product of the two kernel blocks
    q = H.domain_v(P).index_vector()
    keys = _accepted("compose/V/")
    assert len(keys) >= 248
    for i, j in keys:
        op1, op2 = ops[i], ops[::2][j]
        block = [op.kernel_block(P, q[:, None], q[None, :]) for op in (H.compose(P, op1, op2), op2, op1)]
        assert np.array_equal(block[0], block[1] @ block[2] % P.p), (i, j)


def test_widened_u_apply_results_match_row_sums_on_the_default_tower():
    # every widened apply/U key on N_u = 82,944: the image coordinate at 6
    # seeded output indices, 4 of them on the image support, against the
    # literal row sum of dense[q] K(q, r) over the state's nonzero q
    from gausscalc import hilbert as H
    from gausscalc.coeffring import to_fp

    P, objs = _grid_objects()
    states, ops = objs["U"]
    U = H.domain_u(P)
    q = U.index_vector()
    rng = random.Random(20241001)
    keys = _widened("apply/U/")
    assert len(keys) == 171
    nonzero = 0
    for i, j in keys:
        op, s = ops[i], states[::3][j]
        out = H.apply_operator(P, op, s)
        k, d = out.support
        rs = [U.wrap(d + k * rng.randrange(U.N // k)) for _ in range(4)]
        rs += [U.wrap(rng.randrange(U.N)) for _ in range(2)]
        dense = H.DenseState.from_state(P, s)
        live = np.flatnonzero(dense.vec)
        K = op.kernel_block(P, q[live][None, :], np.array(rs)[:, None])
        want = (K * dense.vec[live] % P.p).sum(axis=1) % P.p
        got = [to_fp(P, out.coordinate(r)) for r in rs]
        assert got == want.tolist(), (i, j, rs)
        nonzero += sum(map(bool, got))
    assert nonzero >= 200


def test_widened_u_lifts_match_the_literal_oracle_on_a_small_u_domain():
    # the grid's U objects rebuilt on the (6, 1) tower, N_u = 1296; the keys
    # whose periods do not fit that domain are refused there
    from gausscalc import hilbert as H
    from gausscalc.arith import ParamSpec, find_params
    from gausscalc.gauss import NonGaussianSum

    P6 = find_params(ParamSpec(6, 1))
    _, objs = _grid_objects(P6)
    states, ops = objs["U"]
    checked, nonzero = _apply_vs_dense(P6, states, ops, "apply/U/")
    assert checked >= 30 and nonzero
    # every compose key the tower accepts, at a seeded 16 x 16 sample of
    # (q, r): K2[qs, :] @ K1[:, rs] over the whole intermediate domain
    m = H.domain_u(P6).index_vector()
    rng = np.random.default_rng(20241001)
    checked = 0
    for i, op1 in enumerate(ops):
        for j, op2 in enumerate(ops[::2]):
            try:
                op = H.compose(P6, op1, op2)
            except NonGaussianSum:
                continue
            qs, rs = (rng.choice(m, 16, replace=False) for _ in range(2))
            want = op2.kernel_block(P6, qs[:, None], m[None, :]) @ op1.kernel_block(P6, m[:, None], rs[None, :])
            assert np.array_equal(op.kernel_block(P6, qs[:, None], rs[None, :]), want % P6.p), (i, j)
            checked += 1
    assert checked >= 241


# -- recording and checking -------------------------------------------------------


def record() -> dict:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        files = _files(Path(tmp))
        cli = {cli_key(case): run_cli(_argv(case, files)) for case in cli_cases()}
    return {"cli": cli, "symbolic": symbolic_grid()}


def _mask(doc_text: str) -> str:
    """A NonGaussianSum error document keeps its type, not its message."""
    try:
        doc = json.loads(doc_text)
    except ValueError:
        return doc_text
    if isinstance(doc, dict) and doc.get("type") == REFUSED:
        return REFUSED
    return doc_text


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_cli_outputs_match_golden(golden, tmp_path):
    files = _files(tmp_path)
    cases = cli_cases()
    assert {cli_key(c) for c in cases} == set(golden["cli"])
    for case in cases:
        want = golden["cli"][cli_key(case)]
        got = run_cli(_argv(case, files))
        if cli_key(case) in WIDENED:
            assert _mask(want["stdout"]) == REFUSED and got["status"] == 0, case
            continue
        assert got["status"] == want["status"], case
        assert _mask(got["stdout"]) == _mask(want["stdout"]), case


def test_symbolic_results_match_golden(golden):
    got = symbolic_grid()
    want = golden["symbolic"]
    assert set(got) == set(want)
    for key in sorted(want):
        if key in WIDENED:
            assert want[key] == REFUSED and got[key] != REFUSED, key
            continue
        assert got[key] == want[key], key


def _masked(part: str, entry):
    """An entry as the tests compare it."""
    return (entry["status"], _mask(entry["stdout"])) if part == "cli" and entry else entry


def _kept(part: str, key: str, entry):
    """What a re-record may not change: a CLI call's exit status, a symbolic
    entry's trailing |residue (an eliminate text carries none)."""
    if part == "cli":
        return entry["status"]
    return None if key.startswith("eliminate/") else entry.rsplit("|", 1)[-1]


def _kind(part: str, key: str) -> str:
    """A key's kind: the symbolic grid's first field, a CLI call's subcommand."""
    if part == "symbolic":
        return key.split("/", 1)[0]
    case = json.loads(key)
    i = 0
    while case[i].startswith("--"):  # each top-level option takes a value
        i += 2
    return case[i]


def rerecord() -> int:
    """Rewrite golden.json, printing each changed key and, last, the count
    of changed keys per (part, kind).  Exits 1 without writing when a
    changed entry's status or residue differs from the recorded one: a
    re-record may change a text's form, never its value.  Entries the
    tests read as unchanged (a refusal with a new message, a widened
    entry) keep their recorded text."""
    was, now = json.loads(GOLDEN.read_text()), record()
    bad = []
    changed: Counter = Counter()
    for part in ("cli", "symbolic"):
        for key in sorted(set(was[part]) | set(now[part])):
            old, new = was[part].get(key), now[part].get(key)
            if old is not None and (key in WIDENED or _masked(part, old) == _masked(part, new)):
                now[part][key] = old
                continue
            print(f"changed {part} {key}")
            changed[part, _kind(part, key)] += 1
            if old is not None and new is not None and _kept(part, key, old) != _kept(part, key, new):
                bad.append(key)
    if bad:
        for key in bad:
            print(f"value changed: {key}")
        print(f"not written: {len(bad)} entries change their status or residue")
    else:
        GOLDEN.write_text(json.dumps(now, indent=1, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN}")
    for (part, kind), n in sorted(changed.items()):
        print(f"{n} {part} {kind}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    if "--refusals" in sys.argv:
        counts: Counter = Counter()
        symbolic_grid(counts)
        for reason, n in counts.most_common():
            print(f"{n:6d}  {reason}")
        print(f"{sum(counts.values()):6d}  total")
    elif "--widened" in sys.argv:
        # entries refused in golden.json that the current code evaluates
        was, now = json.loads(GOLDEN.read_text()), record()
        keys = [k for part in ("cli", "symbolic") for k in sorted(was[part])
                if _mask(was[part][k]["stdout"] if part == "cli" else was[part][k]) == REFUSED
                and (now[part][k]["status"] == 0 if part == "cli" else now[part][k] != REFUSED)]
        WIDENED_FILE.write_text("".join(k + "\n" for k in keys))
        print(f"wrote {WIDENED_FILE}")
    else:
        sys.exit(rerecord())
