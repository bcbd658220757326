"""Command-line interface: one JSON document per line on stdout.

Exit codes: 0 success, 2 when a requested check fails, 1 on errors.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from functools import lru_cache

import numpy as np

from .arith import ParamSpec, default_params, find_params, load_params, require_int
from .coeffring import to_complex, to_fp
from .climit import (
    CausticError,
    convergence_check,
    free_kernel,
    ho_propagator,
)
from .dynamics import free_propagator, sm_transfer, weyl_pair
from .frontend import PointBudgetExceeded, eliminate, eval_expr, eval_normal_form, format_expr, parse
from .gauss import GaussSumSpec, gauss_brute, gauss_closed
from .hilbert import (
    PositionState,
    QuadForm,
    apply_operator,
    compose,
    domain_of,
    domain_u,
    domain_v,
    gauss_ket,
    inner,
    state_from_descriptor,
)
from .wick import check_inner_correspondence


def _emit(doc: dict) -> None:
    print(json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False))


def _complex_pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def _load_params(args) -> "Params":
    if args.params_file:
        with open(args.params_file, "r", encoding="utf-8") as fh:
            return load_params(fh.read())
    return default_params()


def cmd_params(args) -> int:
    spec = ParamSpec(args.m_base, args.k_mult, args.limit)
    params = find_params(spec)
    if args.format == "toml":
        sys.stdout.write(params.to_toml())
    else:
        _emit(params.to_dict())
    return 0


def cmd_gauss_sum(args) -> int:
    params = _load_params(args)
    spec = GaussSumSpec(args.a, args.b, args.M, args.domain, "Fp")
    doc: dict = {"inputs": {"a": args.a, "b": args.b, "M": args.M, "domain": args.domain}}
    closed = gauss_closed(spec, args.mode, params=params)
    brute_fp = gauss_brute(params, spec) if args.compute in ("brute", "both") else None
    if args.compute in ("closed", "both"):
        doc["coeff_normal_form"] = str(closed)
        doc["value_fp"] = to_fp(params, closed)
    if brute_fp is not None:
        doc["value_fp_brute"] = brute_fp
        doc.setdefault("value_fp", brute_fp)
    if args.backend == "complex":
        if brute_fp is not None:
            cval = gauss_brute(params, GaussSumSpec(args.a, args.b, args.M, args.domain, "Complex"))
            doc["value_complex"] = _complex_pair(cval)
        # the complex backend realises e(q) as e^{+2 pi i q}; the limit map
        # is its conjugate
        doc["closed_complex"] = _complex_pair(to_complex(params, closed).conjugate())
    agree = True  # "agree" is printed only when both sides were computed
    if args.compute == "both":
        agree = to_fp(params, closed) == brute_fp
        if args.backend == "complex":
            agree = agree and abs(
                complex(*doc["value_complex"]) - complex(*doc["closed_complex"])
            ) < 1e-8 * max(1.0, abs(complex(*doc["value_complex"])))
        doc["agree"] = agree
    _emit(doc)
    return 0 if agree else 2


def _parse_state(params, text: str):
    """A position state {"r": int, "domain": "V" by default} or a state
    descriptor (``state_from_descriptor``)."""
    doc = json.loads(text)
    if isinstance(doc, dict) and "r" in doc and "form" not in doc:
        r = require_int(doc["r"], "position state field 'r'")
        return PositionState(r, domain_of(params, doc.get("domain", "V")))
    return state_from_descriptor(params, doc)


def cmd_inner(args) -> int:
    params = _load_params(args)
    s1 = _parse_state(params, args.s1)
    s2 = _parse_state(params, args.s2)
    kind = "Euclidean" if args.kind == "E" else "Hermitian"
    value = inner(params, s1, s2, kind, args.mode)
    doc = {
        "kind": kind,
        "coeff_normal_form": str(value),
        "value_fp": to_fp(params, value),
    }
    if args.backend == "complex":
        doc["value_complex"] = _complex_pair(to_complex(params, value))
    _emit(doc)
    return 0


def cmd_evolve(args) -> int:
    params = _load_params(args)
    state = (
        PositionState(args.r, domain_v(params))
        if args.state is None
        else _parse_state(params, args.state)
    )
    out = apply_operator(params, free_propagator(params, args.t, state.domain), state)
    _emit({"t": args.t, "state": out.to_descriptor()})
    return 0


def cmd_weyl_check(args) -> int:
    params = _load_params(args)
    pair = weyl_pair(params)
    domain = domain_v(params)
    failures = []
    for r in domain.index_range():
        defect = pair.commutation_defect(params, r)
        if defect:
            failures.append({"r": r, "defect": defect})
    doc = {"N": domain.N, "checked": domain.N, "failures": failures, "ok": not failures}
    _emit(doc)
    return 0 if not failures else 2


def cmd_sm_compose(args) -> int:
    params = _load_params(args)
    form = QuadForm(args.A, args.B, args.C)
    T = sm_transfer(params, form)
    TT = compose(params, T, T)
    p = params.p
    qs, rs = np.array([0, 1, -5, 23]), np.array([0, 2, 17, -8])
    mm = domain_u(params).index_vector()
    # sample i sums T(qs[i], m) T(m, rs[i]) over m: row i of each block
    rows = T.kernel_block(params, qs[:, None], mm)
    cols = T.kernel_block(params, mm[None, :], rs[:, None])
    brute = (rows * cols % p).sum(axis=1) % p
    agree = True
    checked = []
    for q, r, acc in zip(qs.tolist(), rs.tolist(), brute.tolist()):
        sym = to_fp(params, TT.kernel_value(q, r))
        checked.append({"q": q, "r": r, "brute": acc, "closed": sym})
        agree = agree and acc == sym
    _emit({
        "form": [args.A, args.B, args.C],
        "composed_coeff": str(TT.coeff),
        "samples": checked,
        "agree": agree,
    })
    return 0 if agree else 2


def cmd_wick_check(args) -> int:
    params = _load_params(args)
    U = domain_u(params)
    kind = "Euclidean" if args.kind == "E" else "Hermitian"
    rng = random.Random(args.seed)
    failures = 0
    nonzero = 0
    for _ in range(args.pairs):
        while True:
            A1 = rng.choice([0, -1, -2, -3])
            A2 = rng.choice([0, -1, -2, -3])
            A = A1 + A2 if kind == "Euclidean" else A1 - A2
            if A != 0 and params.N_v % (4 * abs(A)) == 0:
                break
        s1 = gauss_ket(params, U, QuadForm(A1, rng.randint(-3, 3), rng.choice([0, -1])),
                       p_param=rng.randint(-6, 6))
        s2 = gauss_ket(params, U, QuadForm(A2, rng.randint(-3, 3), rng.choice([0, -1])),
                       p_param=rng.randint(-6, 6))
        rep = check_inner_correspondence(params, s1, s2, kind, args.mode)
        if not rep.ok:
            failures += 1
        if rep.lhs_fp:
            nonzero += 1
    doc = {"kind": kind, "pairs": args.pairs, "nonzero": nonzero, "failures": failures,
           "ok": failures == 0}
    _emit(doc)
    return 0 if failures == 0 else 2


def cmd_limit(args) -> int:
    n_seq = [int(x) for x in args.n_seq.split(",")]
    kind = "Euclidean" if args.kind == "E" else "Hermitian"
    A = args.A
    report = convergence_check(
        QuadForm(-A, A, -1), 1, QuadForm(0, 0, -2), 1, kind, n_seq,
        mode=args.mode, b_cont=args.B,
    )
    doc = report.to_dict()
    doc["tail_monotone"] = report.tail_monotone()
    _emit(doc)
    return 0 if (report.degenerate or doc["tail_monotone"]) else 2


def cmd_ho(args) -> int:
    try:
        K = ho_propagator(args.omega, args.t, args.hbar)
    except CausticError as exc:
        _emit({"error": str(exc), "caustic": True})
        return 2
    val = K(args.x, args.x0)
    free_val = free_kernel(args.t, args.hbar)(args.x, args.x0)
    _emit({
        "omega": args.omega, "t": args.t, "x": args.x, "x0": args.x0,
        "value": _complex_pair(val),
        "free_limit": _complex_pair(free_val),
    })
    return 0


def cmd_qe(args) -> int:
    params = _load_params(args)
    expr = parse(args.expr)
    nf = eliminate(expr, params, args.mode)
    assignment = {}
    if args.assign:
        for item in args.assign.split(","):
            key, _, value = item.partition("=")
            key = key.strip()
            try:
                if not key or key in assignment:
                    raise ValueError
                assignment[key] = int(value)
            except ValueError:
                raise ValueError(f"bad --assign item {item!r}: expected name=integer, each name once") from None
    doc = {
        "input": format_expr(expr),
        "normal_form": nf.render(),
        "quantifier_free": True,
    }
    if set() == nf.free_variables() - set(assignment):
        try:
            lhs = eval_expr(expr, params, assignment)
        except PointBudgetExceeded as exc:
            doc["checked"] = False
            doc["reason"] = str(exc)
        else:
            rhs = eval_normal_form(nf, params, assignment)
            doc["eval_fp"] = lhs
            doc["eval_normal_form_fp"] = rhs
            doc["agree"] = lhs == rhs
    _emit(doc)
    return 0 if doc.get("agree", True) else 2


class UsageError(ValueError):
    """A malformed command line."""


class _Parser(argparse.ArgumentParser):
    """Raises UsageError where argparse would print usage on stderr and exit
    with status 2; subparsers inherit the class."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every
    main() call (parse_args leaves it unchanged)."""
    top = _Parser(prog="gausscalc")
    top.add_argument("--params-file", default=None, help="TOML/JSON Params document")
    top.add_argument("--mode", choices=["extended", "strict"], default="extended")
    top.add_argument("--backend", choices=["fp", "complex"], default="fp")
    sub = top.add_subparsers(dest="command", required=True)

    q = sub.add_parser("params", help="run the deterministic tower search")
    q.add_argument("--m-base", type=int, default=12)
    q.add_argument("--k-mult", type=int, default=2)
    q.add_argument("--limit", type=int, default=100_000)
    q.add_argument("--format", choices=["json", "toml"], default="json")
    q.set_defaults(func=cmd_params)

    q = sub.add_parser("gauss-sum", help="quadratic Gauss sum, brute and closed")
    q.add_argument("--a", type=int, required=True)
    q.add_argument("--b", type=int, required=True)
    q.add_argument("--M", type=int, required=True)
    q.add_argument("--domain", choices=["U", "V"], default="V")
    q.add_argument("--compute", choices=["brute", "closed", "both"], default="both")
    q.set_defaults(func=cmd_gauss_sum)

    q = sub.add_parser("inner", help="formal inner product of two states")
    q.add_argument("--s1", required=True, help="state JSON descriptor")
    q.add_argument("--s2", required=True)
    q.add_argument("--kind", choices=["E", "H"], default="H")
    q.set_defaults(func=cmd_inner)

    q = sub.add_parser("evolve", help="apply the free propagator")
    q.add_argument("--t", type=int, required=True)
    q.add_argument("--state", default=None, help="state JSON descriptor")
    q.add_argument("--r", type=int, default=0, help="position index when no state given")
    q.set_defaults(func=cmd_evolve)

    q = sub.add_parser("weyl-check", help="verify UV = qVU on the whole basis")
    q.set_defaults(func=cmd_weyl_check)

    q = sub.add_parser("sm-compose", help="compose the transfer kernel with itself")
    q.add_argument("--A", type=int, required=True)
    q.add_argument("--B", type=int, required=True)
    q.add_argument("--C", type=int, required=True)
    q.set_defaults(func=cmd_sm_compose)

    q = sub.add_parser("wick-check", help="inner-product correspondence report")
    q.add_argument("--pairs", type=int, default=100)
    q.add_argument("--kind", choices=["E", "H"], default="E")
    q.add_argument("--seed", type=int, default=0)
    q.set_defaults(func=cmd_wick_check)

    q = sub.add_parser("limit", help="finite-to-continuum convergence report")
    q.add_argument("--A", type=int, required=True)
    q.add_argument("--B", type=float, default=0.0)
    q.add_argument("--kind", choices=["E", "H"], default="E")
    q.add_argument("--N-seq", dest="n_seq", default="144,576,2304")
    q.set_defaults(func=cmd_limit)

    q = sub.add_parser("ho", help="harmonic-oscillator propagator value")
    q.add_argument("--omega", type=float, required=True)
    q.add_argument("--t", type=float, required=True)
    q.add_argument("--x", type=float, required=True)
    q.add_argument("--x0", type=float, required=True)
    q.add_argument("--hbar", type=float, default=1.0)
    q.set_defaults(func=cmd_ho)

    q = sub.add_parser("qe", help="eliminate quantifiers from an expression")
    q.add_argument("--expr", required=True)
    q.add_argument("--assign", default=None, help="comma-separated var=int")
    q.set_defaults(func=cmd_qe)

    return top


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ArithmeticError, ValueError, OSError) as exc:
        _emit({"error": str(exc), "type": type(exc).__name__})
        return 1


if __name__ == "__main__":
    sys.exit(main())
