"""The `verify` workload: each request is one closed form checked against
its literal oracle, in-process and warm.

The pass has a fixed composition (`MIX`), served in a seeded order; the
seed and the pass number pick only parameters that do not change a
request's cost.  About
nine tenths of the time goes to the literal oracles (the program's
per-element Python loops, and the numpy quadrature at about 6-9%), the
rest to the closed forms they check; `sm-compose` through `cli.main`
takes about a fifth.

Every request is kept short (at most about 60 ms) so that a run repeats
the pass some fifty times: single oracle calls of 0.2-1.8 s (the
U-domain and two-quantifier `eval_expr` and `apply_dense` on the default
tower, `sm-compose` on the m=4, k=2 tower) read 40-70% apart between
runs a minute apart on the reference host, while short requests keep a
steadier best time.  So the default tower (m=12, k=2) serves the
V-domain oracles and the Gauss sums up to M = N_u = 82944, the small
tower (m=2, k=1) the QE soundness checks and `sm-compose` (on the default
tower one `sm-compose` takes about 17 s), and the tower m=4, k=2
(N_v = 16, N_u = 1024) the U-domain and two-quantifier evaluations,
`apply_dense` and `check_unitary`.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

from common import FAILED, OK, WRONG, Request, work_dir
import exprgen

# (kind, requests per pass).  Sorted by cost, the median falls among the
# 22 sm-compose calls (about 5-8 ms each), the 90th percentile among the
# propagator rows (about 15-25 ms) and the 99th between the dearest two
# requests (a complex Gauss sum at M = 82944 and the quadrature).
MIX = (
    ("qe_small", 6),
    ("eval_v1", 4),
    ("eval_u1", 2),
    ("eval_v2", 2),
    ("brute_fp", 6),
    ("brute_complex", 4),
    ("dense_pair", 6),
    ("apply_dense", 2),
    ("propagator_row", 12),
    ("unitary", 2),
    ("weyl", 4),
    ("quadrature", 1),
    ("sm_compose", 22),
)

SMALL_TOWER = {"m": 2, "k_mult": 1, "p": 257, "epsilon": 3}
MID_TOWER = {"m": 4, "k_mult": 2, "p": 40961, "epsilon": 3}
# transfer forms (A, C) whose square closes on the small tower, any B
SMALL_SM_FORMS = ((-4, 0), (-3, -1), (-2, -2), (-2, 0), (-1, -3), (-1, -1), (-1, 0), (0, -4), (0, -2), (0, -1))
QE_SMALL_SHAPES = ((1, "V"), (1, "U"), (2, "V"))
BRUTE_A = (1, 2, 3, 4, 6, 9, 12)
BRUTE_M = {"brute_fp": (2304, 2304, 82944), "brute_complex": (2304, 2304, 2304, 82944)}


def make_pass(seed: int, pass_no: int = 0) -> list[Request]:
    """Pass `pass_no` of the run with this seed: the order of the kinds
    comes from the seed alone, the parameters from the seed and the pass
    number, so no pass repeats another's inputs."""
    slots = [(kind, i) for kind, count in MIX for i in range(count)]
    random.Random(seed * 104729 + 7).shuffle(slots)
    rng = random.Random(f"verify/{seed}/{pass_no}")
    return [Request(kind, _gen(kind, i, rng)) for kind, i in slots]


def _ket(rng):
    return (rng.choice((0, -1, -2, -3)), rng.randint(-3, 3), rng.choice((0, -1)), rng.randint(-6, 6))


def _gen(kind: str, i: int, rng) -> tuple:
    if kind == "qe_small":
        n_quant, dom = QE_SMALL_SHAPES[i % len(QE_SMALL_SHAPES)]
        text = exprgen.expr_text(rng, n_quant, dom, couple_bound=False)
        points = tuple((rng.randrange(-8, 8), rng.randrange(-8, 8)) for _ in range(20))
        return (text, points)
    if kind in ("eval_v1", "eval_v2", "eval_u1"):
        n_quant, dom = {"eval_v1": (1, "V"), "eval_v2": (2, "V"), "eval_u1": (1, "U")}[kind]
        return (exprgen.fixed_text(rng, n_quant, dom), (rng.randrange(-8, 8), rng.randrange(-8, 8)))
    if kind in ("brute_fp", "brute_complex"):
        M = BRUTE_M[kind][i % len(BRUTE_M[kind])]
        dom = "UV"[i % 2] if kind == "brute_fp" else "V"
        a = rng.choice(BRUTE_A) * rng.choice((-1, 1))
        b = a * rng.randint(-6, 6) if rng.random() < 0.7 else rng.randint(-40, 40)
        return (a, b, M, dom)
    if kind == "dense_pair":
        kind_ei = "EH"[i % 2]
        while True:
            s1, s2 = _ket(rng), _ket(rng)
            A = s1[0] + s2[0] if kind_ei == "E" else s1[0] - s2[0]
            if A != 0 and 144 % (4 * abs(A)) == 0:
                return (kind_ei, s1, s2)
    if kind == "apply_dense":
        t = (1, 2)[i % 2]
        # quadratic coefficients that free_propagator(t) maps in the fragment at N = 16
        A = rng.choice({1: (-3, -1, 0), 2: (0,)}[t])
        return (t, (A, rng.randint(-3, 3), rng.choice((0, -1)), rng.randint(-6, 6)))
    if kind == "propagator_row":
        return (2, rng.randint(-72, 71))
    if kind == "unitary":
        return (("fourier", 0), ("free", 1))[i % 2]
    if kind == "weyl":
        return (rng.randint(-72, 71),)
    if kind == "quadrature":
        return (0.25, rng.uniform(-0.4, 0.4))
    if kind == "sm_compose":
        A, C = rng.choice(SMALL_SM_FORMS)
        return (A, rng.randint(-2, 2), C)
    raise ValueError(kind)


def warmup_requests(seed: int) -> list[Request]:
    """One request of each kind: builds the towers and fills the program's
    xi and square-root caches."""
    rng = random.Random(seed * 104729 + 11)
    return [Request(kind, _gen(kind, 0, rng)) for kind, _ in MIX]


class Verify:
    def __init__(self):
        from gausscalc import arith, cli, climit, coeffring, dynamics, frontend, gauss, hilbert

        self.arith, self.coeffring, self.gauss = arith, coeffring, gauss
        self.hilbert, self.dynamics, self.climit = hilbert, dynamics, climit
        self.frontend, self.cli = frontend, cli
        self.P = arith.find_params(arith.ParamSpec())
        self.S = arith.Params(**SMALL_TOWER)
        self.M = arith.Params(**MID_TOWER)
        self.V = hilbert.domain_v(self.P)
        self.small_file = os.path.join(work_dir(), "tower-m2-k1.json")
        with open(self.small_file, "w", encoding="utf-8") as fh:
            json.dump(SMALL_TOWER, fh)

    def make_pass(self, seed: int, pass_no: int) -> list[Request]:
        return make_pass(seed, pass_no)

    def warmup_requests(self, seed: int) -> list[Request]:
        return warmup_requests(seed)

    def execute(self, req: Request):
        try:
            agree = getattr(self, "_" + req.kind)(*req.args)
        except Exception as exc:  # an oracle or closed form that raises is a failure
            return FAILED, f"{req.kind}!{type(exc).__name__}"
        return (OK, "agree") if agree else (WRONG, f"{req.kind}!disagree")

    def _ket(self, spec, params=None):
        H = self.hilbert
        params = params or self.P
        A, B, C, pp = spec
        return H.gauss_ket(params, H.domain_v(params), H.QuadForm(A, B, C), p_param=pp)

    def _qe_small(self, text, points):
        F = self.frontend
        e = F.parse(text)
        nf = F.eliminate(e, self.S)
        for x, y in points:
            env = {"x": x, "y": y}
            if F.eval_normal_form(nf, self.S, env) != F.eval_expr(e, self.S, env):
                return False
        return True

    def _eval(self, params, text, asg):
        F = self.frontend
        e = F.parse(text)
        env = {"x": asg[0], "y": asg[1]}
        return F.eval_normal_form(F.eliminate(e, params), params, env) == F.eval_expr(e, params, env)

    def _eval_v1(self, text, asg):
        return self._eval(self.P, text, asg)

    def _eval_u1(self, text, asg):
        return self._eval(self.M, text, asg)

    _eval_v2 = _eval_u1

    def _brute_fp(self, a, b, M, dom):
        G = self.gauss
        spec = G.GaussSumSpec(a, b, M, dom)
        closed = G.gauss_closed(spec, params=self.P)
        return self.coeffring.to_fp(self.P, closed) == G.gauss_brute(self.P, spec)

    def _brute_complex(self, a, b, M, dom):
        G = self.gauss
        closed = G.gauss_closed(G.GaussSumSpec(a, b, M, dom), params=self.P)
        brute = G.gauss_brute(self.P, G.GaussSumSpec(a, b, M, dom, "Complex"))
        # the complex backend realises e(q) as e^{+2 pi i q}; the limit map is its conjugate
        want = self.coeffring.to_complex(self.P, closed).conjugate()
        return abs(brute - want) < 1e-8 * max(1.0, abs(brute))

    def _dense_pair(self, kind, k1, k2):
        H, P = self.hilbert, self.P
        s1, s2 = self._ket(k1), self._ket(k2)
        hermitian = kind == "H"
        closed = self.coeffring.to_fp(P, H.inner(P, s1, s2, "Hermitian" if hermitian else "Euclidean"))
        d1 = H.DenseState.from_state(P, s1)
        d2 = H.DenseState.from_state(P, s2, conjugate=hermitian)
        # the full-domain sum covers |A| periods of the one-period pairing
        A = k1[0] - k2[0] if hermitian else k1[0] + k2[0]
        return d1.pair_full(P, d2) == abs(A) * closed % P.p

    def _apply_dense(self, t, ket):
        H, P = self.hilbert, self.M
        op = self.dynamics.free_propagator(P, t)
        s = self._ket(ket, P)
        out = H.apply_operator(P, op, s)
        dense = H.apply_dense(P, op, H.DenseState.from_state(P, s))
        to_fp = self.coeffring.to_fp
        return all(to_fp(P, out.coordinate(r)) == dense.coords[r] for r in H.domain_v(P).index_range())

    def _propagator_row(self, t, r):
        D, P = self.dynamics, self.P
        op = D.free_propagator(P, t)
        to_fp = self.coeffring.to_fp
        return all(
            to_fp(P, op.kernel_value(r, s)) == D.free_propagator_brute(P, t, self.V, r, s)
            for s in self.V.index_range()
        )

    def _unitary(self, which, t):
        D, P = self.dynamics, self.M
        op = D.fourier_operator(P) if which == "fourier" else D.free_propagator(P, t)
        return self.hilbert.check_unitary(P, op).ok

    def _weyl(self, r):
        return self.dynamics.weyl_pair(self.P).commutation_defect(self.P, r) == {}

    def _quadrature(self, A, B):
        C = self.climit
        g1 = C.ContinuumGaussian("Hermitian", 1.0, A, B)
        g2 = C.ContinuumGaussian("Hermitian", 1.0, 0.0, 0.0)
        return abs(C.continuum_inner_closed(g1, g2) - C.continuum_inner_quadrature(g1, g2)) < 1e-3

    def _sm_compose(self, A, B, C):
        buf = io.StringIO()
        argv = ["--params-file", self.small_file, "sm-compose", "--A", str(A), "--B", str(B), "--C", str(C)]
        with contextlib.redirect_stdout(buf):
            status = self.cli.main(argv)
        lines = buf.getvalue().splitlines()
        if len(lines) != 1:
            raise RuntimeError(f"expected one JSON document, got {len(lines)} lines")
        doc = json.loads(lines[0])
        if status not in (0, 2):
            raise RuntimeError(f"sm-compose exited {status}: {doc.get('error')}")
        return status == 0 and doc.get("agree") is True
