"""The `derive` workload: the symbolic path alone, in-process and warm, on
the default tower (m=12, k=2), with no literal summation while timed.

The pass is a stratified mix: every kind appears a fixed number of times
per 100 requests, in an order that comes from the seed; the parameters
come from the seed and the pass number, so the pass's cost hardly depends
on either.  12 of every 100 requests lie
outside the closed-form fragment by construction and must be refused
with NonGaussianSum.  After timing, a seeded sample of V-domain results
is re-checked against the program's literal oracles.
"""

from __future__ import annotations

import random

from common import FAILED, OK, WRONG, Request, classify_exception
import exprgen

# (kind, requests per 100, refused)
MIX = (
    ("gauss_closed", 12, False),
    ("window_sum", 8, False),
    ("window_sum", 2, True),
    ("inner", 14, False),
    ("inner", 3, True),
    ("apply_free", 7, False),
    ("apply_uop", 7, False),
    ("apply_uop", 2, True),
    ("compose_sm", 5, False),
    ("compose_free", 5, False),
    ("compose_sm", 2, True),
    ("correspondence", 6, False),
    ("intertwining", 6, False),
    ("qe", 16, False),
    ("qe", 3, True),
    ("convergence", 2, False),
)
PASS_SIZE = 1000

GAUSS_M = (144, 2304, 82944)
GAUSS_A = (1, 2, 3, 4, 6, 9, 12)
# free_propagator(t) applied to a V ket with quadratic coefficient A stays
# in the fragment for these (t, A)
FREE_APPLY = {1: (-3, -2, -1, 0), 2: (-4, -1, 0), 3: (-1, 0), 4: (-2, 0), 6: (0,), 12: (0,)}
FREE_COMPOSE = ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1), (3, 3), (6, 6), (9, 9), (18, 18))
# transfer forms (A, C) whose square T*T closes on the default tower, any B
SM_FORMS = ((-1, -1), (-2, -2), (-1, -2), (-2, -1), (-3, -3), (-4, -4), (0, -1), (-1, 0), (-2, -4))
SM_REFUSED = ((-2, -3), (-3, -2), (-1, -4), (-4, -1))  # A + C = -5: period 82944/5


def _choice_cycle(options, i):
    return options[i % len(options)]


def make_pass(seed: int, pass_no: int = 0, size: int = PASS_SIZE) -> list[Request]:
    """Pass `pass_no` of the run with this seed.  The order of the request
    kinds comes from the seed alone, so each slot of the pass keeps its
    kind from pass to pass; the parameters come from the seed and the pass
    number, so no pass repeats another's inputs."""
    slots = [(kind, refused, i) for kind, count, refused in MIX for i in range(count * (size // 100))]
    random.Random(seed * 7919 + 1).shuffle(slots)
    rng = random.Random(f"derive/{seed}/{pass_no}")
    return [Request(kind, _gen(kind, refused, i, rng), refused) for kind, refused, i in slots]


def _ket(rng, A_pool, p_range=6):
    return (rng.choice(A_pool), rng.randint(-3, 3), rng.choice((0, -1)), rng.randint(-p_range, p_range))


def _gen(kind: str, refused: bool, i: int, rng) -> tuple:
    dom = "UV"[(i // 3) % 2]
    if kind == "gauss_closed":
        M = _choice_cycle(GAUSS_M, i)
        a = rng.choice(GAUSS_A) * rng.choice((-1, 1))
        b = a * rng.randint(-6, 6) if rng.random() < 0.7 else rng.randint(-40, 40)
        return (a, b, M, dom)
    if kind == "window_sum":
        M = _choice_cycle(GAUSS_M, i)
        A = rng.choice(GAUSS_A) * rng.choice((-1, 1))
        T = M // abs(A)
        C = rng.randint(-4, 4)
        if refused:
            return (A, A * rng.randint(-3, 3), C, M, T // 2, dom)  # truncated period
        if rng.random() < 0.6:
            return (A, A * rng.randint(-6, 6), C, M, T * rng.randint(1, 3), dom)
        # indivisible linear part over |A| whole blocks: telescopes to zero
        return (A, A * rng.randint(-3, 3) + rng.randint(1, abs(A)), C, M, T * abs(A), dom)
    if kind == "inner":
        kind_ei = "EH"[i % 2]
        if refused:
            # |combined A| = 5: the period M/5 is not an integer
            k1, k2 = ((-2, -3) if kind_ei == "E" else (0, -5))
            return (dom, kind_ei, (k1,) + _ket(rng, (0,))[1:], (k2,) + _ket(rng, (0,))[1:])
        while True:
            s1, s2 = _ket(rng, (0, -1, -2, -3)), _ket(rng, (0, -1, -2, -3))
            A = s1[0] + s2[0] if kind_ei == "E" else s1[0] - s2[0]
            if A != 0 and 144 % (4 * abs(A)) == 0:
                return (dom, kind_ei, s1, s2)
    if kind == "apply_free":
        t = _choice_cycle(tuple(FREE_APPLY), i)
        return (t, _ket(rng, FREE_APPLY[t]))
    if kind == "apply_uop":
        if refused:
            A1, kA = rng.choice(((-2, -3), (-3, -2), (-1, -4)))
        else:
            while True:
                A1, kA = rng.choice((0, -1, -2)), rng.choice((0, -1, -2))
                if A1 + kA != 0 and 144 % (4 * abs(A1 + kA)) == 0:
                    break
        ket = (A1, rng.randint(-2, 2), -1, rng.randint(-4, 4))
        op = (kA, rng.choice((-2, -1, 1, 2)), rng.choice((0, -1)), rng.randint(-2, 2), rng.randint(-2, 2))
        return (ket, op)
    if kind == "compose_sm":
        A, C = rng.choice(SM_REFUSED if refused else SM_FORMS)
        return (A, rng.randint(-3, 3), C)
    if kind == "compose_free":
        return rng.choice(FREE_COMPOSE)
    if kind in ("correspondence", "intertwining"):
        if kind == "correspondence":
            kind_ei = "EH"[i % 2]
            while True:
                s1, s2 = _ket(rng, (0, -1, -2, -3)), _ket(rng, (0, -1, -2, -3))
                A = s1[0] + s2[0] if kind_ei == "E" else s1[0] - s2[0]
                if A != 0 and 144 % (4 * abs(A)) == 0:
                    return (kind_ei, s1, s2)
        while True:
            A1, kA = rng.choice((0, -1, -2)), rng.choice((0, -1, -2))
            if A1 + kA != 0 and 144 % (4 * abs(A1 + kA)) == 0:
                break
        ket = (A1, rng.randint(-2, 2), -1, rng.randint(-4, 4))
        op = (kA, rng.choice((-2, -1, 1, 2)), rng.choice((0, -1)), rng.randint(-2, 2), rng.randint(-2, 2))
        return (ket, op)
    if kind == "qe":
        asg = (rng.randint(-8, 7), rng.randint(-8, 7))
        if refused:
            return (exprgen.refused_text(rng, dom), asg)
        n_quant = (1, 2, 3)[i % 3]
        qdom = "V" if n_quant == 3 else dom
        return (exprgen.expr_text(rng, n_quant, qdom, couple_bound=qdom == "V"), asg)
    if kind == "convergence":
        return (rng.choice((1, 2, 4)), "EH"[i % 2])
    raise ValueError(kind)


class Derive:
    def __init__(self):
        from gausscalc import arith, climit, coeffring, dynamics, frontend, gauss, hilbert, wick

        self.arith, self.coeffring, self.gauss = arith, coeffring, gauss
        self.hilbert, self.dynamics, self.wick = hilbert, dynamics, wick
        self.climit, self.frontend = climit, frontend
        self.P = arith.find_params(arith.ParamSpec())
        self.dom = {"U": hilbert.domain_u(self.P), "V": hilbert.domain_v(self.P)}
        self.refusal = gauss.NonGaussianSum

    def make_pass(self, seed: int, pass_no: int) -> list[Request]:
        return make_pass(seed, pass_no)

    def warmup_requests(self, seed: int) -> list[Request]:
        """One whole pass of its own (number -1, which no timed pass
        repeats), untimed: fills the tower, xi and sqrt caches."""
        return make_pass(seed, -1)

    # -- request execution ------------------------------------------------

    def execute(self, req: Request):
        try:
            result = getattr(self, "_" + req.kind)(*req.args)
        except Exception as exc:  # classified: expected refusal or failure
            return classify_exception(req, exc, self.refusal), f"{req.kind}!{type(exc).__name__}"
        if result is False:
            return WRONG, f"{req.kind}!wrong"
        if req.refuse:
            return FAILED, f"{req.kind}!not-refused"
        return OK, result

    def _fp(self, coeff) -> str:
        return f"{coeff}|{self.coeffring.to_fp(self.P, coeff)}"

    def _make_ket(self, dom, spec):
        A, B, C, pp = spec
        H = self.hilbert
        return H.gauss_ket(self.P, self.dom[dom], H.QuadForm(A, B, C), p_param=pp)

    def _make_uop(self, spec):
        H = self.hilbert
        U = self.dom["U"]
        kA, kB, kC, kD, kE = spec
        return H.GaussOperator(H.unit_normalization(self.P, U), kA, kB, kC, U, U, kD=kD, kE=kE)

    def _state_text(self, s) -> str:
        return f"{s.to_descriptor()}|{self.coeffring.to_fp(self.P, s.coeff)}"

    def _op_text(self, op) -> str:
        return (f"{op.coeff}|{op.kA},{op.kB},{op.kC},{op.kD},{op.kE}|{op.den}|{op.support}|"
                f"{self.coeffring.to_fp(self.P, op.coeff)}")

    def _gauss_closed(self, a, b, M, dom):
        G = self.gauss
        return self._fp(G.gauss_closed(G.GaussSumSpec(a, b, M, dom), params=self.P))

    def _window_sum(self, A, B, C, M, window, dom):
        return self._fp(self.gauss.quadratic_window_sum(A, B, C, M, window, dom, params=self.P))

    def _inner(self, dom, kind, k1, k2):
        kind = "Euclidean" if kind == "E" else "Hermitian"
        value = self.hilbert.inner(self.P, self._make_ket(dom, k1), self._make_ket(dom, k2), kind)
        return self._fp(value)

    def _apply_free(self, t, ket):
        op = self.dynamics.free_propagator(self.P, t)
        return self._state_text(self.hilbert.apply_operator(self.P, op, self._make_ket("V", ket)))

    def _apply_uop(self, ket, op):
        out = self.hilbert.apply_operator(self.P, self._make_uop(op), self._make_ket("U", ket))
        return self._state_text(out)

    def _compose_sm(self, A, B, C):
        D = self.dynamics
        T = D.sm_transfer(self.P, self.hilbert.QuadForm(A, B, C))
        return self._op_text(self.hilbert.compose(self.P, T, T))

    def _compose_free(self, t1, t2):
        D = self.dynamics
        op = self.hilbert.compose(self.P, D.free_propagator(self.P, t1), D.free_propagator(self.P, t2))
        return self._op_text(op)

    def _correspondence(self, kind, k1, k2):
        kind = "Euclidean" if kind == "E" else "Hermitian"
        rep = self.wick.check_inner_correspondence(
            self.P, self._make_ket("U", k1), self._make_ket("U", k2), kind)
        return rep.ok and f"{rep.lhs}|{rep.lhs_fp}"

    def _intertwining(self, ket, op):
        return self.wick.check_intertwining(self.P, self._make_uop(op), self._make_ket("U", ket)) and "ok"

    def _qe(self, text, asg):
        F = self.frontend
        nf = F.eliminate(F.parse(text), self.P)
        value = F.eval_normal_form(nf, self.P, {"x": asg[0], "y": asg[1]})
        return f"{nf.render()}|{value}"

    def _convergence(self, A, kind):
        C, H = self.climit, self.hilbert
        rep = C.convergence_check(
            H.QuadForm(-A, A, -1), 1, H.QuadForm(0, 0, -2), 1,
            "Euclidean" if kind == "E" else "Hermitian", (144, 576, 2304))
        return repr(rep.errors)

    # -- post-run re-check against literal oracles --------------------------

    def recheck_candidates(self, requests) -> list[int]:
        """Indices of pass requests whose V-domain result has an affordable oracle."""
        out = []
        for i, req in enumerate(requests):
            if req.refuse:
                continue
            if req.kind == "gauss_closed" and req.args[3] == "V":
                out.append(i)
            elif req.kind == "inner" and req.args[0] == "V":
                out.append(i)
            elif req.kind == "apply_free":
                out.append(i)
            elif req.kind == "qe" and "@V" in req.args[0] and req.args[0].count(" . ") <= 2:
                out.append(i)
        return out

    def recheck(self, req: Request) -> bool:
        """True when the closed form agrees with literal summation."""
        P, H, C = self.P, self.hilbert, self.coeffring
        p = P.p
        if req.kind == "gauss_closed":
            a, b, M, dom = req.args
            spec = self.gauss.GaussSumSpec(a, b, M, dom)
            return C.to_fp(P, self.gauss.gauss_closed(spec, params=P)) == self.gauss.gauss_brute(P, spec)
        if req.kind == "inner":
            dom, kind, k1, k2 = req.args
            s1, s2 = self._make_ket(dom, k1), self._make_ket(dom, k2)
            kind = "Euclidean" if kind == "E" else "Hermitian"
            closed = C.to_fp(P, H.inner(P, s1, s2, kind))
            d1 = H.DenseState.from_state(P, s1)
            d2 = H.DenseState.from_state(P, s2, conjugate=kind == "Hermitian")
            # the full-domain sum covers |A| periods of the one-period pairing
            A = k1[0] + k2[0] if kind == "Euclidean" else k1[0] - k2[0]
            return d1.pair_full(P, d2) == abs(A) * closed % p
        if req.kind == "apply_free":
            t, ket = req.args
            s = self._make_ket("V", ket)
            op = self.dynamics.free_propagator(P, t)
            out = H.apply_operator(P, op, s)
            dense = H.apply_dense(P, op, H.DenseState.from_state(P, s))
            return all(C.to_fp(P, out.coordinate(r)) == dense.coords[r] for r in self.dom["V"].index_range())
        if req.kind == "qe":
            text, asg = req.args
            F = self.frontend
            e = F.parse(text)
            env = {"x": asg[0], "y": asg[1]}
            return F.eval_normal_form(F.eliminate(e, P), P, env) == F.eval_expr(e, P, env)
        raise ValueError(req.kind)
