"""The Wick-rotation morphism between the U (statistical/Euclidean) and V
(quantum/Hermitian) scale domains.

The map is a retagging of exact normal forms: e(n/2N_u) and e(n/2N_v)
with the same numerator are literally related by e(i*n/2N_u) = e(n/2N_v)
in F_p (N_u = i * N_v), and the normalisation swap sqrt(N_u) -> sqrt(N_v)
is one factor of the generator j = sqrt(i).  So on coefficients

    (c / sqrt(N_u)) e(n/2N_u)  |->  (c / sqrt(N_v)) e(n/2N_v)

is: multiply by j, rescale the phase numerator by i, retag U -> V.  The
"unit" of the scale, 1/sqrt(N_u), maps to 1/sqrt(N_v).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .arith import ArithError, Params
from .coeffring import GaussCoeff, to_fp
from .hilbert import (
    GaussOperator,
    GaussState,
    apply_operator,
    domain_v,
    inner,
    zero_state,
)


class WrongDomain(ArithError):
    pass


def wick_coeff(params: Params, x: GaussCoeff) -> GaussCoeff:
    """O-coefficient map of the scale shift; exact on normal forms."""
    if x.is_zero():
        return x
    if x.phase.domain == "V":
        raise WrongDomain("wick_coeff expects a U-scale (or phase-free) coefficient")
    return x.with_phase(x.phase.scaled(params.i, "V"), x.a + 1)


def wick_state(params: Params, s: GaussState) -> GaussState:
    """s_f[p] |-> s_f^i[p]: same quadratic data on the V domain, the
    coefficient carried through wick_coeff (which supplies the factor j
    that swaps the normalisations)."""
    if s.domain.tag != "U":
        raise WrongDomain("wick_state expects a U-domain state")
    target = domain_v(params)
    if s.is_zero():
        return zero_state(target)
    if target.N % s.support[0]:
        raise WrongDomain("support coset does not fit the V sublattice")
    return replace(s, coeff=wick_coeff(params, s.coeff), domain=target)


def wick_operator(params: Params, op: GaussOperator) -> GaussOperator:
    """Kernel form preserved, normalisation retagged; intertwines with
    application: wick(A) wick(s) = wick(A s)."""
    if op.domain_in.tag != "U" or op.domain_out.tag != "U":
        raise WrongDomain("wick_operator expects a U-domain operator")
    target = domain_v(params)
    if any(target.N % k for k, _ in op.support):
        raise WrongDomain("kernel coset does not fit the V sublattice")
    return replace(op, coeff=wick_coeff(params, op.coeff), domain_in=target, domain_out=target)


@dataclass(frozen=True)
class CorrespondenceReport:
    kind: str
    lhs: str  # inner product of the wicked states (V side)
    rhs: str  # wick image of the U-side inner product
    lhs_fp: int
    rhs_fp: int

    @property
    def ok(self) -> bool:
        return self.lhs_fp == self.rhs_fp


def check_inner_correspondence(params: Params, s1: GaussState, s2: GaussState,
                               kind: str = "Euclidean", mode: str = "extended") -> CorrespondenceReport:
    """<s1^i | s2^i> = {<s1 | s2>}^i, the same kind on both sides."""
    if s1.domain.tag != "U" or s2.domain.tag != "U":
        raise WrongDomain("correspondence check expects U-domain states")
    base = inner(params, s1, s2, kind, mode)
    rhs = wick_coeff(params, base)
    lhs = inner(params, wick_state(params, s1), wick_state(params, s2), kind, mode)
    return CorrespondenceReport(
        kind, str(lhs), str(rhs), to_fp(params, lhs), to_fp(params, rhs)
    )


def check_intertwining(params: Params, op: GaussOperator, s: GaussState) -> bool:
    """wick(A s) and wick(A) wick(s) agree exactly: same phase data and
    support, to_fp-equal coefficients."""
    left = wick_state(params, apply_operator(params, op, s))
    right = apply_operator(params, wick_operator(params, op), wick_state(params, s))
    if left.is_zero() or right.is_zero():
        return left.is_zero() and right.is_zero()
    same_phase = (
        (left.qA, left.qL, left.qC, left.den) == (right.qA, right.qL, right.qC, right.den)
        and left.support == right.support
    )
    return same_phase and to_fp(params, left.coeff) == to_fp(params, right.coeff)
