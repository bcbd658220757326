"""Worked dynamics on the finite domains: momentum basis, the Weyl pair
U, V with UV = qVU, the free-particle propagator, and the statistical
transfer matrix on the U scale.

Conventions (position basis indexed by the domain):

    v[p](r)  = (1/sqrt(N)) e(-r p / N)
    U u[r]   = e(r/N) u[r]          (diagonal)
    V u[r]   = u[r+1]               (unit shift)
    exp(i P^2 t / 2) u[r] = sqrt(t/N) e(1/8) sum_{s = r mod t} e(-(r-s)^2 / 2tN) u[s]

The propagator coefficient carries the block multiplicity t relative to
the one-period Gauss-sum normalisation, because the momentum resolution
sums over the whole domain; the brute-force Fourier conjugation fixes
both it and the e(+1/8) branch.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import ArithError, Params
from .coeffring import GaussCoeff, to_fp
from .gauss import PreconditionViolation
from .hilbert import (
    Domain,
    GaussOperator,
    GaussState,
    InadmissibleForm,
    PositionState,
    QuadForm,
    domain_u,
    domain_v,
    gauss_ket,
    unit_normalization,
)


def momentum_state(params: Params, p_index: int, domain: Domain | None = None) -> GaussState:
    """v[p]: r -> (1/sqrt(N)) e(-r p / N): the A = 0 ket with bilinear
    form -2 r p over 2N."""
    if domain is None:
        domain = domain_v(params)
    p_index = domain.wrap(p_index)
    return gauss_ket(params, domain, QuadForm(0, -1, 0), p_param=p_index)


def fourier_operator(params: Params, domain: Domain | None = None) -> GaussOperator:
    """u[q] |-> v[q]: kernel (1/sqrt(N)) e(-q r / N)."""
    if domain is None:
        domain = domain_v(params)
    return GaussOperator(
        unit_normalization(params, domain), 0, -1, 0, domain, domain, unitary=True
    )


def position_operator_u(params: Params, domain: Domain | None = None) -> GaussOperator:
    """The Weyl U: diagonal with eigenvalue e(q/N) on u[q]."""
    if domain is None:
        domain = domain_v(params)
    return GaussOperator(
        GaussCoeff.one(), 0, 0, 0, domain, domain,
        kD=1, support=(domain.N, 1, -1, 0), unitary=True,
    )


def shift_operator_v(params: Params, domain: Domain | None = None) -> GaussOperator:
    """The Weyl V: u[q] |-> u[q+1]."""
    if domain is None:
        domain = domain_v(params)
    return GaussOperator(
        GaussCoeff.one(), 0, 0, 0, domain, domain,
        support=(domain.N, 1, -1, -1), unitary=True,
    )


@dataclass(frozen=True)
class WeylPair:
    U: GaussOperator
    V: GaussOperator
    q: GaussCoeff  # commutation phase e(1/N)

    def commutation_defect(self, params: Params, r: int) -> dict:
        """F_p coordinates of (UV - qVU) u[r]; all zero iff the relation holds."""
        from .hilbert import apply_operator

        domain = self.U.domain_in
        uv = apply_operator(params, self.U, apply_operator(params, self.V, PositionState(r, domain)))
        vu = apply_operator(params, self.V, apply_operator(params, self.U, PositionState(r, domain)))
        p = params.p
        qfp = to_fp(params, self.q)
        out = {}
        for s in domain.index_range():
            a = to_fp(params, uv.coordinate(s))
            b = to_fp(params, vu.coordinate(s))
            diff = (a - qfp * b) % p
            if diff:
                out[s] = diff
        return out


def weyl_pair(params: Params, domain: Domain | None = None) -> WeylPair:
    if domain is None:
        domain = domain_v(params)
    q = GaussCoeff.phase_of(Fraction(1, domain.N), domain.tag)
    return WeylPair(position_operator_u(params, domain), shift_operator_v(params, domain), q)


def free_propagator(params: Params, t: int, domain: Domain | None = None) -> GaussOperator:
    """exp(i P^2 t / 2): kernel sqrt(t/N) e(1/8) e(-(q-r)^2 / 2tN) on t | q - r.

    Needs 4t | N so the momentum Gauss sum closes (the classical 4a | M
    hypothesis); other times raise."""
    if domain is None:
        domain = domain_v(params)
    N = domain.N
    t = t % N
    if t == 0:
        raise PreconditionViolation("t = 0 mod N is the identity; use identity_operator")
    if N % (4 * t):
        raise PreconditionViolation(f"need 4t | N (t={t}, N={N})")
    coeff = (
        unit_normalization(params, domain)
        * GaussCoeff.sqrt(t)
        * GaussCoeff.e8_power(1)
    )
    return GaussOperator(
        coeff, -1, 1, -1, domain, domain, den=t,
        support=(t, 1, -1, 0), unitary=True,
    )


def free_propagator_brute(params: Params, t: int, domain: Domain, r: int, s: int) -> int:
    """Kernel entry by the momentum-side double resolution:
    (1/N) sum_p e((p^2 t + 2 p (r - s)) / 2N)."""
    p = params.p
    N = domain.N
    # the window -N/2 <= q < N/2 of domain.index_range()
    total = params.power_sum(2 * N, t, r - s, -N // 2 - 1, N // 2 - 1)
    return total * pow(N % p, -1, p) % p


def quadratic_phase_operator(params: Params, t: int, domain: Domain | None = None) -> GaussOperator:
    """Diagonal multiplication by e(t q^2 / 2N) in the position basis."""
    if domain is None:
        domain = domain_v(params)
    return GaussOperator(
        GaussCoeff.one(), t, 0, 0, domain, domain,
        support=(domain.N, 1, -1, 0), unitary=True,
    )


def sm_transfer(params: Params, form: QuadForm, domain: Domain | None = None,
                den: int = 1) -> GaussOperator:
    """Transfer kernel T(q, r) = (1/sqrt(N)) e(form(q, r) / 2N) on the U
    scale: the statistical (real-exponential) propagator."""
    if domain is None:
        domain = domain_u(params)
    if domain.tag != "U":
        raise ArithError("the transfer matrix lives on the U domain")
    if not form.admissible:
        raise InadmissibleForm(f"transfer form {form} needs A <= 0 and C <= 0")
    return GaussOperator(
        unit_normalization(params, domain),
        form.A, form.B, form.C, domain, domain, den=den,
    )
