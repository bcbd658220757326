"""Gaussian Hilbert space over a finite domain.

States are kept symbolic: a Gaussian ket is a coefficient together with an
integer quadratic phase (qA r^2 + 2 qL r + qC) / (2 N den) and a support
coset k Z + d outside which the coordinates vanish.  Operators carry a
quadratic kernel in (input q, output r) plus linear terms and a pair-coset
constraint aq*q + ar*r = d (mod k).  Nothing is materialised as a
length-N vector outside the brute-force oracles (DenseState, the kernel
residues of ``GaussOperator.kernel_block``), which work on numpy vectors of
F_p residues (see ``arith.exact_dtype``).

Every sum is evaluated by the one Gauss-summation kernel
``gauss.gauss_sum``.  Two summation conventions coexist, both exact:

* ``inner``  -- the formal inner product, summed over one period of the
  combined phase (the "units of scales" convention) by
  ``gauss.quadratic_window_sum``, the kernel's case without free
  variables; when the combined quadratic coefficient does not divide the
  linear one the value is declared zero, which is what the full-domain
  sum gives.
* ``apply_operator`` / ``compose`` -- linearity sums over the whole
  domain, so closed forms carry the block multiplicity.  The phase is
  lowered to a quadratic form in (input, summed, output) indices and the
  support cosets to guards on them; the kernel's divisibility guard and
  residual guards become the image support.

Denominators introduced by operator images (phases over 2tN and the like)
are tracked in ``den``; support cosets fall out of the divisibility case
of the Gauss summation formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .arith import (
    BLOCK,
    ArithError,
    DomainMismatch,
    Params,
    Phase,
    exact_dtype,
    poly_mod,
    require_int,
    solve_congruence,
)
from .coeffring import GaussCoeff, _normal, to_fp_phases
from .coeffring import unit_normalization as coeff_unit
from .gauss import NonGaussianSum, divides_on_guards, gauss_sum, quadratic_window_sum


class InadmissibleForm(ArithError):
    pass


class BadCoset(ArithError):
    pass


@dataclass(frozen=True)
class Domain:
    tag: str
    N: int

    def __post_init__(self) -> None:
        if self.tag not in ("U", "V"):
            raise ArithError("domain tag must be 'U' or 'V'")

    def index_range(self) -> range:
        return range(-self.N // 2, self.N // 2)

    def wrap(self, r: int) -> int:
        return (r + self.N // 2) % self.N - self.N // 2

    def index_vector(self) -> np.ndarray:
        """index_range() as an int64 vector."""
        return np.arange(-self.N // 2, self.N // 2)


def domain_v(params: Params) -> Domain:
    return Domain("V", params.N_v)


def domain_u(params: Params) -> Domain:
    return Domain("U", params.N_u)


def unit_normalization(params: Params, domain: Domain) -> GaussCoeff:
    """1/sqrt(N) kept symbolic (``coeffring.unit_normalization``)."""
    return coeff_unit(params.m, domain.tag)


@dataclass(frozen=True)
class QuadForm:
    A: int
    B: int
    C: int

    @property
    def admissible(self) -> bool:
        return self.A <= 0 and self.C <= 0


@dataclass(frozen=True)
class PositionState:
    r: int
    domain: Domain

    def __post_init__(self) -> None:
        object.__setattr__(self, "r", self.domain.wrap(self.r))


def _with_phase(c: GaussCoeff, q: Fraction, tag: str) -> GaussCoeff:
    """c * e(q @ tag) for a nonzero c, built from normal-form parts; raises
    DomainMismatch where the two phases' scales differ."""
    return _normal(c.c, c.rho, c.a, c.b, c.phase + Phase(q, tag))


def _intersect_cosets(k1: int, d1: int, k2: int, d2: int) -> tuple[int, int] | None:
    g = math.gcd(k1, k2)
    if (d1 - d2) % g:
        return None
    lcm = k1 // g * k2
    sol = solve_congruence(k1, (d2 - d1) % lcm, k2)
    assert sol is not None
    _, t = sol
    return lcm, (d1 + k1 * t) % lcm


@dataclass(frozen=True)
class GaussState:
    """coeff * e((qA r^2 + 2 qL r + qC) / (2 N den)) on the coset k Z + d."""

    coeff: GaussCoeff
    qA: int
    qL: int
    qC: int
    domain: Domain
    den: int = 1
    support: tuple[int, int] = (1, 0)

    def __post_init__(self) -> None:
        k, d = self.support
        if k < 1 or self.domain.N % k:
            raise BadCoset(f"support step {k} must divide N={self.domain.N}")
        object.__setattr__(self, "support", (k, d % k))
        if self.den < 1:
            raise ArithError("den must be positive")
        g = math.gcd(math.gcd(self.qA, self.qL), math.gcd(self.qC, self.den))
        if g > 1 and self.den % g == 0:
            object.__setattr__(self, "qA", self.qA // g)
            object.__setattr__(self, "qL", self.qL // g)
            object.__setattr__(self, "qC", self.qC // g)
            object.__setattr__(self, "den", self.den // g)

    def is_zero(self) -> bool:
        return self.coeff.is_zero()

    def phase_at(self, r: int) -> Fraction:
        return Fraction(
            self.qA * r * r + 2 * self.qL * r + self.qC, 2 * self.domain.N * self.den
        )

    def coordinate(self, r: int) -> GaussCoeff:
        r = self.domain.wrap(r)
        k, d = self.support
        if self.is_zero() or (r - d) % k:
            return GaussCoeff.zero()
        return _with_phase(self.coeff, self.phase_at(r), self.domain.tag)

    def to_descriptor(self) -> dict:
        return {
            "domain": self.domain.tag,
            "coeff": str(self.coeff),
            "form": [self.qA, self.qL, self.qC],
            "p_param": 1,
            "den": self.den,
            "support": list(self.support),
        }


def zero_state(domain: Domain) -> GaussState:
    return GaussState(GaussCoeff.zero(), 0, 0, 0, domain)


def gauss_ket(
    params: Params,
    domain: Domain,
    form: QuadForm,
    p_param: int = 0,
    coeff: GaussCoeff | None = None,
    den: int = 1,
    allow_inadmissible: bool = False,
) -> GaussState:
    """The ket with coordinates coeff * e(f(r, p)/2N), f = A r^2 + 2B r p + C p^2.

    coeff defaults to the 1/sqrt(N) normalisation."""
    if not form.admissible and not allow_inadmissible:
        raise InadmissibleForm(f"form {form} needs A <= 0 and C <= 0")
    if coeff is None:
        coeff = unit_normalization(params, domain)
    return GaussState(
        coeff,
        form.A,
        form.B * p_param,
        form.C * p_param * p_param,
        domain,
        den=den,
    )


def domain_of(params: Params, tag: str) -> Domain:
    """The V or U domain of `params` by its tag; ArithError for any other."""
    return Domain(tag, params.N_v if tag == "V" else params.N_u)


def _int_list(x, n: int, what: str) -> tuple[int, ...]:
    if not isinstance(x, list) or len(x) != n:
        raise ArithError(f"state descriptor field {what!r} must be a list of {n} integers")
    return tuple(require_int(v, f"state descriptor field {what!r}") for v in x)


def state_from_descriptor(params: Params, d: dict) -> GaussState:
    """The state of a descriptor in the shape ``GaussState.to_descriptor``
    writes: an object with a domain 'U' or 'V', a coefficient string, an
    integer form [A, L, C] and optional integer p_param, den and support
    [k, d]; ArithError for any other shape."""
    from .coeffring import parse_coeff

    if not isinstance(d, dict):
        raise ArithError("a state descriptor must be an object")
    for key in ("domain", "coeff", "form"):
        if key not in d:
            raise ArithError(f"state descriptor lacks {key!r}")
    domain = domain_of(params, d["domain"])
    if not isinstance(d["coeff"], str):
        raise ArithError("state descriptor field 'coeff' must be a string")
    qa, ql, qc = _int_list(d["form"], 3, "form")
    pp = require_int(d.get("p_param", 1), "state descriptor field 'p_param'")
    return GaussState(
        parse_coeff(d["coeff"]),
        qa,
        ql * pp,
        qc * pp * pp,
        domain,
        den=require_int(d.get("den", 1), "state descriptor field 'den'"),
        support=_int_list(d.get("support", [1, 0]), 2, "support"),  # type: ignore[arg-type]
    )


@dataclass(frozen=True)
class GaussOperator:
    """u[q] |-> coeff * sum_r e(alpha(q, r)/(2 N den)) u[r] on the pair coset
    aq*q + ar*r = d (mod k), with

        alpha(q, r) = kA q^2 + 2 kB q r + kC r^2 + 2 kD q + 2 kE r.
    """

    coeff: GaussCoeff
    kA: int
    kB: int
    kC: int
    domain_in: Domain
    domain_out: Domain
    kD: int = 0
    kE: int = 0
    den: int = 1
    support: tuple[int, int, int, int] = (1, 0, 0, 0)  # (k, aq, ar, d)
    unitary: bool = False

    def __post_init__(self) -> None:
        k, aq, ar, _ = self.support
        if k < 1:
            raise BadCoset("support modulus must be positive")
        # the pair coset must be well-defined under index wraparound mod N
        if (aq * self.domain_in.N) % k or (ar * self.domain_out.N) % k:
            raise BadCoset("support coset not compatible with the domain period")

    def is_zero(self) -> bool:
        return self.coeff.is_zero()

    def on_support(self, q: int, r: int) -> bool:
        k, aq, ar, d = self.support
        return (aq * q + ar * r - d) % k == 0

    def kernel_value(self, q: int, r: int) -> GaussCoeff:
        if self.is_zero() or not self.on_support(q, r):
            return GaussCoeff.zero()
        num = (
            self.kA * q * q
            + 2 * self.kB * q * r
            + self.kC * r * r
            + 2 * self.kD * q
            + 2 * self.kE * r
        )
        m = 2 * self.domain_in.N * self.den
        return _with_phase(self.coeff, Fraction(num, m), self.domain_in.tag)

    def kernel_block(self, params: Params, q, r, conjugate: bool = False) -> np.ndarray:
        """to_fp(kernel_value(q, r)), or of its conj(), elementwise over the
        broadcast of the index arrays (or ints) q and r; raises what
        kernel_value and to_fp raise, for the first element in C order at
        which they would."""
        k, aq, ar, d = self.support
        m = 2 * self.domain_in.N * self.den
        num = poly_mod(m, [(self.kA, q, q), (2 * self.kB, q, r), (self.kC, r, r),
                           (2 * self.kD, q), (2 * self.kE, r)])
        on = poly_mod(k, [(aq, q), (ar, r), (-d,)]) == 0
        return to_fp_phases(params, self.coeff, self.domain_in.tag, m, num, on, conjugate)


def identity_operator(domain: Domain) -> GaussOperator:
    return GaussOperator(
        GaussCoeff.one(), 0, 0, 0, domain, domain,
        support=(domain.N, 1, -1, 0), unitary=True,
    )


# -- formal inner products -----------------------------------------------------


def inner(params: Params, s1, s2, kind: str = "Hermitian", mode: str = "extended") -> GaussCoeff:
    """Formal inner product; Hermitian conjugates the second argument.

    Ket/ket pairs reduce by Gauss summation over one period of the combined
    phase.  The combined-quadratic-zero case follows `mode`: extended
    counts the full coset (character orthogonality), strict is zero.
    """
    if kind not in ("Euclidean", "Hermitian"):
        raise ArithError("kind must be 'Euclidean' or 'Hermitian'")
    if isinstance(s1, PositionState) and isinstance(s2, PositionState):
        _check_domains(s1.domain, s2.domain)
        return GaussCoeff.one() if s1.r == s2.r else GaussCoeff.zero()
    if isinstance(s1, GaussState) and isinstance(s2, PositionState):
        _check_domains(s1.domain, s2.domain)
        return s1.coordinate(s2.r)
    if isinstance(s1, PositionState) and isinstance(s2, GaussState):
        _check_domains(s1.domain, s2.domain)
        val = s2.coordinate(s1.r)
        return val.conj() if kind == "Hermitian" else val
    _check_domains(s1.domain, s2.domain)
    if s1.is_zero() or s2.is_zero():
        return GaussCoeff.zero()

    den = math.lcm(s1.den, s2.den)
    f1, f2 = den // s1.den, den // s2.den
    sign = -1 if kind == "Hermitian" else 1
    qA = s1.qA * f1 + sign * s2.qA * f2
    qL = s1.qL * f1 + sign * s2.qL * f2
    qC = s1.qC * f1 + sign * s2.qC * f2

    coset = _intersect_cosets(*s1.support, *s2.support)
    if coset is None:
        return GaussCoeff.zero()
    k, d = coset
    N = s1.domain.N
    M = N * den
    # substitute r = d + k*sigma
    A_s = qA * k * k
    B_s = (qA * d + qL) * k
    C_s = qA * d * d + 2 * qL * d + qC
    # one period of the sigma-summand: T|A|/gcd(A, B) quasi-period blocks
    # (T = M/|A|), so that blocks which do not telescope within it give the
    # full-domain value, zero, and the kernel checks the period before it
    # reads that zero; the whole coset when the phase is constant
    if A_s:
        window = math.lcm(M, A_s) // math.gcd(A_s, B_s)
    else:
        window = N // k if B_s % M == 0 else M // math.gcd(M, B_s)
    value = quadratic_window_sum(A_s, B_s, C_s, M, window, s1.domain.tag, mode, params)
    if value.is_zero():
        return value
    if window > N // k:
        raise NonGaussianSum("period exceeds the domain; no reduced window")
    return s1.coeff * (s2.coeff.conj() if kind == "Hermitian" else s2.coeff) * value


def _check_domains(d1: Domain, d2: Domain) -> None:
    if d1 != d2:
        raise DomainMismatch(f"states on different domains: {d1.tag}/{d2.tag}")


def norm_squared(params: Params, s) -> GaussCoeff:
    """Hermitian self-pairing in extended mode (the tame sum over the coset)."""
    return inner(params, s, s, "Hermitian", "extended")


# -- operator application and composition ------------------------------------


def _summed_guard(k: int, v: tuple, y: int) -> tuple:
    """The support congruence k | v . x, oriented with v[y] = -1 when v[y] = 1:
    the coset of x_y is then the remainder of the guard, today's canonical
    representative in the lifted GaussState/GaussOperator fields."""
    return (k, tuple(-c for c in v) if v[y] == 1 else v)


def apply_operator(params: Params, op: GaussOperator, s) -> GaussState:
    """Sum the kernel against the state over the whole input domain;
    Gauss summation yields the image ket, its support coset solving the
    divisibility condition of the closed form."""
    if isinstance(s, PositionState):
        if s.domain != op.domain_in:
            raise DomainMismatch("operator input domain mismatch")
        k, aq, ar, dd = op.support
        sol = solve_congruence(ar, dd - aq * s.r, k)
        if sol is None:
            return zero_state(op.domain_out)
        step, base = sol
        if op.domain_out.N % step:
            raise NonGaussianSum("kernel coset incompatible with the domain")
        return GaussState(
            op.coeff,
            op.kC,
            op.kB * s.r + op.kE,
            op.kA * s.r * s.r + 2 * op.kD * s.r,
            op.domain_out,
            den=op.den,
            support=(step, base),
        )
    if not isinstance(s, GaussState):
        raise ArithError(f"cannot apply operator to {type(s).__name__}")
    if s.domain != op.domain_in:
        raise DomainMismatch("operator input domain mismatch")
    if s.is_zero() or op.is_zero():
        return zero_state(op.domain_out)

    N = s.domain.N
    den = math.lcm(s.den, op.den)
    fs, fo = den // s.den, den // op.den
    # phase over (q, r, 1), q summed
    Q = [
        [s.qA * fs + op.kA * fo, 2 * op.kB * fo, 2 * (s.qL * fs + op.kD * fo)],
        [0, op.kC * fo, 2 * op.kE * fo],
        [0, 0, s.qC * fs],
    ]
    ks, ds = s.support
    ko, aq, ar, do = op.support
    guards = [(ks, (-1, 0, ds)), _summed_guard(ko, (aq, ar, -do), 0)]
    res = gauss_sum(Q, 0, [g for g in guards if g[0] > 1], N, N * den, s.domain.tag, params=params)
    if res.coeff.is_zero():
        return zero_state(op.domain_out)
    support = (1, 0)
    for k, v in res.guards + ((res.guard,) if res.guard else ()):
        sol = solve_congruence(v[1], -v[2], k)
        if sol is None:
            return zero_state(op.domain_out)
        if N % sol[0]:
            raise NonGaussianSum("image coset incompatible with the domain")
        support = _intersect_cosets(*support, *sol)
        if support is None:
            return zero_state(op.domain_out)
    R = res.Q
    return GaussState(
        s.coeff * op.coeff * res.coeff, R[1][1], R[1][2] // 2, R[2][2], op.domain_out,
        den=res.M // N, support=support,
    )


def compose(params: Params, op1: GaussOperator, op2: GaussOperator) -> GaussOperator:
    """op1 after op2: kernel(q, r) = sum_m k2(q, m) k1(m, r), Gauss-summed
    over the intermediate variable.  The composed support is the finest of
    the divisibility guard and the two supports restricted to the summed
    coset; it must imply the others (a single pair congruence)."""
    if op1.domain_in != op2.domain_out:
        raise DomainMismatch("compose: op1 input must match op2 output")
    dom_in, dom_out = op2.domain_in, op1.domain_out
    zero = GaussOperator(GaussCoeff.zero(), 0, 0, 0, dom_in, dom_out)
    if op1.is_zero() or op2.is_zero():
        return zero
    N = op1.domain_in.N
    tag = op1.domain_in.tag
    den = math.lcm(op1.den, op2.den)
    f1, f2 = den // op1.den, den // op2.den
    # phase over (q, m, r, 1), m summed
    Q = [
        [op2.kA * f2, 2 * op2.kB * f2, 0, 2 * op2.kD * f2],
        [0, op2.kC * f2 + op1.kA * f1, 2 * op1.kB * f1, 2 * (op2.kE * f2 + op1.kD * f1)],
        [0, 0, op1.kC * f1, 2 * op1.kE * f1],
        [0, 0, 0, 0],
    ]
    k1, aq1, ar1, d1 = op1.support
    k2, aq2, ar2, d2 = op2.support
    supports = [(k1, (0, aq1, ar1, -d1)), (k2, (aq2, ar2, 0, -d2))]
    res = gauss_sum(Q, 1, [_summed_guard(k, v, 1) for k, v in supports if k > 1], N, N * den, tag,
                    params=params)
    if res.coeff.is_zero():
        return zero
    # each support restricted to the summed coset m = base (mod a step that
    # the support moduli divide): trivial for the one the sum followed
    cosets = ([res.guard] if res.guard else []) + [
        (k, [c + v[1] * b for c, b in zip(v, res.base)]) for k, v in supports
    ]
    pairs = []
    for k, v in cosets:
        c = math.gcd(k, v[0], v[2], v[3])
        if k > c:
            pairs.append((k // c, [v[0] // c, 0, v[2] // c, v[3] // c]))
    support = (1, 0, 0, 0)
    for k, v in pairs:
        if all(divides_on_guards(kc, vc, [(k, v)]) for kc, vc in pairs):
            support = (k, v[0] % k, v[2] % k, -v[3] % k)
            break
    else:
        if pairs:
            raise NonGaussianSum("pair cosets outside the single-congruence fragment")
    R = res.Q
    dd = res.M // N
    coeff = op1.coeff * op2.coeff * res.coeff * GaussCoeff.phase_of(Fraction(R[3][3], 2 * N * dd), tag)
    return GaussOperator(
        coeff, R[0][0], R[0][2] // 2, R[2][2], dom_in, dom_out,
        kD=R[0][3] // 2, kE=R[2][3] // 2, den=dd, support=support,
        unitary=op1.unitary and op2.unitary,
    )


# -- unitarity -----------------------------------------------------------------


@dataclass
class UnitarityReport:
    ok: bool
    column_failures: list
    pairing_failures: list


def check_unitary(params: Params, op: GaussOperator) -> UnitarityReport:
    """Hermitian unitarity, literally: the Gram matrix
    G[q, q'] = <A u[q] | A u[q']> = sum_r kernel(q, r) conj(kernel(q', r))
    over every pair of inputs, as the exact product of the dense kernel
    blocks (N_in x N_out residues; every caller runs at N <= N_v).  A
    column q fails where G[q, q] != 1, a pair q != q' where G[q, q'] != 0."""
    p = params.p
    q = op.domain_in.index_vector()
    r = op.domain_out.index_vector()
    K = op.kernel_block(params, q[:, None], r[None, :])
    Kc = op.kernel_block(params, q[:, None], r[None, :], conjugate=True)
    # int64 partial sums of at most `step` products below p^2 stay below 2^63
    step = len(r) if K.dtype == object else max(1, (2**63 - 1) // (p - 1) ** 2)
    G = np.zeros((len(q), len(q)), dtype=K.dtype)
    for lo in range(0, len(r), step):
        G = (G + K[:, lo:lo + step] @ Kc[:, lo:lo + step].T % p) % p
    idx = q.tolist()
    col_fail = [(a, g) for a, g in zip(idx, G.diagonal().tolist()) if g != 1]
    np.fill_diagonal(G, 0)
    pair_fail = [(idx[i], idx[j], int(G[i, j]), 0) for i, j in zip(*np.nonzero(G))]
    return UnitarityReport(not col_fail and not pair_fail, col_fail, pair_fail)


# -- restriction, permutation, tensor -------------------------------------------


def restrict(params: Params, s: GaussState, k: int, d: int = 0) -> GaussState:
    """Coordinates outside kZ + d zeroed, coefficient renormalised by sqrt(k)."""
    if k < 1 or s.domain.N % k:
        raise BadCoset(f"restriction step {k} must divide N={s.domain.N}")
    if k == 1:
        return s
    coset = _intersect_cosets(*s.support, k, d % k)
    if coset is None:
        return zero_state(s.domain)
    return replace(s, coeff=s.coeff * GaussCoeff.sqrt(k), support=coset)


def permutation_unitary(params: Params, sigma, s):
    """psi^sigma(r) = psi(sigma(r)).  Position states stay symbolic; Gaussian
    states come back as dense oracles (a permuted Gaussian is generally not
    a Gaussian ket)."""
    domain = s.domain
    rng = list(domain.index_range())
    image = {r: domain.wrap(sigma(r)) for r in rng}
    if len(set(image.values())) != len(rng):
        raise ArithError("sigma is not a bijection of the domain")
    if isinstance(s, PositionState):
        inv = {v: k for k, v in image.items()}
        return PositionState(inv[s.r], domain)
    dense = DenseState.from_state(params, s)
    return dense.permute(image)


@dataclass(frozen=True)
class TensorState:
    factors: tuple

    def __post_init__(self) -> None:
        doms = {f.domain for f in self.factors}
        if len(doms) > 1:
            raise DomainMismatch("tensor factors must share a domain")
        if not (1 <= len(self.factors) <= 4):
            raise ArithError("tensor arity must be between 1 and 4")


def tensor(states) -> TensorState:
    return TensorState(tuple(states))


def tensor_inner(params: Params, t1: TensorState, t2: TensorState, kind: str = "Hermitian") -> GaussCoeff:
    """Separable pairing: the product of componentwise inner products."""
    if len(t1.factors) != len(t2.factors):
        raise ArithError("tensor arity mismatch")
    out = GaussCoeff.one()
    for f1, f2 in zip(t1.factors, t2.factors):
        out = out * inner(params, f1, f2, kind)
    return out


# -- brute-force oracle --------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DenseState:
    """Coordinate vector of F_p residues; the brute-force side of every check.
    `vec` holds the residues in index_range() order (dtype
    ``exact_dtype(p)``).  Conjugation is symbolic, so conjugated vectors are
    built at construction (``conjugate=True``), not derived from residues."""

    domain: Domain
    vec: np.ndarray

    @cached_property
    def coords(self):
        """The read-only mapping r -> residue (a Python int) over index_range()."""
        return MappingProxyType(dict(zip(self.domain.index_range(), self.vec.tolist())))

    @classmethod
    def from_state(cls, params: Params, s, conjugate: bool = False) -> "DenseState":
        """The coordinates of s (to_fp of s.coordinate(r), or of its conj()),
        raising what those would raise."""
        domain = s.domain
        N = domain.N
        if isinstance(s, PositionState):
            vec = np.zeros(N, dtype=exact_dtype(params.p))
            vec[s.r + N // 2] = 1
            return cls(domain, vec)
        r = domain.index_vector()
        k, d = s.support
        m = 2 * N * s.den
        num = poly_mod(m, [(s.qA, r, r), (2 * s.qL, r), (s.qC,)])
        on = poly_mod(k, [(1, r), (-d,)]) == 0
        return cls(domain, to_fp_phases(params, s.coeff, domain.tag, m, num, on, conjugate))

    def permute(self, image: dict) -> "DenseState":
        half = self.domain.N // 2
        return DenseState(self.domain, self.vec[[image[r] + half for r in self.domain.index_range()]])

    def pair_full(self, params: Params, other: "DenseState") -> int:
        """sum_r phi(r) * psi(r); conjugate `other` at construction for the
        Hermitian pairing."""
        p = params.p
        return int((self.vec * other.vec % p).sum()) % p


def apply_dense(params: Params, op: GaussOperator, dense: DenseState, conjugate_kernel: bool = False) -> DenseState:
    """Literal matrix action out[r] = sum_q dense[q] kernel(q, r) over the
    nonzero inputs, the kernel residues in blocks of output rows of at most
    BLOCK entries (r-major, the order of the elementwise sum)."""
    p = params.p
    nonzero = np.flatnonzero(dense.vec)
    q = dense.domain.index_vector()[nonzero]
    v = dense.vec[nonzero]
    r = op.domain_out.index_vector()
    out = np.zeros(len(r), dtype=exact_dtype(p))
    rows = max(1, BLOCK // max(len(q), 1))
    for lo in range(0, len(r), rows):
        K = op.kernel_block(params, q[None, :], r[lo:lo + rows, None], conjugate_kernel)
        out[lo:lo + rows] = (K * v % p).sum(axis=1) % p
    return DenseState(op.domain_out, out)
