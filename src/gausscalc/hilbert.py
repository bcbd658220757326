"""Gaussian Hilbert space over a finite domain.

States are kept symbolic: a Gaussian ket is a coefficient together with an
integer quadratic phase (qA r^2 + 2 qL r + qC) / (2 N den) and a support
coset k Z + d outside which the coordinates vanish.  Operators carry a
quadratic kernel in (input q, output r) plus linear terms and a support
of the summation kernel's own guards (k, (aq, ar, c)), each the
congruence k | aq*q + ar*r + c.  Nothing is materialised as a
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
  domain, so closed forms carry the block multiplicity.  Each writes one
  ``gauss.Term``: the product of the coefficients, the combined phase as
  one quadratic-form literal over (input, summed, output) indices and the
  supports as guards on them (an operator's support over (q, r, 1) as it
  stands); the kernel's result carries the image's coefficient and phase,
  and its guards become the image support.

Denominators introduced by operator images (phases over 2tN and the like)
are tracked in ``den``; support cosets fall out of the divisibility case
of the Gauss summation formula.  One route turns guards into a state's
coset, ``_support_coset`` on ``gauss._guard_coset``: ``inner`` passes
both supports to it as guards (k, (-1, d)), and ``apply_operator`` the
guards left on the output index.  An operator acts on one domain
(``domain_in == domain_out``), so the image shares the input's N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .arith import (
    BLOCK,
    ArithError,
    DomainMismatch,
    Params,
    exact_dtype,
    poly_mod,
    ratio_phase,
    require_int,
)
from .coeffring import GaussCoeff, parse_coeff, to_fp_phases
from .coeffring import unit_normalization as coeff_unit
from .gauss import NonGaussianSum, Term, _guard_coset, divides_on_guards, gauss_sum, never_holds
from .gauss import quadratic_window_sum


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


def _support_coset(guards, y: int, N: int) -> tuple[int, int] | None:
    """The coset k Z + d of x_y on which every guard (k, v) over
    (x_0 .. x_y, 1) holds (`gauss._guard_coset`): the one route from guards
    to a state's support.  None when some guard never holds;
    NonGaussianSum when k does not divide the domain size N."""
    step, base, kept = _guard_coset(guards, y, y + 2)
    if never_holds(kept):
        return None
    if N % step:
        raise NonGaussianSum("image coset incompatible with the domain")
    return step, base[-1] % step


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
        if g > 1:
            object.__setattr__(self, "qA", self.qA // g)
            object.__setattr__(self, "qL", self.qL // g)
            object.__setattr__(self, "qC", self.qC // g)
            object.__setattr__(self, "den", self.den // g)

    def is_zero(self) -> bool:
        return self.coeff.is_zero()

    def coordinate(self, r: int) -> GaussCoeff:
        r = self.domain.wrap(r)
        k, d = self.support
        if self.is_zero() or (r - d) % k:
            return GaussCoeff.zero()
        c = self.coeff
        phase = ratio_phase(self.qA * r * r + 2 * self.qL * r + self.qC, 2 * self.domain.N * self.den,
                            self.domain.tag)
        return c.with_phase(c.phase + phase)

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


def gauss_ket(params: Params, domain: Domain, form: QuadForm, p_param: int = 0) -> GaussState:
    """The normalised ket with coordinates (1/sqrt(N)) e(f(r, p)/2N),
    f = A r^2 + 2B r p + C p^2."""
    if not form.admissible:
        raise InadmissibleForm(f"form {form} needs A <= 0 and C <= 0")
    return GaussState(
        unit_normalization(params, domain),
        form.A,
        form.B * p_param,
        form.C * p_param * p_param,
        domain,
    )


def domain_of(params: Params, tag: str) -> Domain:
    """The V or U domain of `params` by its tag; ArithError for any other."""
    return Domain(tag, params.N_v if tag == "V" else params.N_u)


def _int_list(x, n: int, what: str) -> tuple[int, ...]:
    if not isinstance(x, list) or len(x) != n:
        raise ArithError(f"state descriptor field {what!r} must be a list of {n} integers")
    return tuple(require_int(v, f"state descriptor field {what!r}") for v in x)


MAX_DEN = 10**6  # the largest den a state descriptor may give
_DESCRIPTOR_FIELDS = ("domain", "coeff", "form", "p_param", "den", "support")  # what to_descriptor writes


def state_from_descriptor(params: Params, d: dict) -> GaussState:
    """The state of a descriptor in the shape ``GaussState.to_descriptor``
    writes: an object with a domain 'U' or 'V', a coefficient string, an
    integer form [A, L, C] and optional integer p_param, den and support
    [k, d]; ArithError for any other shape or field, and for a den above
    MAX_DEN: `inner` factors a period of up to N lcm(den1, den2) by trial
    division, which for two primes near MAX_DEN runs to about MAX_DEN."""
    if not isinstance(d, dict):
        raise ArithError("a state descriptor must be an object")
    for key in d:
        if key not in _DESCRIPTOR_FIELDS:
            raise ArithError(f"state descriptor has no field {key!r}")
    for key in ("domain", "coeff", "form"):
        if key not in d:
            raise ArithError(f"state descriptor lacks {key!r}")
    domain = domain_of(params, d["domain"])
    if not isinstance(d["coeff"], str):
        raise ArithError("state descriptor field 'coeff' must be a string")
    qa, ql, qc = _int_list(d["form"], 3, "form")
    pp = require_int(d.get("p_param", 1), "state descriptor field 'p_param'")
    den = require_int(d.get("den", 1), "state descriptor field 'den'")
    if den > MAX_DEN:
        raise ArithError(f"state descriptor field 'den' exceeds {MAX_DEN}, got {den}")
    return GaussState(
        parse_coeff(d["coeff"]),
        qa,
        ql * pp,
        qc * pp * pp,
        domain,
        den=den,
        support=_int_list(d.get("support", [1, 0]), 2, "support"),  # type: ignore[arg-type]
    )


def _wraps(guard, domain: Domain) -> bool:
    """Whether the guard (k, (aq, ar, c)) is well-defined under index
    wraparound mod N: k divides aq*N and ar*N."""
    k, (aq, ar, _) = guard
    return (aq * domain.N) % k == 0 and (ar * domain.N) % k == 0


@dataclass(frozen=True)
class GaussOperator:
    """u[q] |-> coeff * sum_r e(alpha(q, r)/(2 N den)) u[r] where every
    guard (k, (aq, ar, c)) of the support holds, k | aq*q + ar*r + c, with

        alpha(q, r) = kA q^2 + 2 kB q r + kC r^2 + 2 kD q + 2 kE r.

    An operator acts on one domain: domain_in and domain_out must be
    equal (DomainMismatch otherwise), so q, r and the image share one N.
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
    support: tuple = ()  # guards (k, (aq, ar, c))

    def __post_init__(self) -> None:
        if self.domain_in != self.domain_out:
            raise DomainMismatch(f"operator domains differ: {self.domain_in.tag}/{self.domain_out.tag}")
        for guard in self.support:
            if guard[0] < 1:
                raise BadCoset("support modulus must be positive")
            if not _wraps(guard, self.domain_in):
                raise BadCoset("support coset not compatible with the domain period")

    def is_zero(self) -> bool:
        return self.coeff.is_zero()

    def on_support(self, q: int, r: int) -> bool:
        for k, (aq, ar, c) in self.support:
            if (aq * q + ar * r + c) % k:
                return False
        return True

    def kernel_value(self, q: int, r: int) -> GaussCoeff:
        c = self.coeff
        if c.is_zero() or not self.on_support(q, r):
            return GaussCoeff.zero()
        num = (self.kA * q + 2 * (self.kB * r + self.kD)) * q + (self.kC * r + 2 * self.kE) * r
        return c.with_phase(c.phase + ratio_phase(num, 2 * self.domain_in.N * self.den, self.domain_in.tag))

    def kernel_block(self, params: Params, q, r, conjugate: bool = False) -> np.ndarray:
        """to_fp(kernel_value(q, r)), or of its conj(), elementwise over the
        broadcast of the index arrays (or ints) q and r; raises what
        kernel_value and to_fp raise, for the first element in C order at
        which they would."""
        m = 2 * self.domain_in.N * self.den
        num = poly_mod(m, [(self.kA, q, q), (2 * self.kB, q, r), (self.kC, r, r),
                           (2 * self.kD, q), (2 * self.kE, r)])
        on = True
        for k, (aq, ar, c) in self.support:
            on = on & (poly_mod(k, [(aq, q), (ar, r), (c,)]) == 0)
        return to_fp_phases(params, self.coeff, self.domain_in.tag, m, num, on, conjugate)


def identity_operator(domain: Domain) -> GaussOperator:
    return GaussOperator(
        GaussCoeff.one(), 0, 0, 0, domain, domain,
        support=((domain.N, (1, -1, 0)),),
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
    if mode not in ("extended", "strict"):
        raise ArithError(f"mode must be 'extended' or 'strict', got {mode!r}")
    if s1.domain != s2.domain:
        raise DomainMismatch(f"states on different domains: {s1.domain.tag}/{s2.domain.tag}")
    if isinstance(s1, PositionState) and isinstance(s2, PositionState):
        return GaussCoeff.one() if s1.r == s2.r else GaussCoeff.zero()
    if isinstance(s1, GaussState) and isinstance(s2, PositionState):
        return s1.coordinate(s2.r)
    if isinstance(s1, PositionState) and isinstance(s2, GaussState):
        val = s2.coordinate(s1.r)
        return val.conj() if kind == "Hermitian" else val
    if s1.is_zero() or s2.is_zero():
        return GaussCoeff.zero()

    den = math.lcm(s1.den, s2.den)
    f1, f2 = den // s1.den, den // s2.den
    sign = -1 if kind == "Hermitian" else 1
    qA = s1.qA * f1 + sign * s2.qA * f2
    qL = s1.qL * f1 + sign * s2.qL * f2
    qC = s1.qC * f1 + sign * s2.qC * f2

    N = s1.domain.N
    # a full support (k = 1) is no guard
    coset = _support_coset([(k, (-1, d)) for k, d in (s1.support, s2.support) if k > 1], 0, N)
    if coset is None:
        return GaussCoeff.zero()
    k, d = coset
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
    value = quadratic_window_sum(A_s, B_s, C_s, M, window, s1.domain.tag, mode, params=params)
    if value.is_zero():
        return value
    if window > N // k:
        raise NonGaussianSum("period exceeds the domain; no reduced window")
    return s1.coeff * (s2.coeff.conj() if kind == "Hermitian" else s2.coeff) * value


# -- operator application and composition ------------------------------------


def apply_operator(params: Params, op: GaussOperator, s) -> GaussState:
    """Sum the kernel against the state over the whole input domain;
    Gauss summation yields the image ket, its support coset solving the
    divisibility condition of the closed form."""
    if not isinstance(s, (PositionState, GaussState)):
        raise ArithError(f"cannot apply operator to {type(s).__name__}")
    if s.domain != op.domain_in:
        raise DomainMismatch("operator input domain mismatch")
    N = s.domain.N
    if isinstance(s, PositionState):
        # the kernel row at q = s.r; its guards on r give the image coset
        coeff, den = op.coeff, op.den
        form = (op.kC, op.kB * s.r + op.kE, op.kA * s.r * s.r + 2 * op.kD * s.r)
        guards, y = [(k, (ar, aq * s.r + c)) for k, (aq, ar, c) in op.support], 0
    else:
        if s.is_zero() or op.is_zero():
            return zero_state(s.domain)
        den = math.lcm(s.den, op.den)
        fs, fo = den // s.den, den // op.den
        # phase over (q, r, 1), q summed; the support's guards are over (q, r, 1) too
        Q = [
            [s.qA * fs + op.kA * fo, 2 * op.kB * fo, 2 * (s.qL * fs + op.kD * fo)],
            [0, op.kC * fo, 2 * op.kE * fo],
            [0, 0, s.qC * fs],
        ]
        ks, ds = s.support
        term = Term(s.coeff * op.coeff, Q, N * den, ((ks, (-1, 0, ds)),) + op.support)
        res = gauss_sum(term, 0, N, s.domain.tag, "extended", params)
        # the guards on the output index (q is summed out) give its coset
        R = res.Q
        coeff, den = res.coeff, res.M // N
        form = (R[1][1], R[1][2] // 2, R[2][2])
        guards, y = res.guards, 1
    if coeff.is_zero():
        return zero_state(s.domain)
    coset = _support_coset(guards, y, N)
    if coset is None:
        return zero_state(s.domain)
    return GaussState(coeff, *form, s.domain, den=den, support=coset)


def compose(params: Params, op1: GaussOperator, op2: GaussOperator) -> GaussOperator:
    """op1 after op2: kernel(q, r) = sum_m k2(q, m) k1(m, r), Gauss-summed
    over the intermediate variable.  The composed support is the kernel's
    guards lifted onto (q, r): each divided by its content with its
    coefficients reduced mod its modulus, less those another one implies."""
    if op1.domain_in != op2.domain_out:
        raise DomainMismatch("compose: op1 input must match op2 output")
    dom = op1.domain_in
    zero = GaussOperator(GaussCoeff.zero(), 0, 0, 0, dom, dom)
    if op1.is_zero() or op2.is_zero():
        return zero
    N = dom.N
    tag = dom.tag
    den = math.lcm(op1.den, op2.den)
    f1, f2 = den // op1.den, den // op2.den
    # phase over (q, m, r, 1), m summed
    Q = [
        [op2.kA * f2, 2 * op2.kB * f2, 0, 2 * op2.kD * f2],
        [0, op2.kC * f2 + op1.kA * f1, 2 * op1.kB * f1, 2 * (op2.kE * f2 + op1.kD * f1)],
        [0, 0, op1.kC * f1, 2 * op1.kE * f1],
        [0, 0, 0, 0],
    ]
    guards = tuple((k, (0, aq, ar, c)) for k, (aq, ar, c) in op1.support)
    guards += tuple((k, (aq, ar, 0, c)) for k, (aq, ar, c) in op2.support)
    res = gauss_sum(Term(op1.coeff * op2.coeff, Q, N * den, guards), 1, N, tag, "extended", params)
    if res.coeff.is_zero():
        return zero
    lifted = []
    for k, (a, _, b, c) in res.guards:
        g = math.gcd(k, a, b, c)
        k //= g
        lifted.append((k, (a // g % k, b // g % k, c // g % k)))
    support = []
    for i, (k, v) in enumerate(lifted):
        if not any(divides_on_guards(k, v, [h]) for h in support + lifted[i + 1:]):
            support.append((k, v))
    for k, (a, b, c) in support:  # a kernel phase that is not N-periodic can lift such a guard
        if not _wraps((k, (a, b, c)), dom):
            raise NonGaussianSum(f"composed guard {k} | {a}*q + {b}*r + {c} breaks the index wraparound")
    R = res.Q
    dd = res.M // N
    coeff = res.coeff.with_phase(res.coeff.phase + ratio_phase(R[3][3], 2 * N * dd, tag))
    return GaussOperator(
        coeff, R[0][0], R[0][2] // 2, R[2][2], dom, dom,
        kD=R[0][3] // 2, kE=R[2][3] // 2, den=dd, support=tuple(support),
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

    def pair_full(self, params: Params, other: "DenseState") -> int:
        """sum_r phi(r) * psi(r); conjugate `other` at construction for the
        Hermitian pairing."""
        if self.domain != other.domain:
            raise DomainMismatch(f"states on different domains: {self.domain.tag}/{other.domain.tag}")
        p = params.p
        return int((self.vec * other.vec % p).sum()) % p


def apply_dense(params: Params, op: GaussOperator, dense: DenseState) -> DenseState:
    """Literal matrix action out[r] = sum_q dense[q] kernel(q, r) over the
    nonzero inputs, the kernel residues in blocks of output rows of at most
    BLOCK entries (r-major, the order of the elementwise sum)."""
    if dense.domain != op.domain_in:
        raise DomainMismatch("operator input domain mismatch")
    p = params.p
    nonzero = np.flatnonzero(dense.vec)
    q = dense.domain.index_vector()[nonzero]
    v = dense.vec[nonzero]
    r = op.domain_out.index_vector()
    out = np.zeros(len(r), dtype=exact_dtype(p))
    rows = max(1, BLOCK // max(len(q), 1))
    for lo in range(0, len(r), rows):
        K = op.kernel_block(params, q[None, :], r[lo:lo + rows, None])
        out[lo:lo + rows] = (K * v % p).sum(axis=1) % p
    return DenseState(op.domain_out, out)
