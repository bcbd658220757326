"""Gauss quadratic sums: brute-force backends and exact closed forms.

The working identity, for integer a != 0, b with 4|a| dividing M and a
2M-th root of unity available (2M | p-1):

    sum_{0 < n <= M} e((a n^2 + 2 b n) / 2M)
        = sqrt(|a| M) * e(sign(a)/8) * e(-b^2 / 2aM)   if a | b
        = 0                                            otherwise

Sums here run over the *full* window of M consecutive integers.  The
summand has quasi-period T = M/|a| with block factor e(b/|a|); over |a|
consecutive blocks the factors telescope, which is what makes the
"0 otherwise" case true (a single block generally does not vanish when
a does not divide b).  Closed forms therefore carry the block
multiplicity |a| relative to the one-period normalisation: |a| *
sqrt(M/|a|) = sqrt(|a| M).

For a = 0 the sum is the plain character sum: M when M | b, else 0
("extended" mode).  "strict" mode reproduces the declared-zero
convention for a = 0.

Every symbolic quantity of the calculus (a ket pairing, an operator
applied to a ket, two kernels composed, an eliminated quantifier) is such
a sum, evaluated by one kernel, `gauss_sum`: complete the square in the
summed variable over its coset window.  Its phase numerator is a
quadratic form in positional variables x_0 .. x_{n-1}, held as an
upper-triangular (n+1) x (n+1) integer matrix Q whose last index stands
for the constant 1, x^T Q x = sum_{i <= j} Q[i][j] x_i x_j; a guard
(k, v) is the congruence k | v . x over the same positions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .arith import ArithError, Params, poly_mod
from .coeffring import GaussCoeff


class PreconditionViolation(ArithError):
    pass


class NonGaussianSum(ArithError):
    """Window/coefficient combination outside the closed-form fragment."""


@dataclass(frozen=True)
class GaussSumSpec:
    a: int
    b: int
    M: int
    domain: str = "V"
    backend: str = "Fp"

    def __post_init__(self) -> None:
        if self.M < 1:
            raise PreconditionViolation("modulus M must be positive")
        if self.a and self.M % (4 * abs(self.a)):
            raise PreconditionViolation("need 4|a| dividing M")
        if self.domain not in ("U", "V"):
            raise PreconditionViolation("domain must be 'U' or 'V'")
        if self.backend not in ("Fp", "Complex"):
            raise PreconditionViolation("backend must be 'Fp' or 'Complex'")


def _brute_fp(params: Params, a: int, b: int, M: int, chunks: int = 1) -> int:
    """sum_{0<n<=M} xi_2M^(a n^2 + 2 b n), one power sum per chunk, chunked
    associative reduction (bit-identical for any partitioning)."""
    bounds = [M * k // max(chunks, 1) for k in range(max(chunks, 1) + 1)]
    return sum(params.power_sum(2 * M, a, b, lo, hi) for lo, hi in zip(bounds, bounds[1:])) % params.p


def _brute_complex(a: int, b: int, M: int) -> complex:
    """Same sum with zeta = e^{i pi / M}: the angles as one numpy vector,
    the real and imaginary parts of the terms summed by math.fsum.  fsum
    rounds each exact sum once, so the result does not depend on how the
    window is split."""
    n = np.arange(1, M + 1)
    theta = np.pi * poly_mod(2 * M, [(a, n, n), (2 * b, n)]) / M
    return complex(math.fsum(np.cos(theta).tolist()), math.fsum(np.sin(theta).tolist()))


def gauss_brute(params: Params, spec: GaussSumSpec, chunks: int = 1):
    """Literal evaluation of the full-window sum in the requested backend;
    `chunks` splits the F_p sum (the complex sum is split-invariant)."""
    if spec.backend == "Fp":
        return _brute_fp(params, spec.a, spec.b, spec.M, chunks)
    return _brute_complex(spec.a, spec.b, spec.M)


def sqrt_with_scale(value: int, domain: str, params: Params | None, c=1, e8: int = 0) -> GaussCoeff:
    """c * sqrt(value) * e8^e8 as one GaussCoeff; on the U scale the single
    factor of i = N_u/N_v carried by the domain size is extracted
    symbolically as the generator j (sqrt(N_u) = m * j).  Exactly one
    factor: the scale ratio appears once in sqrt(N_u/|A| * den); any
    remaining numeric coincidence with i stays numeric."""
    if domain == "U" and params is not None and value % params.i == 0:
        return GaussCoeff(Fraction(c), value // params.i, 1, e8)
    return GaussCoeff(Fraction(c), value, 0, e8)


def gauss_closed(
    spec: GaussSumSpec, mode: str = "extended", params: Params | None = None
) -> GaussCoeff:
    """Closed form of the full-window sum as a normal-form coefficient."""
    a, b, M = spec.a, spec.b, spec.M
    if a == 0:
        if mode == "strict":
            return GaussCoeff.zero()
        if b % M == 0:
            return GaussCoeff.rational(M)
        return GaussCoeff.zero()
    if b % a:
        return GaussCoeff.zero()
    out = sqrt_with_scale(abs(a) * M, spec.domain, params, e8=1 if a > 0 else -1)
    return out * GaussCoeff.phase_of(Fraction(-b * b, 2 * a * M), spec.domain)


# -- the statistical-mechanics one-period sum ---------------------------------


def sm_brute(params: Params, a: int) -> int:
    """(1/m) * sum over the a-sublattice of V_u of e(a n^2 / 2 N_u), in F_p.

    One period (N_u/a terms).  The positive-quadratic reading is the one
    that reproduces the closed form e(1/8) * j / sqrt(a); see gauss_closed_sm.
    """
    if a < 1 or params.N_u % a:
        raise PreconditionViolation("need a >= 1 dividing N_u")
    p = params.p
    return params.power_sum(2 * params.N_u, a, 0, 0, params.N_u // a) * pow(params.m, -1, p) % p


def gauss_closed_sm(params: Params, a: int) -> GaussCoeff:
    """Closed form of sm_brute: e(1/8) * j * sqrt(1/a).

    Exact in F_p: (1/m) * e(1/8) sqrt(N_u/a) = e(1/8) * (m j / (m sqrt(a)))
    = e(1/8) j / sqrt(a).  Under the limit map j |-> e^{i pi/4} and
    e8 |-> e^{-i pi/4} pair to the real value 1/sqrt(a).
    """
    if a < 1 or params.N_u % (4 * a):
        raise PreconditionViolation("need a >= 1 with 4a dividing N_u")
    return (
        GaussCoeff.e8_power(1)
        * GaussCoeff.j_power(1)
        * GaussCoeff.sqrt(Fraction(1, a))
    )


# -- the summation kernel ---------------------------------------------------------

_ZERO = GaussCoeff.zero()
_ONE = GaussCoeff.one()


class GaussSum(NamedTuple):
    """The sum over x_y: coeff * e(x^T Q x / 2M), with x_y eliminated (its
    row and column of Q are zero), nonzero only where the guards hold.

    `guards` are the input guards that do not mention x_y followed by those
    the coset merge left over; `guard` is the new divisibility condition on
    the other variables (None when it always holds).  `base` is the coset
    representative x_y = base . x the sum substituted."""

    coeff: GaussCoeff
    Q: list
    M: int
    guards: tuple
    guard: tuple | None
    base: list


def gauss_sum(Q, y: int, guards, N: int, M: int, domain: str, mode: str = "extended",
              params: Params | None = None) -> GaussSum:
    """Sum e(x^T Q x / 2M) over N consecutive values of x_y where the guards
    hold, in closed form.  Raises NonGaussianSum outside the fragment.

    1. Coset.  The guards on x_y resolve into x_y = base . x + step * sigma
       (CRT for coprime moduli; a nested guard leaves a residual guard on
       the other variables); the window in sigma is W = N / step.
    2. Completing the square.  With the substitution the phase reads
       (A sigma^2 + 2 L.x sigma + R(x)) / 2M, and:

       * geometric (A = 0): W * e(R / 2M), nonzero iff M | L.x.  The window
         must telescope, M | W * L.x; "strict" mode declares it zero.
       * pinned (W = 1, A != 0): the single term e(R / 2M); needs the phase
         to be N-periodic in x_y (M = N, N even, and even linear
         coefficients of x_y before the substitution).
       * quadratic: period T = M/|A| with 4 | T and T | W, multiplicity
         mult = W/T; mult * sqrt(T) * e8^sign(A) * e((|A| R - sign(A) (L.x)^2)
         / 2M|A|) (numerator and denominator divided by gcd(step, L)^2),
         nonzero iff |A| | L.x.  The mult blocks must telescope
         where that fails: |A| | mult * L.x.

       The telescoping conditions hold coefficient-wise or on the coset of
       one of the remaining guards (on-coset divisibility).  A divisibility
       guard that no x satisfies makes the sum zero (telescoped-zero), and
       outside the fragment the sum is still zero when a remaining guard
       never holds (say, two inconsistent guards on x_y).
    """
    if N < 1:
        raise NonGaussianSum("empty summation window")
    step, base, kept = _guard_coset(guards, y, len(Q))

    def refuse(reason: str) -> GaussSum:
        # a remaining guard that never holds makes the sum zero, closed form or not
        if any(v[-1] % math.gcd(k, *v[:-1]) for k, v in kept):
            return GaussSum(_ZERO, Q, M, kept, None, base)
        raise NonGaussianSum(reason)

    if N % step:
        return refuse(f"guard coset step {step} does not divide the window {N}")
    W = N // step
    A0 = Q[y][y]
    A = A0 * step * step
    aa = abs(A)
    if A and W > 1:
        if M % aa:
            return refuse(f"period M/|A| not integral (A={A}, M={M})")
        T = M // aa
        if T % 4:
            return refuse(f"period {T} not divisible by 4 (A={A}, M={M})")
        if W % T:
            return refuse(f"window {W} not a multiple of the period {T}")
    # Q = A0 x_y^2 + x_y (ell . x) + R(x), then x_y = base . x + step * sigma
    n1 = len(Q)
    ell = [Q[j][y] for j in range(y)] + [0] + Q[y][y + 1:]
    R = [row[:] for row in Q]
    for row in R:
        row[y] = 0
    R[y] = [0] * n1
    periodic = not any(e % 2 for e in ell)
    if step > 1 or any(base):
        _add_product(R, base, base, A0)
        _add_product(R, base, ell)
        ell = [step * (2 * A0 * b + e) for b, e in zip(base, ell)]
    if any(e % 2 for e in ell):
        return refuse("odd linear coefficient of a quantified variable")
    L = [e // 2 for e in ell]
    if A == 0:
        if mode == "strict":
            return GaussSum(_ZERO, R, M, kept, None, base)
        if not divides_on_guards(M // math.gcd(M, W), L, kept):
            return refuse("geometric sum does not telescope over the window")
        k = M
    elif W == 1:
        if M != N or N % 2 or not periodic:
            return refuse(f"pinned phase not N-periodic in the summed variable (M={M}, N={N})")
        return GaussSum(_ONE, R, M, kept, None, base)
    else:
        mult = W // T
        if not divides_on_guards(aa // math.gcd(aa, mult), L, kept):
            return refuse(f"quadratic sum does not telescope over {mult} blocks")
        k = aa
    free = math.gcd(*L[:-1])
    if L[-1] % math.gcd(k, free):
        return GaussSum(_ZERO, R, M, kept, None, base)
    guard = (k, L) if free and k > 1 else None
    if A == 0:
        return GaussSum(GaussCoeff.rational(W), R, M, kept, guard, base)
    sgn = 1 if A > 0 else -1
    # complete the square in units of t = gcd(step, L): (|A|/t^2) R - sign(A) (L/t . x)^2
    t = math.gcd(step, *L)
    a1 = aa // (t * t)
    for row in R:
        row[:] = [a1 * c for c in row]
    _add_product(R, [l // t for l in L], [l // t for l in L], -sgn)
    coeff = sqrt_with_scale(T, domain, params, mult, sgn)
    return GaussSum(coeff, R, M * a1, kept, guard, base)


def _add_product(R, u, v, scale: int = 1) -> None:
    """R += scale * (u . x)(v . x), on the upper triangle."""
    n1 = len(R)
    for i in range(n1):
        if u[i] or v[i]:
            row = R[i]
            row[i] += scale * u[i] * v[i]
            for j in range(i + 1, n1):
                row[j] += scale * (u[i] * v[j] + u[j] * v[i])


def _guard_coset(guards, y: int, n1: int):
    """Consume the guards on x_y into one coset x_y = base . x + step * Z.

    A guard a x_y + rest . x = 0 (mod k) whose gcd(a, k) divides `rest`
    coefficient-wise restricts x_y to a coset.  Cosets with coprime steps
    merge by CRT; nested ones keep the finer step and leave the other
    congruence, base - new base, as a residual guard.  A guard failing the
    gcd test waits for the merged coset: where a * step = 0 (mod k) it
    becomes the residual guard rest + a * base on the other variables;
    otherwise it branches pointwise and leaves the fragment."""
    step, base, kept, deferred = 1, [0] * n1, [], []
    if not guards:
        return step, base, ()
    for k, v in guards:
        a = v[y]
        if a == 0:
            kept.append((k, v))
            continue
        g = math.gcd(a, k)
        rest = [0 if i == y else c for i, c in enumerate(v)]
        if any(c % g for c in rest):
            deferred.append((k, a, rest))
            continue
        a, k = a // g, k // g
        if k == 1:
            continue
        m = -pow(a, -1, k) % k
        new = [c // g * m for c in rest]
        if step == 1:
            base, step = new, k
        elif math.gcd(step, k) == 1:
            u1, u2 = k * pow(k, -1, step), step * pow(step, -1, k)
            base = [b * u1 + c * u2 for b, c in zip(base, new)]
            step *= k
        elif step % k == 0:
            kept.append((k, [b - c for b, c in zip(base, new)]))
        elif k % step == 0:
            kept.append((step, [b - c for b, c in zip(base, new)]))
            base, step = new, k
        else:
            raise NonGaussianSum(f"incomparable guard cosets (steps {step} and {k})")
    for k, a, rest in deferred:
        if a * step % k:
            raise NonGaussianSum("guard gcd does not divide the free part")
        kept.append((k, [c + a * b for c, b in zip(rest, base)]))
    return step, base, tuple(kept)


def divides_on_guards(D: int, L, guards) -> bool:
    """Sufficient test that D | L . x for every x satisfying one of the
    guards: L = 0 (mod D) coefficient-wise, or L = mu v (mod D) with
    D | mu k for a guard (k, v) reduced to coprime content."""
    if all(c % D == 0 for c in L):
        return True
    for k, v in guards:
        c = math.gcd(k, *v)
        k, v = k // c, [x // c for x in v]
        g = math.gcd(D, k)
        for mu in range(0, D, D // g):
            if all((l - mu * x) % D == 0 for l, x in zip(L, v)):
                return True
    return False


def quadratic_window_sum(
    A: int,
    B: int,
    C: int,
    M: int,
    window: int,
    domain: str,
    mode: str = "extended",
    params: Params | None = None,
) -> GaussCoeff:
    """Exact closed form for sums of e((A x^2 + 2 B x + C)/2M) over any
    `window` consecutive integers: the kernel's case with no free
    variables.  Raises NonGaussianSum outside the fragment (a window that
    is not a whole number of quasi-periods, or blocks that do not
    telescope)."""
    res = gauss_sum([[A, 2 * B], [0, C]], 0, (), window, M, domain, mode, params)
    if res.coeff.is_zero():
        return res.coeff
    return res.coeff * GaussCoeff.phase_of(Fraction(res.Q[1][1], 2 * res.M), domain)
