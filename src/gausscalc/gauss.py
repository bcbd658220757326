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
summed variable over its coset window.  Its input and its output are one
type, a `Term` coeff * e(x^T Q x / 2M) under guards: the phase numerator
is a quadratic form in positional variables x_0 .. x_{n-1}, held as an
upper-triangular (n+1) x (n+1) integer matrix Q whose last index stands
for the constant 1, x^T Q x = sum_{i <= j} Q[i][j] x_i x_j, and a guard
(k, v) is the congruence k | v . x over the same positions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .arith import ArithError, Params, poly_mod, ratio_phase, require_int, squarefree_split
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
        for name in ("a", "b", "M"):
            try:
                value = require_int(getattr(self, name), f"GaussSumSpec field {name!r}")
            except ArithError as exc:
                raise PreconditionViolation(str(exc)) from None
            object.__setattr__(self, name, value)
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
    """Same sum with zeta = e^{i pi / M}: its exact real and imaginary
    parts, each rounded once by math.fsum, so the result does not depend on
    how the window is split.  The exponents take at most 2M values, so cos
    and sin run once per occupied residue, and each term count enters fsum
    exactly (`_times_counts`): the value is that of fsum over all M terms."""
    theta, counts = _residue_angles(a, b, M)
    chain = itertools.chain.from_iterable
    return complex(math.fsum(chain(_times_counts(np.cos(theta), counts))),
                   math.fsum(chain(_times_counts(np.sin(theta), counts))))


def _residue_angles(a: int, b: int, M: int):
    """The angles pi k / M of the occupied residues k of a n^2 + 2 b n mod
    2M over 0 < n <= M, in increasing k, and the number of n at each (a
    call of its own, so that the index vector is freed before cos and sin
    run)."""
    n = np.arange(1, M + 1)
    counts = np.bincount(poly_mod(2 * M, [(a, n, n), (2 * b, n)]))
    return np.pi * np.flatnonzero(counts) / M, counts[counts != 0]


def _times_counts(v: np.ndarray, counts: np.ndarray):
    """The products counts * v as exact float parts, one list per binary
    digit i of the counts: v * 2^i is exact, so fsum over the parts is
    fsum over v[k] repeated counts[k] times.  No list is longer than v."""
    for i in range(int(counts.max()).bit_length()):
        on = counts & (1 << i) != 0
        x = v if on.all() else v[on]
        yield (np.ldexp(x, i) if i else x).tolist()


def gauss_brute(params: Params, spec: GaussSumSpec, chunks: int = 1):
    """Literal evaluation of the full-window sum in the requested backend;
    `chunks` splits the F_p sum.  The complex sum is split-invariant: one
    exact fsum over residue counts, equal to the fsum of all M terms."""
    if spec.backend == "Fp":
        return _brute_fp(params, spec.a, spec.b, spec.M, chunks)
    return _brute_complex(spec.a, spec.b, spec.M)


def sqrt_with_scale(value: int, M: int, domain: str, params: Params, c: int, e8: int) -> GaussCoeff:
    """c * sqrt(value) * e8^e8 as one GaussCoeff, for a sum of modulus M
    on the tower `params` and integers value >= 1 and c.

    The scale generator j = sqrt(i), i = N_u/N_v, comes out exactly when M
    carries the U domain size (N_u | M, as in every inner, apply, compose
    and eliminate sum on U, where M = N_u * den): then c * sqrt(value) =
    c * sqrt(value/i) * j, and with value/i = n/d in lowest terms,
    sqrt(n/d) = sqrt(n d)/d.  Otherwise sqrt(value) stays numeric, even
    where value is a multiple of i by coincidence (M = 4i)."""
    a, d = 0, 1
    if domain == "U" and M % params.N_u == 0:
        g = math.gcd(value, params.i)
        a, d = 1, params.i // g
        value = value // g * d
    s, rho = _squarefree(value)
    c *= s
    if d != 1:
        g = math.gcd(c, d)
        c, d = c // g, d // g
    return GaussCoeff(c if d == 1 else Fraction(c, d), rho, a, e8)


@lru_cache(maxsize=None)
def _squarefree(n: int) -> tuple[int, int]:
    """squarefree_split, once per n: the kernel's periods repeat (on the
    default tower they are the few divisors 2^x 3^y of its moduli)."""
    return squarefree_split(n)


def gauss_closed(spec: GaussSumSpec, mode: str = "extended", *, params: Params) -> GaussCoeff:
    """Closed form of the full-window sum on the tower `params` as a
    normal-form coefficient: the kernel's sum over M consecutive integers."""
    return quadratic_window_sum(spec.a, spec.b, 0, spec.M, spec.M, spec.domain, mode, params=params)


# -- the summation kernel ---------------------------------------------------------

_ZERO = GaussCoeff.zero()
_ONE = GaussCoeff.one()


class Term(NamedTuple):
    """coeff * e(x^T Q x / 2M), nonzero only where every guard (k, v),
    k | v . x, holds: the one input and the one output of `gauss_sum`.

    Q is upper triangular over the positions x_0 .. x_{n-1} and the
    constant last; a guard vector has one entry per position.  Summed
    positions are zero in Q and in every guard."""

    coeff: GaussCoeff
    Q: list
    M: int
    guards: tuple


def _times(a: GaussCoeff, b: GaussCoeff) -> GaussCoeff:
    """a * b, passing one factor through when the other is the shared one."""
    return b if a is _ONE else a if b is _ONE else a * b


def gauss_sum(term: Term, y: int, N: int, domain: str, mode: str, params: Params) -> Term:
    """Sum `term` over N consecutive values of x_y in closed form on the
    tower `params`: its coefficient times the closed form's, the residual
    phase over a modulus that is a multiple of term.M, and the guards
    that can still fail -- the input guards that do not mention x_y, then
    those the coset merge left over, then the new divisibility condition
    on the other variables.  Raises NonGaussianSum outside the fragment.

    1. Coset.  The guards on x_y merge into x_y = base . x + step * sigma
       by `merge_cosets`, whatever their moduli, leaving residual guards
       on the other variables (the sum is zero where one never holds); the
       window in sigma is W = N / step.
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
       guard that no x satisfies makes the sum zero (telescoped-zero).

    ArithError for a `mode` other than 'extended' or 'strict'.
    """
    if mode != "extended" and mode != "strict":
        raise ArithError(f"mode must be 'extended' or 'strict', got {mode!r}")
    if N < 1:
        raise NonGaussianSum("empty summation window")
    coeff, Q, M, guards = term
    step, base, kept = _guard_coset(guards, y, len(Q))
    if never_holds(kept):
        return Term(_ZERO, Q, M, kept)
    if N % step:
        raise NonGaussianSum(f"guard coset step {step} does not divide the window {N}")
    W = N // step
    A0 = Q[y][y]
    A = A0 * step * step
    aa = abs(A)
    if A and W > 1:
        if M % aa:
            raise NonGaussianSum(f"period M/|A| not integral (A={A}, M={M})")
        T = M // aa
        if T % 4:
            raise NonGaussianSum(f"period {T} not divisible by 4 (A={A}, M={M})")
        if W % T:
            raise NonGaussianSum(f"window {W} not a multiple of the period {T}")
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
        raise NonGaussianSum("odd linear coefficient of a quantified variable")
    L = [e // 2 for e in ell]
    if A == 0:
        if mode == "strict":
            return Term(_ZERO, R, M, kept)
        if not divides_on_guards(M // math.gcd(M, W), L, kept):
            raise NonGaussianSum("geometric sum does not telescope over the window")
        k = M
    elif W == 1:
        if M != N or N % 2 or not periodic:
            raise NonGaussianSum(f"pinned phase not N-periodic in the summed variable (M={M}, N={N})")
        return Term(coeff, R, M, kept)
    else:
        mult = W // T
        if not divides_on_guards(aa // math.gcd(aa, mult), L, kept):
            raise NonGaussianSum(f"quadratic sum does not telescope over {mult} blocks")
        k = aa
    if L[-1] % math.gcd(k, *L[:-1]):
        return Term(_ZERO, R, M, kept)
    if any(c % k for c in L) and not _is_kept(k, L, kept):
        kept += ((k, L),)
    if A == 0:
        return Term(_times(coeff, GaussCoeff(W)), R, M, kept)
    sgn = 1 if A > 0 else -1
    # complete the square in units of t = gcd(step, L): (|A|/t^2) R - sign(A) (L/t . x)^2
    t = math.gcd(step, *L)
    a1 = aa // (t * t)
    for row in R:
        row[:] = [a1 * c for c in row]
    _add_product(R, [l // t for l in L], [l // t for l in L], -sgn)
    return Term(_times(coeff, sqrt_with_scale(T, M, domain, params, mult, sgn)), R, M * a1, kept)


def _add_product(R, u, v, scale: int = 1) -> None:
    """R += scale * (u . x)(v . x), on the upper triangle."""
    n1 = len(R)
    for i in range(n1):
        if u[i] or v[i]:
            row = R[i]
            row[i] += scale * u[i] * v[i]
            for j in range(i + 1, n1):
                row[j] += scale * (u[i] * v[j] + u[j] * v[i])


def merge_cosets(k1: int, b1, k2: int, b2):
    """x = b1 . z (mod k1) and x = b2 . z (mod k2) as (step, base, guard):
    x = base . z (mod step = lcm(k1, k2)) where the residual guard
    gcd(k1, k2) | (b1 - b2) . z holds (None for coprime moduli).

    Each prime of the lcm goes to the modulus with the higher power of it,
    on a tie to the larger one (k1 if equal), which splits the lcm into
    coprime f1 | k1 and f2 | k2; base is the CRT of b1 mod f1 and b2 mod
    f2, so a nested pair keeps the finer base as it is."""
    g = math.gcd(k1, k2)
    f1, f2, d, q = k1, k2, g, 2
    while d > 1:
        if q * q > d:
            q = d
        if d % q == 0:
            q1, q2 = math.gcd(k1, q ** k1.bit_length()), math.gcd(k2, q ** k2.bit_length())
            f1, f2 = (f1, f2 // q2) if (q1, k1) >= (q2, k2) else (f1 // q1, f2)
            d //= min(q1, q2)
        q += 1
    if f1 == 1 or f2 == 1:  # the CRT's value, without its two inverses
        base = b1 if f2 == 1 else b2
    else:
        u1, u2 = f2 * pow(f2, -1, f1), f1 * pow(f1, -1, f2)
        base = [c1 * u1 + c2 * u2 for c1, c2 in zip(b1, b2)]
    return f1 * f2, base, ((g, [c1 - c2 for c1, c2 in zip(b1, b2)]) if g > 1 else None)


def _guard_coset(guards, y: int, n1: int):
    """Consume the guards on x_y into one coset x_y = base . x + step * Z.

    A guard a x_y + rest . x = 0 (mod k) whose g = gcd(a, k) divides `rest`
    coefficient-wise restricts x_y to a coset, which `merge_cosets`
    intersects with the coset so far; its residual guard is kept.  The
    coset of a guard with a = +1 has the base -rest, that of its negation,
    so the guard's sign does not change the result.  A guard
    failing the gcd test with a constant rest never holds and is kept as
    g | rest; any other waits for the merged coset: where a * step = 0
    (mod k) it becomes the residual guard rest + a * base on the other
    variables, otherwise it branches pointwise and leaves the fragment.
    Kept guards that always hold (k dividing every coefficient) are
    dropped, and so is a guard that repeats a kept one."""
    if not guards:
        return 1, [0] * n1, ()
    step, base, kept, deferred = 1, [0] * n1, [], []
    for k, v in guards:
        a = v[y]
        if a == 0:
            kept.append((k, v))
            continue
        g = math.gcd(a, k)
        rest = list(v)
        rest[y] = 0
        if g > 1 and any(c % g for c in rest):
            if any(rest[:-1]):
                deferred.append((k, a, rest))
            else:
                kept.append((g, rest))
            continue
        a, k = a // g, k // g
        if k == 1:
            continue
        m = -1 if v[y] == 1 else -pow(a, -1, k) % k
        step, base, guard = merge_cosets(step, base, k, [c // g * m for c in rest])
        if guard:
            kept.append(guard)
    for k, a, rest in deferred:
        if a * step % k:
            raise NonGaussianSum("guard gcd does not divide the free part")
        kept.append((k, [c + a * b for c, b in zip(rest, base)]))
    out = ()
    for k, v in kept:
        if any(c % k for c in v) and not _is_kept(k, v, out):
            out += ((k, v),)
    return step, base, out


def _is_kept(k: int, v, guards) -> bool:
    """Whether `guards` holds the congruence k | v . x already: a guard of
    modulus k whose vector equals v mod k."""
    return any(g == k and all((c - d) % k == 0 for c, d in zip(u, v)) for g, u in guards)


def never_holds(guards) -> bool:
    """Whether some guard (k, v) holds for no x: the gcd of k and the
    coefficients of the variables does not divide the constant v[-1]."""
    for k, v in guards:
        if v[-1] % math.gcd(k, *v[:-1]):
            return True
    return False


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
    *,
    params: Params,
) -> GaussCoeff:
    """Exact closed form for sums of e((A x^2 + 2 B x + C)/2M) over any
    `window` consecutive integers on the tower `params`: the kernel's case
    with no free variables.  Raises NonGaussianSum outside the fragment (a
    window that is not a whole number of quasi-periods, or blocks that do
    not telescope)."""
    res = gauss_sum(Term(_ONE, [[A, 2 * B], [0, C]], M, ()), 0, window, domain, mode, params)
    if res.coeff.is_zero():
        return res.coeff
    return res.coeff.with_phase(res.coeff.phase + ratio_phase(res.Q[1][1], 2 * res.M, domain))
