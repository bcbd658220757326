"""Normal-form ring of Gaussian coefficients.

Every coefficient produced by the calculus (Gauss sums, inner products,
operator compositions) is an element

    c * sqrt(rho) * j**a * e8**b * e(q @ U|V)

with c rational, rho a squarefree positive integer, j the tower generator
sqrt(i) (a standard integer residue in F_p, the eighth-root phase e^{i*pi/4}
in the limit), e8 the root of unity e(1/8), and e(q) a rational phase.

Normal form: rho squarefree (square factors folded into c), b reduced
mod 8 (e8 has exact order 8 in F_p), q reduced mod 1.  The j-exponent a is
*not* reduced: i**2 is not -1 mod p at a generic tower, so j**8 != 1 in
F_p and reducing would break the to_fp homomorphism; only the complex
limit map reduces a mod 8.

Conjugation inverts the unit-circle parts (b, V-phase) and fixes c, rho,
a and U-phases: j is a standard integer residue, hence pseudo-real.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .arith import ArithError, Params, Phase, exact_dtype, poly_mod, squarefree_split
from .arith import DomainMismatch  # noqa: F401  (re-exported: raised by coefficient products)

__all__ = [
    "GaussCoeff", "DomainMismatch", "to_fp", "to_fp_phases", "to_complex", "parse_coeff",
    "unit_normalization",
]

_TWO_PI = 2.0 * math.pi
_NO_PHASE = Phase(Fraction(0))


@dataclass(frozen=True)
class GaussCoeff:
    c: Fraction = Fraction(1)
    rho: int = 1
    a: int = 0
    b: int = 0
    phase: Phase = _NO_PHASE

    def __post_init__(self) -> None:
        # the one place that validates and normalises: ring operations build
        # their results from parts already in normal form (``_normal``)
        c = self.c if isinstance(self.c, Fraction) else Fraction(self.c)
        rho = self.rho
        if rho < 1:
            raise ArithError("rho must be a positive integer")
        if rho != 1:
            s, r = squarefree_split(rho)
            if s != 1:
                c *= s
                rho = r
        if c == 0:
            object.__setattr__(self, "c", Fraction(0))
            object.__setattr__(self, "rho", 1)
            object.__setattr__(self, "a", 0)
            object.__setattr__(self, "b", 0)
            object.__setattr__(self, "phase", _NO_PHASE)
            return
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "b", self.b % 8)
        if not isinstance(self.phase, Phase):
            object.__setattr__(self, "phase", Phase(Fraction(self.phase)))

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls) -> "GaussCoeff":
        """The shared zero (instances are immutable)."""
        return _ZERO

    @classmethod
    def one(cls) -> "GaussCoeff":
        """The shared one."""
        return _ONE

    @classmethod
    def rational(cls, c) -> "GaussCoeff":
        return cls(Fraction(c))

    @classmethod
    def sqrt(cls, value) -> "GaussCoeff":
        """sqrt of a positive rational, normalised: sqrt(n/d) = sqrt(n*d)/d."""
        v = Fraction(value)
        if v <= 0:
            raise ArithError("sqrt argument must be positive")
        return cls(Fraction(1, v.denominator), v.numerator * v.denominator)

    @classmethod
    def j_power(cls, a: int) -> "GaussCoeff":
        return cls(a=a)

    @classmethod
    def e8_power(cls, b: int) -> "GaussCoeff":
        return cls(b=b)

    @classmethod
    def phase_of(cls, q, domain: str | None = None) -> "GaussCoeff":
        return cls(phase=Phase(Fraction(q), domain))

    # -- ring structure ------------------------------------------------------

    def is_zero(self) -> bool:
        return self.c == 0

    def __mul__(self, other) -> "GaussCoeff":
        if type(other) is not GaussCoeff:
            if isinstance(other, (int, Fraction)):
                other = GaussCoeff.rational(other)
            elif not isinstance(other, GaussCoeff):
                return NotImplemented
        if not self.c or not other.c:
            return _ZERO
        # sqrt(r1) sqrt(r2) = g sqrt(r1 r2 / g^2), g = gcd(r1, r2): both are
        # squarefree, so r1/g and r2/g are coprime and their product is too
        c, r1, r2 = self.c * other.c, self.rho, other.rho
        if r1 == 1:
            rho = r2
        elif r2 == 1:
            rho = r1
        else:
            g = math.gcd(r1, r2)
            rho = (r1 // g) * (r2 // g)
            c *= g
        return _normal(
            c,
            rho,
            self.a + other.a,
            (self.b + other.b) % 8,
            self.phase + other.phase,  # raises DomainMismatch-compatible error
        )

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "GaussCoeff":
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return _ONE
        if not self.c:
            return _ZERO
        # sqrt(rho)^n = rho^(n // 2) * sqrt(rho)^(n % 2)
        phase = self.phase
        return _normal(
            self.c ** n * self.rho ** (n // 2),
            self.rho if n % 2 else 1,
            self.a * n,
            self.b * n % 8,
            phase if phase.domain is None else Phase(phase.q * n, phase.domain),
        )

    def inverse(self) -> "GaussCoeff":
        if not self.c:
            raise ZeroDivisionError("zero Gaussian coefficient")
        # 1/sqrt(rho) = sqrt(rho)/rho
        return _normal(
            1 / (self.c * self.rho), self.rho, -self.a, -self.b % 8, -self.phase
        )

    def __truediv__(self, other) -> "GaussCoeff":
        if isinstance(other, (int, Fraction)):
            other = GaussCoeff.rational(other)
        return self * other.inverse()

    def conj(self) -> "GaussCoeff":
        """Involution: inverts e8 and V-phases, fixes c, rho, j and U-phases."""
        if not self.c:
            return self
        phase = self.phase if self.phase.domain == "U" else -self.phase
        return _normal(self.c, self.rho, self.a, -self.b % 8, phase)

    # -- rendering ------------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        if self.c != 1 or (self.rho == 1 and self.a == 0 and self.b == 0 and self.phase.is_zero()):
            parts.append(str(self.c))
        if self.rho != 1:
            parts.append(f"sqrt({self.rho})")
        if self.a:
            parts.append("j" if self.a == 1 else f"j^{self.a}")
        if self.b:
            parts.append("e8" if self.b == 1 else f"e8^{self.b}")
        if not self.phase.is_zero():
            parts.append(f"e({self.phase.q}@{self.phase.domain})")
        return " * ".join(parts)

    __repr__ = __str__


def _normal(c: Fraction, rho: int, a: int, b: int, phase: Phase) -> GaussCoeff:
    """A coefficient from parts already in normal form -- c a nonzero
    Fraction, rho squarefree, b in [0, 8), phase a Phase -- without
    revalidating them: the ring operations' constructor."""
    x = object.__new__(GaussCoeff)
    d = x.__dict__
    d["c"] = c
    d["rho"] = rho
    d["a"] = a
    d["b"] = b
    d["phase"] = phase
    return x


_ZERO = GaussCoeff(Fraction(0))
_ONE = GaussCoeff()


@lru_cache(maxsize=None)
def unit_normalization(m: int, tag: str) -> GaussCoeff:
    """1/sqrt(N) kept symbolic on the tower with base m: 1/m on the V scale,
    (1/m) j^-1 on the U scale (sqrt(N_u) = m j with j the tower generator
    sqrt(i)).  Shared: coefficients are immutable."""
    unit = GaussCoeff.rational(Fraction(1, m))
    return unit if tag == "V" else unit * GaussCoeff.j_power(-1)


_COEFF_ATOM = re.compile(
    r"\s*(?:(?P<rat>-?\d+(?:/\d+)?)"
    r"|sqrt\((?P<rho>\d+)\)"
    r"|j(?:\^(?P<ja>-?\d+))?"
    r"|e8(?:\^(?P<eb>-?\d+))?"
    r"|e\((?P<q>-?\d+(?:/\d+)?)@(?P<dom>[UV])\))\s*"
)


def parse_coeff(text: str) -> GaussCoeff:
    """Parse the canonical rendering; exact round-trip with str()."""
    text = text.strip()
    if text == "0":
        return GaussCoeff.zero()
    out = GaussCoeff.one()
    pos = 0
    expect_factor = True
    while pos < len(text):
        if not expect_factor:
            if text[pos] == "*":
                pos += 1
                expect_factor = True
                continue
            raise ArithError(f"expected '*' at {pos} in coefficient {text!r}")
        m = _COEFF_ATOM.match(text, pos)
        if not m:
            raise ArithError(f"bad coefficient syntax at {pos} in {text!r}")
        if m["rat"] is not None:
            out = out * GaussCoeff.rational(Fraction(m["rat"]))
        elif m["rho"] is not None:
            out = out * GaussCoeff(rho=int(m["rho"]))
        elif m["q"] is not None:
            out = out * GaussCoeff.phase_of(Fraction(m["q"]), m["dom"])
        elif m.group(0).lstrip().startswith("j"):
            out = out * GaussCoeff.j_power(int(m["ja"]) if m["ja"] else 1)
        else:
            out = out * GaussCoeff.e8_power(int(m["eb"]) if m["eb"] else 1)
        pos = m.end()
        expect_factor = False
    if expect_factor:
        raise ArithError(f"dangling '*' in coefficient {text!r}")
    return out


# -- evaluation homomorphisms --------------------------------------------------


def to_fp(params: Params, x: GaussCoeff) -> int:
    """Exact evaluation in F_p: c via inverses, sqrt(rho) canonical, j the
    tower residue, e8 = e(1/8), phases via char_e.  A ring homomorphism."""
    if x.is_zero():
        return 0
    p = params.p
    val = x.c.numerator % p * pow(x.c.denominator, -1, p) % p
    if x.rho != 1:
        val = val * params.sqrt_squarefree(x.rho) % p
    if x.a:
        val = val * pow(params.j, x.a, p) % p
    if x.b:
        val = val * pow(params.xi(8), x.b, p) % p
    if not x.phase.is_zero():
        val = val * params.char_e(x.phase) % p
    return val


def to_fp_phases(params: Params, coeff: GaussCoeff, tag: str, m: int, num, on,
                 conjugate: bool = False) -> np.ndarray:
    """The vector form of to_fp: to_fp(x), or to_fp(x.conj()) with
    `conjugate`, for x = coeff * e(num/m @ tag) where the boolean mask `on`
    holds and 0 elsewhere, over the broadcast of `on` and `num` (phase
    numerators reduced mod m); dtype ``exact_dtype(p)``.

    Raises what to_fp of the elementwise products would raise, at the first
    element in C order at which it would: that element is evaluated by the
    scalar path, so the exception and its message are the scalar ones.  The
    scalar path runs only there: when the phase-free part raises (at the
    first element of `on`) or where a mismatch or a phase denominator is
    flagged."""
    p = params.p
    num, on = np.broadcast_arrays(num, on)
    out = np.zeros(on.shape, dtype=exact_dtype(p))
    if coeff.is_zero() or not on.any():
        return out

    def scalar(i):
        x = coeff * GaussCoeff.phase_of(Fraction(int(num.flat[i]), m), tag)
        return to_fp(params, x.conj() if conjugate else x)

    c = coeff.conj() if conjugate else coeff
    try:
        unit = to_fp(params, _normal(c.c, c.rho, c.a, c.b, _NO_PHASE))
    except ValueError:  # ArithError, or a denominator p divides
        # every product raises; the first element says what its scalar path raises
        scalar(np.flatnonzero(on)[0])
        raise
    # the phase of the product is q + num/m = E/D mod 1, where conj() negates
    # num/m on the V scale as it does every V-phase; a nonzero num/m meets a
    # phase q of the other scale only where Phase.__add__ raises
    q = c.phase.q
    D = math.lcm(m, q.denominator)
    sign = -1 if conjugate and tag == "V" else 1
    E = poly_mod(D, [(sign * D // m, num), (q.numerator * (D // q.denominator),)])
    # char_e takes E/D iff its reduced denominator divides p - 1, i.e. iff
    # h = D / gcd(D, p - 1) divides E; then e(E/D) = xi_g^(E/h)
    g = math.gcd(D, p - 1)
    h = D // g
    cross = c.phase.domain not in (None, tag)
    if cross or h != 1:
        bad = np.flatnonzero(on & (((num != 0) & cross) | (E % h != 0)))
        if len(bad):
            scalar(bad[0])
            raise AssertionError("to_fp_phases disagrees with to_fp")
    out[on] = unit * params.xi_powers(g, E[on] // h) % p
    return out


def to_complex(params: Params, x: GaussCoeff) -> complex:
    """Limit-side evaluation: j -> e^{i pi/4}, e8 -> e^{-i pi/4} (= e(1/8)
    under the V-rule), e(q@V) -> e^{-2 pi i q}, e(q@U) -> the real
    e^{-2 pi q * (N_u/N_v)} on the balanced representative of q.

    Raises OverflowError when a U-scale exponential exceeds double range.
    """
    if x.is_zero():
        return 0j
    val = complex(float(x.c) * math.sqrt(x.rho))
    if x.a:
        val *= cmath.exp(1j * math.pi * (x.a % 8) / 4.0)
    if x.b:
        val *= cmath.exp(-1j * math.pi * x.b / 4.0)
    if not x.phase.is_zero():
        if x.phase.domain == "U":
            exponent = -_TWO_PI * float(x.phase.balanced) * (params.N_u / params.N_v)
            if exponent > 709.0:
                raise OverflowError("U-scale coefficient exceeds double range")
            val *= math.exp(exponent)
        else:
            val *= cmath.exp(-1j * _TWO_PI * float(x.phase.q))
    return val
