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

from .arith import ArithError, Params, Phase, squarefree_split
from .arith import DomainMismatch  # noqa: F401  (re-exported: raised by coefficient products)

__all__ = ["GaussCoeff", "DomainMismatch", "to_fp", "to_complex", "parse_coeff"]

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class GaussCoeff:
    c: Fraction = Fraction(1)
    rho: int = 1
    a: int = 0
    b: int = 0
    phase: Phase = Phase(Fraction(0))

    def __post_init__(self) -> None:
        c = Fraction(self.c)
        rho = self.rho
        if rho < 1:
            raise ArithError("rho must be a positive integer")
        s, r = squarefree_split(rho)
        if s != 1:
            c *= s
            rho = r
        if c == 0:
            object.__setattr__(self, "c", Fraction(0))
            object.__setattr__(self, "rho", 1)
            object.__setattr__(self, "a", 0)
            object.__setattr__(self, "b", 0)
            object.__setattr__(self, "phase", Phase(Fraction(0)))
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
        return cls()

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
        if isinstance(other, (int, Fraction)):
            other = GaussCoeff.rational(other)
        if not isinstance(other, GaussCoeff):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return GaussCoeff.zero()
        return GaussCoeff(
            self.c * other.c,
            self.rho * other.rho,
            self.a + other.a,
            self.b + other.b,
            self.phase + other.phase,  # raises DomainMismatch-compatible error
        )

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "GaussCoeff":
        if n < 0:
            return self.inverse() ** (-n)
        # sqrt(rho)^n = rho^(n // 2) * sqrt(rho)^(n % 2)
        return GaussCoeff(
            self.c ** n * self.rho ** (n // 2),
            self.rho if n % 2 else 1,
            self.a * n,
            self.b * n,
            Phase(self.phase.q * n, self.phase.domain),
        )

    def inverse(self) -> "GaussCoeff":
        if self.is_zero():
            raise ZeroDivisionError("zero Gaussian coefficient")
        # 1/sqrt(rho) = sqrt(rho)/rho
        return GaussCoeff(
            1 / (self.c * self.rho), self.rho, -self.a, -self.b, -self.phase
        )

    def __truediv__(self, other) -> "GaussCoeff":
        if isinstance(other, (int, Fraction)):
            other = GaussCoeff.rational(other)
        return self * other.inverse()

    def conj(self) -> "GaussCoeff":
        """Involution: inverts e8 and V-phases, fixes c, rho, j and U-phases."""
        if self.is_zero():
            return self
        phase = self.phase if self.phase.domain == "U" else -self.phase
        return GaussCoeff(self.c, self.rho, self.a, -self.b, phase)

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


_ZERO = GaussCoeff(Fraction(0))

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
        val = val * pow(params.char_e(Fraction(1, 8)), x.b, p) % p
    if not x.phase.is_zero():
        val = val * params.char_e(x.phase) % p
    return val


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
