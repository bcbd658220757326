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

Representation: c is held as two coprime integers, a numerator and a
positive denominator, and q likewise (``arith.Phase``); every operation here
works on those integers, reducing each result by one gcd.  ``Fraction``
remains only at the edges: as constructor input (c and q may be an int or
a Fraction), in the reads ``GaussCoeff.c`` and ``Phase.q``, and in the text
form, which writes c and q as ``str(Fraction)`` does.  Only this module and
``arith`` know the representation; the rest of the calculus builds
coefficients through the ring operations, ``GaussCoeff.with_phase`` and
``arith.ratio_phase``.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .arith import (
    ArithError, Params, Phase, exact_dtype, poly_mod, ratio_phase, rational_parts, require_int,
    squarefree_split,
)
from .arith import DomainMismatch  # noqa: F401  (re-exported: raised by coefficient products)

__all__ = [
    "GaussCoeff", "DomainMismatch", "to_fp", "to_fp_phases", "to_complex", "parse_coeff",
    "unit_normalization",
]

_TWO_PI = 2.0 * math.pi
_NO_PHASE = Phase(0)
# below 256, a number with no square factor q^2 (q < 16) is squarefree; the
# public constructor factors only the rho outside this set
_SMALL_SQUAREFREE = frozenset(n for n in range(1, 256) if all(n % (q * q) for q in range(2, 16)))


@dataclass(frozen=True, init=False, repr=False)
class GaussCoeff:
    """c * sqrt(rho) * j**a * e8**b * e(phase) in normal form; immutable.

    c is held as two coprime integers, a numerator and a positive
    denominator, and ``c`` reads them as a Fraction.  The constructor takes
    c as an int or a Fraction, rho, a and b as ints, and the phase as a
    Phase (or a q for ``Phase(q)``), and normalises; ``_normal`` builds a
    coefficient from parts already in normal form."""

    _num: int
    _den: int
    rho: int
    a: int
    b: int
    phase: Phase

    def __init__(self, c=1, rho=1, a=0, b=0, phase=_NO_PHASE) -> None:
        # the one place that validates and normalises: ring operations build
        # their results from parts already in normal form (``_normal``)
        num, den = rational_parts(c, "the rational part c")
        rho = require_int(rho, "rho")
        a = require_int(a, "the j-exponent a")
        b = require_int(b, "the e8-exponent b")
        if not isinstance(phase, Phase):
            phase = Phase(phase)
        if rho < 1:
            raise ArithError("rho must be a positive integer")
        if num == 0:
            _fill(self, 0, 1, 1, 0, 0, _NO_PHASE)
            return
        if rho not in _SMALL_SQUAREFREE:
            s, rho = squarefree_split(rho)
            g = math.gcd(s, den)
            num, den = num * (s // g), den // g
        _fill(self, num, den, rho, a, b % 8, phase)

    @property
    def c(self) -> Fraction:
        return Fraction(self._num, self._den)

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
        return cls(c)

    @classmethod
    def sqrt(cls, value) -> "GaussCoeff":
        """sqrt of a positive rational, normalised: sqrt(n/d) = sqrt(n*d)/d."""
        n, d = rational_parts(value, "a square root's argument")
        if n <= 0:
            raise ArithError("sqrt argument must be positive")
        return cls(Fraction(1, d), n * d)

    @classmethod
    def j_power(cls, a: int) -> "GaussCoeff":
        return cls(a=a)

    @classmethod
    def e8_power(cls, b: int) -> "GaussCoeff":
        return cls(b=b)

    @classmethod
    def phase_of(cls, q, domain: str | None = None) -> "GaussCoeff":
        return cls(phase=Phase(q, domain))

    def with_phase(self, phase: Phase, a: int | None = None) -> "GaussCoeff":
        """This coefficient with its phase replaced by `phase` (and its
        j-exponent by `a`), the other parts as they are; zero stays zero.
        The constructor for coefficients the calculus computes from another
        one: no part needs normalising."""
        if not self._num:
            return self
        return _normal(self._num, self._den, self.rho, self.a if a is None else a, self.b, phase)

    # -- ring structure ------------------------------------------------------

    def is_zero(self) -> bool:
        return self._num == 0

    def __mul__(self, other) -> "GaussCoeff":
        if not isinstance(other, GaussCoeff):
            return NotImplemented
        n1, n2 = self._num, other._num
        if not n1 or not n2:
            return _ZERO
        num, den = n1 * n2, self._den * other._den
        # sqrt(r1) sqrt(r2) = g sqrt(r1 r2 / g^2), g = gcd(r1, r2): both are
        # squarefree, so r1/g and r2/g are coprime and their product is too
        r1, r2 = self.rho, other.rho
        if r1 == 1:
            rho = r2
        elif r2 == 1:
            rho = r1
        else:
            g = math.gcd(r1, r2)
            rho = (r1 // g) * (r2 // g)
            num *= g
        if den != 1:
            g = math.gcd(num, den)
            num, den = num // g, den // g
        return _normal(
            num,
            den,
            rho,
            self.a + other.a,
            (self.b + other.b) % 8,
            self.phase + other.phase,  # raises DomainMismatch-compatible error
        )

    def inverse(self) -> "GaussCoeff":
        if not self._num:
            raise ZeroDivisionError("zero Gaussian coefficient")
        # 1/(c sqrt(rho)) = (d / (n rho)) sqrt(rho) for c = n/d
        num, den = self._den, self._num * self.rho
        if den < 0:
            num, den = -num, -den
        g = math.gcd(num, den)
        return _normal(num // g, den // g, self.rho, -self.a, -self.b % 8, -self.phase)

    def conj(self) -> "GaussCoeff":
        """Involution: inverts e8 and V-phases, fixes c, rho, j and U-phases."""
        if not self._num:
            return self
        phase = self.phase if self.phase.domain == "U" else -self.phase
        return _normal(self._num, self._den, self.rho, self.a, -self.b % 8, phase)

    # -- rendering ------------------------------------------------------------

    def __str__(self) -> str:
        num, den = self._num, self._den
        if not num:
            return "0"
        parts = []
        phase = self.phase
        if num != 1 or den != 1 or (self.rho == 1 and self.a == 0 and self.b == 0 and phase.domain is None):
            parts.append(_ratio_text(num, den))
        if self.rho != 1:
            parts.append(f"sqrt({self.rho})")
        if self.a:
            parts.append("j" if self.a == 1 else f"j^{self.a}")
        if self.b:
            parts.append("e8" if self.b == 1 else f"e8^{self.b}")
        if phase.domain is not None:
            parts.append(f"e({_ratio_text(phase._num, phase._den)}@{phase.domain})")
        return " * ".join(parts)

    __repr__ = __str__


def _ratio_text(num: int, den: int) -> str:
    """num/den as str(Fraction(num, den)) writes it, for lowest terms."""
    return str(num) if den == 1 else f"{num}/{den}"


def _fill(x: GaussCoeff, num: int, den: int, rho: int, a: int, b: int, phase: Phase) -> None:
    d = x.__dict__
    d["_num"] = num
    d["_den"] = den
    d["rho"] = rho
    d["a"] = a
    d["b"] = b
    d["phase"] = phase


def _normal(num: int, den: int, rho: int, a: int, b: int, phase: Phase) -> GaussCoeff:
    """A coefficient from parts already in normal form -- c = num/den
    nonzero in lowest terms with den > 0, rho squarefree, b in [0, 8),
    phase a Phase -- without revalidating them: the ring operations'
    constructor."""
    x = object.__new__(GaussCoeff)
    _fill(x, num, den, rho, a, b, phase)
    return x


_ZERO = GaussCoeff(0)
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
        if m["rat"] is not None or m["q"] is not None:
            try:
                value = Fraction(m["rat"] or m["q"])
            except ZeroDivisionError:
                raise ArithError(f"zero denominator at {pos} in coefficient {text!r}") from None
            out = out * (GaussCoeff.rational(value) if m["q"] is None else GaussCoeff.phase_of(value, m["dom"]))
        elif m["rho"] is not None:
            out = out * GaussCoeff(rho=int(m["rho"]))
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
    num = x._num
    if not num:
        return 0
    p = params.p
    val = num % p
    den, rho, a, b, phase = x._den, x.rho, x.a, x.b, x.phase
    if den != 1:
        val = val * pow(den, -1, p) % p
    if rho != 1:
        val = val * params.sqrt_squarefree(rho) % p
    if a:
        val = val * pow(params.j, a, p) % p
    if b:
        val = val * pow(params.xi(8), b, p) % p
    if phase.domain is not None:
        val = val * params.char_e(phase) % p
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
    if coeff.is_zero() or not np.any(on):
        return np.zeros(np.broadcast_shapes(np.shape(num), np.shape(on)), dtype=exact_dtype(p))

    def scalar(where):
        """to_fp at the first element in C order at which `where` holds."""
        nums, where = np.broadcast_arrays(num, where)
        x = coeff.with_phase(coeff.phase + ratio_phase(int(nums.flat[np.flatnonzero(where)[0]]), m, tag))
        return to_fp(params, x.conj() if conjugate else x)

    c = coeff.conj() if conjugate else coeff
    try:
        unit = to_fp(params, c.with_phase(_NO_PHASE))
    except ValueError:  # ArithError, or a denominator p divides
        # every product raises; the first element says what its scalar path raises
        scalar(on)
        raise
    # the phase of the product is q + num/m = E/D mod 1, where conj() negates
    # num/m on the V scale as it does every V-phase; a nonzero num/m meets a
    # phase q of the other scale only where Phase.__add__ raises
    qn, qd = c.phase._num, c.phase._den
    D = math.lcm(m, qd)
    sign = -1 if conjugate and tag == "V" else 1
    E = poly_mod(D, [(sign * D // m, num), (qn * (D // qd),)])
    # char_e takes E/D iff its reduced denominator divides p - 1, i.e. iff
    # h = D / gcd(D, p - 1) divides E; then e(E/D) = xi_g^(E/h)
    g = math.gcd(D, p - 1)
    h = D // g
    cross = c.phase.domain not in (None, tag)
    if cross or h != 1:
        bad = on & (((num != 0) & cross) | (E % h != 0))
        if np.any(bad):
            scalar(bad)
            raise AssertionError("to_fp_phases disagrees with to_fp")
    # E // h < g everywhere, so the gather is in range off the support too
    vals = unit * params.power_table(g)[np.asarray(E // h, dtype=np.intp)] % p
    return np.where(on, vals, 0).astype(exact_dtype(p), copy=False)


def to_complex(params: Params, x: GaussCoeff) -> complex:
    """Limit-side evaluation: j -> e^{i pi/4}, e8 -> e^{-i pi/4} (= e(1/8)
    under the V-rule), e(q@V) -> e^{-2 pi i q}, e(q@U) -> the real
    e^{-2 pi q * (N_u/N_v)} on the balanced representative of q.

    Raises OverflowError when a U-scale exponential exceeds double range.
    """
    if x.is_zero():
        return 0j
    val = complex(x._num / x._den * math.sqrt(x.rho))
    if x.a:
        val *= cmath.exp(1j * math.pi * (x.a % 8) / 4.0)
    if x.b:
        val *= cmath.exp(-1j * math.pi * x.b / 4.0)
    phase = x.phase
    if phase.domain == "U":
        n, d = phase._num, phase._den
        exponent = -_TWO_PI * ((n - d if 2 * n >= d else n) / d) * (params.N_u / params.N_v)
        if exponent > 709.0:
            raise OverflowError("U-scale coefficient exceeds double range")
        val *= math.exp(exponent)
    elif phase.domain == "V":
        val *= cmath.exp(-1j * _TWO_PI * (phase._num / phase._den))
    return val
