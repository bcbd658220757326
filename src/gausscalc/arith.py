"""Parameter tower and exact arithmetic in F_p.

The engine computes over a prime field F_p whose multiplicative group
contains a root of unity of order 2M for every modulus M the calculus
touches.  A tower of divisibility-linked integers

    l = m**2,  j = m*k,  i = j**2,  N_v = l,  N_u = l*i

fixes the two domain sizes, and the prime is the smallest p with
8*N_u | p - 1, so that e(1/8) and every e(n/2M) with M | 4*N_u exist.
Both N_v and N_u are perfect squares (sqrt(N_v) = m, sqrt(N_u) = m*j),
which keeps all 1/sqrt(N) normalisations exact.

Scalar residues are plain Python ints in [0, p); ``FpElem`` is an alias.
The literal oracles work on numpy vectors of residues: int64 while the
product of two residues fits (p < 2^31), Python ints in object arrays
otherwise (``exact_dtype``).  Exponents of the roots xi_2M are read from
a cached power table, and an exponent vector takes its modulus once
wherever int64 holds it unreduced: ``poly_mod`` reduces its sum once
when no element can reach 2^63, and ``power_sum`` each block's offset
exponents, which stay below 2M BLOCK^2 < 2^63 for every 2M < 2^33.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

FpElem = int

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
BLOCK = 1 << 15  # elements per vectorised block of the literal oracles
MAX_POWER_TABLE = 1 << 27  # entries of one power table, 2 * frontend.MAX_EVAL_POINTS
_OFFSETS = np.arange(BLOCK)  # the offsets k of a block's terms in power_sum
_OFFSETS.setflags(write=False)


class ArithError(ValueError):
    pass


class SearchExhausted(ArithError):
    """No prime found within the candidate budget."""


class IncompatiblePhase(ArithError):
    """Phase denominator does not divide p - 1."""


class DomainMismatch(ArithError):
    """U-scale and V-scale objects combined outside the Wick map."""


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24 (fixed base set)."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int, limit: int | None = None) -> dict[int, int]:
    """Prime factorisation by trial division (inputs here are smooth or
    small); with `limit`, by trial divisors up to it only, so that the
    largest key may be a composite with no prime factor up to `limit`."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n and (limit is None or d <= limit):
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def squarefree_split(n: int) -> tuple[int, int]:
    """n = s**2 * r with r squarefree; returns (s, r).  Requires n >= 1."""
    if n < 1:
        raise ArithError("squarefree_split needs a positive integer")
    s, r = 1, 1
    for q, e in factorize(n).items():
        s *= q ** (e // 2)
        if e % 2:
            r *= q
    return s, r


def require_int(x, what: str) -> int:
    """x as an int when it is an integer (a bool is not); ArithError
    naming `what` otherwise.  The check on integer fields of documents read
    from outside and of the coefficient ring's constructor."""
    if type(x) is int:
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return int(x)
    raise ArithError(f"{what} must be an integer, got {x!r}")


def exact_dtype(bound: int):
    """The array dtype for exact arithmetic on integers below `bound`:
    int64 while the product of two of them fits (bound <= 2^31), else
    object arrays of Python ints."""
    return np.int64 if bound <= 1 << 31 else object


def poly_mod(m: int, terms):
    """sum of c * x1 * x2 * ... mod m over `terms` (c, x1, x2, ...), exact.

    Each x is an int or an integer array (arrays broadcast, so the result
    is elementwise, over the broadcast of every array factor).  The int
    factors of a term are multiplied mod m into t; each array is converted
    to ``exact_dtype(m)`` and reduced below m once, however often it
    recurs (the same object, within a term or across terms).  The reduced
    terms are then summed and the sum reduced once, at the end.  In int64
    (m <= 2^31) the products and their sum take no intermediate reduction
    when sum t * (m - 1)^deg < 2^63, deg counting a term's array factors,
    so that no element can overflow; past that bound, and always for
    object arrays, every product is reduced before the next."""
    dt = exact_dtype(m)
    reduced: dict[int, object] = {}
    split = []  # (t, array factors) of each term
    bound = 0  # sum t * (m - 1)^deg: the largest sum of unreduced products
    for c, *xs in terms:
        t = c % m
        arrays = []
        for x in xs:
            if isinstance(x, int):
                t = t * x % m
            else:
                arrays.append(x)
        split.append((t, arrays))
        bound += t * (m - 1) ** len(arrays)
    wide = dt is object or bound >> 63
    total = 0
    for t, xs in split:
        for x in xs:
            r = reduced.get(id(x))
            if r is None:
                r = reduced[id(x)] = np.asarray(x, dtype=dt) % m
            t = t * r % m if wide else t * r
        total = total + t
    return total % m


@dataclass(frozen=True)
class ParamSpec:
    """Input to the tower search."""

    m_base: int = 12
    k_mult: int = 2
    prime_search_limit: int = 100_000

    def __post_init__(self) -> None:
        if self.m_base < 2 or self.m_base % 2:
            raise ArithError("m_base must be an even integer >= 2 (so 4 | m_base**2)")
        if self.k_mult < 1:
            raise ArithError("k_mult must be >= 1")
        if self.prime_search_limit < 1:
            raise ArithError("prime_search_limit must be >= 1")


@dataclass(frozen=True, init=False, repr=False)
class Phase:
    """A rational phase q (mod 1) naming the root of unity e(q) = epsilon^((p-1)q).

    ``domain`` tags which scale the phase lives on: 'V' (quantum/Hermitian),
    'U' (statistical/Euclidean) or None for scale-free roots of unity.

    q is held as two coprime integers, a numerator in [0, den) and a
    positive denominator; ``q`` reads them as a Fraction.  The constructor
    takes q as an int or a Fraction; ``ratio_phase`` builds e(num/den) from
    integers without a Fraction.
    """

    _num: int
    _den: int
    domain: str | None

    def __init__(self, q, domain: str | None = None) -> None:
        if domain not in (None, "U", "V"):
            raise ArithError("domain tag must be 'U', 'V' or None")
        _store_phase(self, *rational_parts(q, "a phase"), domain)

    @property
    def q(self) -> Fraction:
        return Fraction(self._num, self._den)

    def __add__(self, other: "Phase") -> "Phase":
        # the zero phase (and only it) carries no domain: adding it is free
        if other.domain is None:
            return self
        if self.domain is None:
            return other
        if self.domain != other.domain:
            raise DomainMismatch("cannot combine U-scale and V-scale phases")
        d1, d2 = self._den, other._den
        if d1 == d2:
            return ratio_phase(self._num + other._num, d1, self.domain)
        return ratio_phase(self._num * d2 + other._num * d1, d1 * d2, self.domain)

    def __neg__(self) -> "Phase":
        return self if self.domain is None else ratio_phase(-self._num, self._den, self.domain)

    def scaled(self, k: int, domain: str | None = None) -> "Phase":
        """e(k q) for an integer k, on `domain` (this phase's own by default)."""
        return ratio_phase(k * self._num, self._den, domain or self.domain)

    def is_zero(self) -> bool:
        return self._num == 0

    def __repr__(self) -> str:
        return f"Phase(q={self.q!r}, domain={self.domain!r})"


def _store_phase(x: Phase, num: int, den: int, domain: str | None) -> None:
    """Fill x with num/den (den > 0) reduced into [0, 1) and to lowest terms.
    Canonical: q = 0 carries no scale; nonzero untagged phases are
    scale-free roots of unity and behave like the V (unit-circle) rule."""
    num %= den
    g = math.gcd(num, den)
    d = x.__dict__
    d["_num"] = num // g
    d["_den"] = den // g
    d["domain"] = (domain or "V") if num else None


def ratio_phase(num: int, den: int, domain: str | None = None) -> Phase:
    """e(num/den @ domain) for integers num and den > 0, reduced here: the
    constructor for phases computed inside the calculus, which checks
    neither the types nor the domain tag."""
    x = object.__new__(Phase)
    _store_phase(x, num, den, domain)
    return x


def rational_parts(x, what: str) -> tuple[int, int]:
    """(numerator, denominator) of x, lowest terms with a positive
    denominator, when x is an int (a bool is not) or a Fraction; ArithError
    naming `what` otherwise.  The check on rational input at the boundary
    of the coefficient ring."""
    if type(x) is int:
        return x, 1
    if isinstance(x, Fraction):
        return int(x.numerator), int(x.denominator)
    if isinstance(x, int) and not isinstance(x, bool):
        return int(x), 1
    raise ArithError(f"{what} must be an int or a Fraction, got {x!r}")


class Params:
    """The realised tower.  Immutable after construction apart from lazy
    caches of xi_2M roots (ep^((p-1)/2M)), their power tables and canonical
    square roots, which are safe to share."""

    def __init__(self, m: int, k_mult: int, p: int, epsilon: int):
        self.m = m
        self.k_mult = k_mult
        self.l = m * m
        self.j = m * k_mult
        self.i = self.j * self.j
        self.N_v = self.l
        self.N_u = self.l * self.i
        self.p = p
        self.epsilon = epsilon
        self._xi: dict[int, int] = {}
        self._powers: dict[int, np.ndarray] = {}
        self._sqrt_cache: dict[int, int] = {}
        self._validate()

    def _validate(self) -> None:
        if self.m < 1 or self.k_mult < 1:
            raise ArithError("m and k_mult must be positive")
        if (self.p - 1) % (8 * self.N_u):
            raise ArithError("8*N_u must divide p - 1")
        if self.p >= 1 << 63:
            raise ArithError("p must fit in 63 bits")
        if self.N_v % 4:
            raise ArithError("4 must divide N_v")
        if not is_probable_prime(self.p):
            raise ArithError(f"p = {self.p} is not prime")
        self._p1_factors = _p1_factorization(self.p, 8 * self.N_u)
        p, eps = self.p, self.epsilon
        if not 1 < eps < p or any(pow(eps, (p - 1) // q, p) == 1 for q in self._p1_factors):
            raise ArithError(f"epsilon = {eps} is not a primitive root mod p = {p}")

    # -- characters ---------------------------------------------------------

    def xi(self, two_m: int) -> FpElem:
        """The canonical 2M-th root of unity, epsilon**((p-1)/2M)."""
        if two_m <= 0 or (self.p - 1) % two_m:
            raise IncompatiblePhase(f"order {two_m} does not divide p - 1")
        w = self._xi.get(two_m)
        if w is None:
            w = pow(self.epsilon, (self.p - 1) // two_m, self.p)
            self._xi[two_m] = w
        return w

    def power_table(self, two_m: int) -> np.ndarray:
        """xi_2M**k mod p for k in [0, 2M), cached; dtype ``exact_dtype(p)``
        (int64 when p < 2^31, Python ints otherwise).  ArithError, before
        anything is allocated, for 2M above MAX_POWER_TABLE."""
        table = self._powers.get(two_m)
        if table is None:
            if two_m > MAX_POWER_TABLE:
                raise ArithError(f"a power table of {two_m} entries exceeds the bound {MAX_POWER_TABLE}")
            p, xi = self.p, self.xi(two_m)
            table = np.empty(two_m, dtype=exact_dtype(p))
            table[0] = 1
            k = 1
            while k < two_m:  # doubling: table[k:2k] = table[:k] * xi^k
                n = min(k, two_m - k)
                table[k:k + n] = table[:n] * pow(xi, k, p) % p
                k += n
            self._powers[two_m] = table
        return table

    def char_e(self, phase: Phase | Fraction) -> FpElem:
        """e(q) = epsilon^((p-1) q); multiplicative in q.  A bare q must be
        an int or a Fraction."""
        if isinstance(phase, Phase):
            n, d = phase._num, phase._den
        else:
            n, d = rational_parts(phase, "a phase")
            n %= d
        if (self.p - 1) % d:
            raise IncompatiblePhase(f"phase denominator {d} incompatible with p - 1")
        return pow(self.xi(d), n, self.p) if n else 1

    # -- square roots -------------------------------------------------------

    def sqrt_canonical(self, M: int) -> FpElem:
        """Canonical square root of M mod p: e(-1/8) * sum_{0<n<=M} xi_2M^(n*n).

        This is the image of the positive real sqrt(M) under the ring
        homomorphism Z[zeta_2M] -> F_p, zeta |-> xi_2M, so products of
        canonical roots agree with canonical roots of products.
        """
        if M % 4:
            raise ArithError("sqrt_canonical needs 4 | M")
        cached = self._sqrt_cache.get(M)
        if cached is not None:
            return cached
        p = self.p
        root = self.power_sum(2 * M, 1, 0, 0, M) * self.char_e(Fraction(-1, 8)) % p
        if root * root % p != M % p:
            raise ArithError(f"canonical sqrt failed for M={M}")  # unreachable if tower valid
        self._sqrt_cache[M] = root
        return root

    def power_sum(self, two_m: int, a: int, b: int, lo: int, hi: int) -> FpElem:
        """sum_{lo < n <= hi} xi_2M^(a n^2 + 2 b n) mod p, in blocks of at
        most BLOCK terms.  A block starting at n0 writes n = n0 + k, so
        that a n^2 + 2 b n = c0 + (a k + c1) k with c0 and c1 reduced mod 2M:
        its exponents take one reduction mod 2M, are gathered from the power
        table, and their sum is multiplied by xi_2M^c0.  With a, c1 < 2M and
        k < BLOCK, (a k + c1) k < 2M BLOCK^2, which fits int64 for every
        2M < 2^33; a larger 2M raises ArithError (before its power table
        is built), and so does a 2M that does not divide p - 1.  A cached
        table has passed both checks, so they run only when it is built.

        On a short window the cost is the number of numpy calls, not of
        terms, so a block makes six and allocates two arrays: the product
        a k, updated in place (+ c1, * k, % 2M), the gather and one
        np.add.reduce."""
        table = self._powers.get(two_m)
        if table is None:
            self.xi(two_m)  # raises for an empty window too
            if two_m >> 33:
                raise ArithError(f"power_sum needs 2M < 2^33, got {two_m}")
            table = self.power_table(two_m)
        a %= two_m
        total = 0
        for start in range(lo + 1, hi + 1, BLOCK):
            k = _OFFSETS[:hi + 1 - start]
            e = a * k
            e += 2 * (a * start + b) % two_m
            e *= k
            e %= two_m
            total += int(table[(a * start + 2 * b) * start % two_m]) * int(np.add.reduce(table[e]))
        return total % self.p

    def sqrt_squarefree(self, r: int) -> FpElem:
        """Canonical sqrt of a squarefree r >= 1, via sqrt_canonical(4r)/2
        ((p + 1) / 2 is the inverse of 2)."""
        if r == 1:
            return 1
        return self.sqrt_canonical(4 * r) * ((self.p + 1) // 2) % self.p

    # -- serialisation ------------------------------------------------------

    def to_dict(self) -> dict[str, int]:
        return {
            "m": self.m,
            "k_mult": self.k_mult,
            "l": self.l,
            "j": self.j,
            "i": self.i,
            "N_v": self.N_v,
            "N_u": self.N_u,
            "p": self.p,
            "epsilon": self.epsilon,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Params":
        """The Params of a document with integer fields m, k_mult, p and
        epsilon; the derived fields, where present, must agree."""
        if not isinstance(d, dict):
            raise ArithError("a Params document must be an object")
        for key in ("m", "k_mult", "p", "epsilon"):
            if key not in d:
                raise ArithError(f"Params document lacks {key!r}")
        params = cls(*(require_int(d[key], f"Params field {key!r}") for key in ("m", "k_mult", "p", "epsilon")))
        for key in ("l", "j", "i", "N_v", "N_u"):
            if key in d and require_int(d[key], f"Params field {key!r}") != getattr(params, key):
                raise ArithError(f"inconsistent field {key!r} in serialized Params")
        return params

    def to_toml(self) -> str:
        return "".join(f"{k} = {v}\n" for k, v in sorted(self.to_dict().items()))

    def __repr__(self) -> str:
        return f"Params(m={self.m}, k={self.k_mult}, N_v={self.N_v}, N_u={self.N_u}, p={self.p})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Params) and self.to_dict() == other.to_dict()

    def __hash__(self) -> int:
        return hash((self.m, self.k_mult, self.p, self.epsilon))


def load_params(text: str) -> Params:
    """Parse a Params document, JSON or TOML (flat integer fields);
    ArithError naming a field given twice, or a TOML value that is not an
    integer."""
    text = text.strip()
    if text.startswith("{"):
        return Params.from_dict(json.loads(text, object_pairs_hook=fields_once))
    pairs = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, value = line.partition("=")
        if not _:
            raise ArithError(f"bad TOML line in Params document: {line!r}")
        key, value = key.strip(), value.strip()
        try:
            pairs.append((key, int(value)))
        except ValueError:
            raise ArithError(f"Params field {key!r} must be an integer, got {value!r}") from None
    return Params.from_dict(fields_once(pairs))


def fields_once(pairs, what: str = "Params field") -> dict:
    """A document's (key, value) pairs as a dict; ArithError naming, as
    `what`, a key given twice."""
    fields = {}
    for key, value in pairs:
        if key in fields:
            raise ArithError(f"{what} {key!r} given twice")
        fields[key] = value
    return fields


P1_TRIAL_LIMIT = 1 << 20  # trial divisors of (p - 1) / 8N_u: about half a million, well under a second


def _p1_factorization(p: int, modulus: int) -> dict[int, int]:
    """Prime factorisation of p - 1 = modulus * c; the modulus (8 N_u, a
    product of small primes) and c are factored apart, c by trial divisors
    up to P1_TRIAL_LIMIT.  ArithError naming p where what is left of c then
    is not prime (is_probable_prime is deterministic below 3.3e24)."""
    factors = factorize(modulus)
    for q, e in factorize((p - 1) // modulus, P1_TRIAL_LIMIT).items():
        if q > P1_TRIAL_LIMIT and not is_probable_prime(q):
            raise ArithError(f"p - 1 for p = {p} has a composite factor {q} with no prime factor up to "
                             f"{P1_TRIAL_LIMIT}, so epsilon cannot be checked as a primitive root")
        factors[q] = factors.get(q, 0) + e
    return factors


def smallest_primitive_root(p: int, p1_factors: dict[int, int]) -> int:
    primes = list(p1_factors)
    g = 2
    while True:
        if all(pow(g, (p - 1) // q, p) != 1 for q in primes):
            return g
        g += 1


@lru_cache(maxsize=None)
def _find_params_cached(m_base: int, k_mult: int, limit: int) -> Params:
    l = m_base * m_base
    i = (m_base * k_mult) ** 2
    modulus = 8 * l * i
    p = 0
    for c in range(1, limit + 1):
        cand = modulus * c + 1
        if is_probable_prime(cand):
            p = cand
            break
    if not p:
        raise SearchExhausted(
            f"no prime = 1 mod {modulus} among the first {limit} candidates"
        )
    if p >= 1 << 63:
        raise SearchExhausted("smallest admissible prime exceeds 63 bits")
    return Params(m_base, k_mult, p, smallest_primitive_root(p, _p1_factorization(p, modulus)))


def find_params(spec: ParamSpec) -> Params:
    """Deterministic tower search: smallest prime p = 1 (mod 8*N_u) by
    ascending scan over 8*N_u*c + 1, then the smallest primitive root."""
    return _find_params_cached(spec.m_base, spec.k_mult, spec.prime_search_limit)


def default_params() -> Params:
    """The default desk-scale tower (m=12, k=2): N_v=144, N_u=82944."""
    return find_params(ParamSpec())

