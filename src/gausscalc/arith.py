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
otherwise (``exact_dtype``); exponents of the roots xi_2M are reduced
mod 2M the same way (``poly_mod``) and read from a cached power table.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

FpElem = int

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
BLOCK = 1 << 15  # elements per vectorised block of the literal oracles


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


def factorize(n: int) -> dict[int, int]:
    """Prime factorisation by trial division (inputs here are smooth or small)."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
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
    """x when it is an integer (a bool is not); ArithError naming `what`
    otherwise.  The check on integer fields of documents read from outside."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    raise ArithError(f"{what} must be an integer, got {x!r}")


def solve_congruence(a: int, b: int, m: int) -> tuple[int, int] | None:
    """Solve a*x = b (mod m); returns (step, base) with x = base + step*Z, or None.

    step = m // gcd(a, m); base is the least nonnegative representative.
    """
    if m <= 0:
        raise ArithError("modulus must be positive")
    a %= m
    b %= m
    if a == 0:
        return (1, 0) if b == 0 else None
    import math

    g = math.gcd(a, m)
    if b % g:
        return None
    m1 = m // g
    x0 = (b // g) * pow(a // g, -1, m1) % m1
    return (m1, x0)


def exact_dtype(bound: int):
    """The array dtype for exact arithmetic on integers below `bound`:
    int64 while the product of two of them fits (bound <= 2^31), else
    object arrays of Python ints."""
    return np.int64 if bound <= 1 << 31 else object


def poly_mod(m: int, terms):
    """sum of c * x1 * x2 * ... mod m over `terms` (c, x1, x2, ...), exact.

    Each x is an int or an integer array (arrays broadcast, so the result
    is elementwise); every factor is reduced below m and every product
    reduced before the next, in the dtype ``exact_dtype(m)``, so that big
    Python ints and int64 arrays mix without overflow.  An array that
    recurs (the same object, within a term or across terms) is converted
    and reduced once; the sum of the reduced terms is reduced once, at
    the end."""
    dt = exact_dtype(m)
    reduced: dict[int, object] = {}
    total = 0
    for c, *xs in terms:
        t = c % m
        for x in xs:
            if isinstance(x, int):
                x %= m
            else:
                key = id(x)
                r = reduced.get(key)
                if r is None:
                    r = reduced[key] = np.asarray(x, dtype=dt) % m
                x = r
            t = t * x % m
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


@dataclass(frozen=True)
class Phase:
    """A rational phase q (mod 1) naming the root of unity e(q) = exp_p((p-1)q).

    ``domain`` tags which scale the phase lives on: 'V' (quantum/Hermitian),
    'U' (statistical/Euclidean) or None for scale-free roots of unity.
    """

    q: Fraction
    domain: str | None = None

    def __post_init__(self) -> None:
        if self.domain not in (None, "U", "V"):
            raise ArithError("domain tag must be 'U', 'V' or None")
        q = Fraction(self.q) % 1
        object.__setattr__(self, "q", q)
        # canonical: q = 0 carries no scale; nonzero untagged phases are
        # scale-free roots of unity and behave like the V (unit-circle) rule
        if q == 0:
            object.__setattr__(self, "domain", None)
        elif self.domain is None:
            object.__setattr__(self, "domain", "V")

    @property
    def balanced(self) -> Fraction:
        """Representative in [-1/2, 1/2) -- used by the real (U-scale) limit."""
        return self.q - 1 if self.q >= Fraction(1, 2) else self.q

    def __add__(self, other: "Phase") -> "Phase":
        # the zero phase (and only it) carries no domain: adding it is free
        if other.domain is None:
            return self
        if self.domain is None:
            return other
        if self.domain != other.domain:
            raise DomainMismatch("cannot combine U-scale and V-scale phases")
        return Phase(self.q + other.q, self.domain)

    def __neg__(self) -> "Phase":
        return self if self.domain is None else Phase(-self.q, self.domain)

    def is_zero(self) -> bool:
        return self.q == 0


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

    def exp_p(self, eta: int) -> FpElem:
        """epsilon**eta mod p; kernel exactly (p-1)Z."""
        return pow(self.epsilon, eta % (self.p - 1), self.p)

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
        (int64 when p < 2^31, Python ints otherwise)."""
        table = self._powers.get(two_m)
        if table is None:
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

    def xi_powers(self, two_m: int, exps) -> np.ndarray:
        """xi_2M**exps mod p for an array of exponents already reduced to
        [0, 2M): a gather from the power table."""
        return self.power_table(two_m)[np.asarray(exps, dtype=np.intp)]

    def char_e(self, phase: Phase | Fraction) -> FpElem:
        """e(q) = exp_p((p-1) * q); multiplicative in q."""
        q = phase.q if isinstance(phase, Phase) else Fraction(phase) % 1
        if (self.p - 1) % q.denominator:
            raise IncompatiblePhase(
                f"phase denominator {q.denominator} incompatible with p - 1"
            )
        return pow(self.xi(q.denominator), q.numerator, self.p) if q else 1

    # -- orders and square roots -------------------------------------------

    def p1_factorization(self) -> dict[int, int]:
        return self._p1_factors

    def element_order(self, x: FpElem) -> int:
        """Least d >= 1 with x**d = 1, via the factorisation of p - 1."""
        x %= self.p
        if x == 0:
            raise ArithError("zero element has no multiplicative order")
        order = self.p - 1
        for q in self.p1_factorization():
            while order % q == 0 and pow(x, order // q, self.p) == 1:
                order //= q
        return order

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
        """sum_{lo < n <= hi} xi_2M^(a n^2 + 2 b n) mod p, in blocks of
        terms: the summand depends on n mod 2M only, so each block's n run
        from its start mod 2M, and the exponents (a n mod 2M) n + 2b n mod 2M
        (below 2 (2M)^2 + 2 (2M) BLOCK, so int64 for any table that fits in
        memory) are gathered from the power table.  Raises if 2M does not
        divide p - 1."""
        self.xi(two_m)  # raises for an empty window too
        table = self.power_table(two_m)
        a %= two_m
        b2 = 2 * b % two_m
        total = 0
        for start in range(lo + 1, hi + 1, BLOCK):
            n0 = start % two_m
            n = np.arange(n0, n0 + min(BLOCK, hi + 1 - start))
            total += int(table[(a * n % two_m * n + b2 * n) % two_m].sum())
        return total % self.p

    def sqrt_squarefree(self, r: int) -> FpElem:
        """Canonical sqrt of a squarefree r >= 1, via sqrt_canonical(4r)/2
        ((p + 1) / 2 is the inverse of 2)."""
        if r == 1:
            return 1
        return self.sqrt_canonical(4 * r) * ((self.p + 1) // 2) % self.p

    def tonelli_shanks(self, n: int) -> FpElem | None:
        """Any square root of n mod p (branch not canonical); cross-check only."""
        p = self.p
        n %= p
        if n == 0:
            return 0
        if pow(n, (p - 1) // 2, p) != 1:
            return None
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = 2
        while pow(z, (p - 1) // 2, p) != p - 1:
            z += 1
        c = pow(z, q, p)
        x = pow(n, (q + 1) // 2, p)
        t = pow(n, q, p)
        m = s
        while t != 1:
            t2, k = t * t % p, 1
            while t2 != 1:
                t2 = t2 * t2 % p
                k += 1
            b = pow(c, 1 << (m - k - 1), p)
            x = x * b % p
            c = b * b % p
            t = t * c % p
            m = k
        return x

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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def to_toml(self) -> str:
        return "".join(f"{k} = {v}\n" for k, v in sorted(self.to_dict().items()))

    def __repr__(self) -> str:
        return f"Params(m={self.m}, k={self.k_mult}, N_v={self.N_v}, N_u={self.N_u}, p={self.p})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Params) and self.to_dict() == other.to_dict()

    def __hash__(self) -> int:
        return hash((self.m, self.k_mult, self.p, self.epsilon))


def load_params(text: str) -> Params:
    """Parse a Params document, JSON or TOML (flat integer fields)."""
    text = text.strip()
    if text.startswith("{"):
        return Params.from_dict(json.loads(text))
    fields: dict[str, int] = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, value = line.partition("=")
        if not _:
            raise ArithError(f"bad TOML line in Params document: {line!r}")
        fields[key.strip()] = int(value.strip())
    return Params.from_dict(fields)


def _p1_factorization(p: int, modulus: int) -> dict[int, int]:
    """Prime factorisation of p - 1 = modulus * c; the modulus (8 N_u, a
    product of small primes) and c are factored apart."""
    factors = factorize(modulus)
    for q, e in factorize((p - 1) // modulus).items():
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

