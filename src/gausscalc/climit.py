"""Continuum-limit side: limit maps on states, Gaussian/Fresnel integrals
in closed form and by quadrature, the finite-to-continuum convergence
harness, and the harmonic-oscillator propagator.

Scaling conventions (fixed here, once):

* positions map as x = r / sqrt(N); a ket (1/sqrt(N)) e(-(A r^2 + 2B r)/2N)
  has the displayed limit e^{-pi(A x^2 + 2 B' x)} (U scale, Euclidean) or
  e^{-pi i (A x^2 + 2 B' x)} (V scale, Hermitian), with B' = B/sqrt(N);
* the Hermitian pairing conjugates the *first* slot.  With the displayed
  limits this reproduces, exactly, the phase e^{+i pi/4}/sqrt(A) that the
  rescaled finite inner products converge to: the finite side conjugates
  the second slot, but its F_p phases shadow to e^{-2 pi i q}, and the two
  conventions cancel.  The quadrature oracle below confirms the constant;
  the conjugate convention (second-slot, textbook Fresnel e^{-i pi/4})
  differs by overall conjugation only.

Fixed standard linear/parameter data in the finite forms contributes
remainder phases e(c/2N) -> 1; at finite N these are the deviations the
convergence harness measures (they shrink like 1/N).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .arith import BLOCK, ArithError, ParamSpec, Params, find_params
from .coeffring import GaussCoeff, to_complex
from .hilbert import (
    GaussState,
    QuadForm,
    domain_u,
    domain_v,
    gauss_ket,
    inner,
)

_SQRT_PI = math.sqrt(math.pi)


class CausticError(ArithError):
    pass


class NonConvergent(ArithError):
    pass


@dataclass(frozen=True)
class ContinuumGaussian:
    """x |-> c * e^{-pi (A x^2 + 2 B x)} (Euclidean) or
    c * e^{-pi i (A x^2 + 2 B x)} (Hermitian)."""

    kind: str
    c: complex = 1.0 + 0j
    A: float = 1.0
    B: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("Euclidean", "Hermitian"):
            raise ArithError("kind must be 'Euclidean' or 'Hermitian'")
        if self.A < 0:
            raise ArithError("A must be nonnegative")

    def __call__(self, x):
        quad = self.A * x * x + 2.0 * self.B * x
        if self.kind == "Euclidean":
            return self.c * np.exp(-math.pi * quad)
        return self.c * np.exp(-1j * math.pi * quad)


def lm_state(params: Params, s: GaussState) -> ContinuumGaussian:
    """The displayed continuum limit of a normalised admissible ket:
    coefficient to_complex(sqrt(N) * coeff), A = |qA|/den,
    B = -qL/(den*sqrt(N_v))."""
    if s.qA > 0:
        raise ArithError("limit needs an admissible (A <= 0) phase")
    if s.domain.tag == "V":
        kind = "Hermitian"
        root_n = GaussCoeff.rational(params.m)
    else:
        kind = "Euclidean"
        root_n = GaussCoeff.rational(params.m) * GaussCoeff.j_power(1)
    c = to_complex(params, root_n * s.coeff)
    A = Fraction(-s.qA, s.den)
    B = -s.qL / (s.den * params.m)
    return ContinuumGaussian(kind, c, float(A), float(B))


def position_pairing(g: ContinuumGaussian, x: float) -> complex:
    """<g | u[x]> at the limit level is the pointwise value g(x)."""
    return complex(g(x))


# -- closed forms ---------------------------------------------------------------


def continuum_inner_closed(g1: ContinuumGaussian, g2: ContinuumGaussian) -> complex:
    """Euclidean: int c1 c2 e^{-pi(A x^2 + 2 B x)} dx = c1 c2 e^{pi B^2/A}/sqrt(A),
    A = A1 + A2 > 0.  Hermitian (first slot conjugated): A = A1 - A2 != 0,
    value conj(c1) c2 e^{sign(A) i pi/4} e^{-i pi B^2/A} / sqrt(|A|)."""
    if g1.kind != g2.kind:
        raise ArithError("mixed pairing kinds")
    if g1.kind == "Euclidean":
        A = g1.A + g2.A
        B = g1.B + g2.B
        if A <= 0:
            raise NonConvergent("Euclidean pairing needs A1 + A2 > 0")
        return g1.c * g2.c * math.exp(math.pi * B * B / A) / math.sqrt(A)
    A = g1.A - g2.A
    B = g1.B - g2.B
    if A == 0:
        raise NonConvergent("Hermitian pairing degenerate at A1 - A2 = 0")
    phase = cmath.exp(1j * math.copysign(math.pi / 4, A)) * cmath.exp(
        -1j * math.pi * B * B / A
    )
    return g1.c.conjugate() * g2.c * phase / math.sqrt(abs(A))


def fresnel_quadratic(alpha: float, beta: float = 0.0, gamma: float = 0.0) -> complex:
    """int e^{i (alpha y^2 + beta y + gamma)} dy, principal value:
    sqrt(pi/|alpha|) e^{i sign(alpha) pi/4} e^{i (gamma - beta^2/(4 alpha))}."""
    if alpha == 0:
        raise NonConvergent("fresnel_quadratic needs alpha != 0")
    mag = _SQRT_PI / math.sqrt(abs(alpha))
    return mag * cmath.exp(
        1j * (math.copysign(math.pi / 4, alpha) + gamma - beta * beta / (4 * alpha))
    )


# -- quadrature -----------------------------------------------------------------


def _simpson(f, lo: float, hi: float, n: int):
    """Composite Simpson with an even number of panels, in chunks of BLOCK
    grid points: f[0] + f[n] + 4 * (sum over odd i) + 2 * (sum over even
    0 < i < n), the parity taken from the global index i.  `f` maps a chunk
    of grid points to real values along the last axis (one row, or real and
    imaginary parts stacked); the result has f's leading shape."""
    if n % 2:
        n += 1
    h = (hi - lo) / n
    odd = even = ends = 0.0
    for start in range(0, n + 1, BLOCK):  # BLOCK is even: chunks start at even i
        stop = min(start + BLOCK, n + 1)
        y = f(lo + np.arange(start, stop) * h)
        even = even + y[..., 0::2].sum(axis=-1)
        odd = odd + y[..., 1::2].sum(axis=-1)
        if start == 0:
            ends = ends + y[..., 0]
        if stop == n + 1:
            ends = ends + y[..., -1]
    return (4.0 * odd + 2.0 * even - ends) * h / 3.0


def _mollified_phase(x, A: float, B: float, eps: float):
    """e^{pi i (A x^2 + 2 B x) - eps x^2} as stacked real and imaginary
    parts.  q = A x^2 + 2 B x is reduced exactly to q - 2 rint(q/2) in
    [-1, 1], so cos and sin see angles in [-pi, pi]."""
    q = A * x * x + 2 * B * x
    q -= 2.0 * np.rint(0.5 * q)
    q *= math.pi
    out = np.empty((2, x.size))
    np.cos(q, out=out[0])
    np.sin(q, out=out[1])
    out *= np.exp(-eps * x * x)
    return out


def continuum_inner_quadrature(
    g1: ContinuumGaussian,
    g2: ContinuumGaussian,
    window: float = 10.0,
    step: float = 1e-3,
    mollifier_tol: float = 0.2,
) -> complex:
    """Numerical oracle for continuum_inner_closed.

    Euclidean: composite Simpson of e^{-pi((A1 + A2) x^2 + 2 (B1 + B2) x)}
    over [-window, window], times c1 c2.
    Hermitian: the integrand only oscillates, so it is damped by e^{-eps x^2}
    for eps in {1e-2, 1e-3} and Richardson-extrapolated linearly in eps
    (the m -> infinity truncation limit, realised stably).  Raises
    NonConvergent when the two mollified values disagree wildly."""
    if g1.kind != g2.kind:
        raise ArithError("mixed pairing kinds")
    if step >= window / 100:
        raise ArithError("need step < window/100")
    if g1.kind == "Euclidean":
        A = g1.A + g2.A
        B = g1.B + g2.B

        def f(x):
            return np.exp(-math.pi * (A * x * x + 2 * B * x))

        n = int(2 * window / step)
        return complex(g1.c * g2.c * _simpson(f, -window, window, n))

    A = g1.A - g2.A
    B = g1.B - g2.B
    cpair = g1.c.conjugate() * g2.c
    values = []
    for eps in (1e-2, 1e-3):
        w = max(window, 6.0 / math.sqrt(eps))
        # resolve the oscillation at the mollifier edge: >= 40 points per
        # local wavelength 1/(|A| x + |B|)
        rate = abs(A) * w + abs(B) + 1.0
        h = min(step, 1.0 / (40.0 * rate))
        n = int(2 * w / h)
        re, im = _simpson(lambda x, eps=eps: _mollified_phase(x, A, B, eps), -w, w, n)
        values.append(cpair * complex(re, im))
    v1, v2 = values
    if abs(v1 - v2) > mollifier_tol * max(1.0, abs(v2)):
        raise NonConvergent(f"mollified values diverge: {v1} vs {v2}")
    eps1, eps2 = 1e-2, 1e-3
    return (eps1 * v2 - eps2 * v1) / (eps1 - eps2)


# -- finite-to-continuum convergence ---------------------------------------------


@dataclass
class LimitReport:
    kind: str
    N_sequence: list[int]
    finite_values: list[complex]
    continuum_value: complex
    errors: list[float]
    degenerate: bool = False
    note: str = ""

    def tail_monotone(self, last: int = 3, slack: float = 0.0) -> bool:
        tail = self.errors[-last:]
        return all(b <= a * (1 + slack) + 1e-15 for a, b in zip(tail, tail[1:]))

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "N_sequence": self.N_sequence,
            "finite_values": [[v.real, v.imag] for v in self.finite_values],
            # a degenerate check has no continuum value (NaN, which JSON cannot carry)
            "continuum_value": None if self.degenerate else [self.continuum_value.real,
                                                              self.continuum_value.imag],
            "errors": self.errors,
            "degenerate": self.degenerate,
            "note": self.note,
        }


def convergence_check(
    form1: QuadForm,
    p1: int,
    form2: QuadForm,
    p2: int,
    kind: str,
    N_sequence,
    k_mult: int = 1,
    mode: str = "extended",
    b_cont: float = 0.0,
) -> LimitReport:
    """Rebuild the tower for each N (= N_v = m^2), form the two normalised
    kets, take the exact formal inner product, rescale by m and push through
    to_complex; compare against the continuum closed form of the limiting
    Gaussians.  Fixed integer data in the forms scales away like 1/N
    (remainder phases e(c/2N) -> 1): those remainders are the recorded
    deviations.

    A nonzero ``b_cont`` asks for a surviving continuum linear part: the
    finite linear coefficient must grow like sqrt(N), realised here as
    aa * round(b_cont * m / aa) added to the first ket (aa = |combined A|,
    keeping the divisibility guard satisfiable).  Hermitian only: on the
    U scale the linear remainder is a real exponential that suppresses the
    pairing instead of oscillating, so real-linear Euclidean displays are
    not limits of U-lattice kets."""
    if kind not in ("Euclidean", "Hermitian"):
        raise ArithError("kind must be 'Euclidean' or 'Hermitian'")
    if b_cont and kind == "Euclidean":
        raise ArithError("surviving linear parts are supported on the Hermitian side only")
    finite_values: list[complex] = []
    Ns = list(N_sequence)
    A1, A2 = -form1.A, -form2.A
    combined = A1 + A2 if kind == "Euclidean" else A1 - A2
    g1 = ContinuumGaussian("Euclidean" if kind == "Euclidean" else "Hermitian", 1.0, A1, b_cont)
    g2 = ContinuumGaussian(g1.kind, 1.0, A2, 0.0)
    if combined == 0:
        return LimitReport(
            kind, Ns, [], complex("nan"), [], degenerate=True,
            note="combined A = 0: finite extended mode counts the domain "
            "(delta-like), the continuum integral diverges; declared-zero "
            "in strict mode",
        )
    continuum = continuum_inner_closed(g1, g2)
    aa = abs(combined)
    errors = []
    for N in Ns:
        m = math.isqrt(N)
        if m * m != N:
            raise ArithError(f"N = {N} is not a perfect square")
        params_n = find_params(ParamSpec(m_base=m, k_mult=k_mult))
        dom = domain_u(params_n) if kind == "Euclidean" else domain_v(params_n)
        s1 = gauss_ket(params_n, dom, form1, p_param=p1)
        if b_cont:
            extra = aa * round(b_cont * params_n.m / aa)
            s1 = replace(s1, qL=s1.qL + extra)
        s2 = gauss_ket(params_n, dom, form2, p_param=p2)
        value = inner(params_n, s1, s2, kind, mode)
        rescaled = GaussCoeff.rational(params_n.m) * value
        finite = to_complex(params_n, rescaled)
        finite_values.append(finite)
        errors.append(abs(finite - continuum))
    return LimitReport(kind, Ns, finite_values, continuum, errors)


# -- harmonic oscillator ---------------------------------------------------------


def free_kernel(t: float, hbar: float = 1.0):
    """Free-particle propagator e^{-i pi/4} sqrt(1/(2 pi hbar t))
    e^{i (x-x0)^2/(2 hbar t)}."""
    if t == 0:
        raise CausticError("free kernel undefined at t = 0")
    pref = cmath.exp(-1j * math.pi / 4) / math.sqrt(2 * math.pi * hbar * abs(t))

    def kernel(x: float, x0: float) -> complex:
        return pref * cmath.exp(1j * (x - x0) ** 2 / (2 * hbar * t))

    return kernel


def ho_propagator(omega: float, t: float, hbar: float = 1.0):
    """Harmonic-oscillator propagator

        e^{-i pi/4} sqrt(omega / (2 pi hbar |sin omega t|)) *
        exp(i omega ((x^2 + x0^2) cos omega t - 2 x x0) / (2 hbar sin omega t))

    pointwise in (x, x0); caustics (sin omega t = 0) raise."""
    s = math.sin(omega * t)
    if abs(s) < 1e-12:
        raise CausticError(f"caustic: sin(omega t) = {s}")
    c = math.cos(omega * t)
    pref = cmath.exp(-1j * math.pi / 4) * math.sqrt(
        omega / (2 * math.pi * hbar * abs(s))
    )

    def kernel(x: float, x0: float) -> complex:
        phase = omega * ((x * x + x0 * x0) * c - 2 * x * x0) / (2 * hbar * s)
        return pref * cmath.exp(1j * phase)

    return kernel


def ho_compose_closed(omega: float, t1: float, t2: float, x: float, x0: float,
                      hbar: float = 1.0) -> complex:
    """int K(x, y; t1) K(y, x0; t2) dy via the Fresnel closed form."""
    s1, s2 = math.sin(omega * t1), math.sin(omega * t2)
    if abs(s1) < 1e-12 or abs(s2) < 1e-12:
        raise CausticError("caustic in a composition factor")
    c1, c2 = math.cos(omega * t1), math.cos(omega * t2)
    w = omega / (2 * hbar)
    alpha = w * (c1 / s1 + c2 / s2)
    beta = -2 * w * (x / s1 + x0 / s2)
    gamma = w * (x * x * c1 / s1 + x0 * x0 * c2 / s2)
    pref = cmath.exp(-1j * math.pi / 2) * (omega / (2 * math.pi * hbar)) / math.sqrt(
        abs(s1) * abs(s2)
    )
    return pref * fresnel_quadratic(alpha, beta, gamma)
