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
from .coeffring import GaussCoeff, to_complex, unit_normalization
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
        if not (cmath.isfinite(self.c) and math.isfinite(self.A) and math.isfinite(self.B)):
            raise ArithError("c, A and B must be finite")
        if self.A < 0:
            raise ArithError("A must be nonnegative")

    def __call__(self, x):
        quad = self.A * x * x + 2.0 * self.B * x
        if self.kind == "Euclidean":
            return self.c * np.exp(-math.pi * quad)
        return self.c * np.exp(-1j * math.pi * quad)


def lm_state(params: Params, s: GaussState) -> ContinuumGaussian:
    """The displayed continuum limit of a normalised admissible ket on the
    support kZ + d: coefficient to_complex(sqrt(N) * coeff) / k, A = |qA|/den,
    B = -qL/(den*sqrt(N_v)).  The factor 1/k is the support's density: a
    sum over the coset becomes 1/k of the integral over x = r/sqrt(N)."""
    if s.qA > 0:
        raise ArithError("limit needs an admissible (A <= 0) phase")
    kind = "Hermitian" if s.domain.tag == "V" else "Euclidean"
    c = to_complex(params, unit_normalization(params.m, s.domain.tag).inverse() * s.coeff) / s.support[0]
    A = Fraction(-s.qA, s.den)
    B = -s.qL / (s.den * params.m)
    return ContinuumGaussian(kind, c, float(A), float(B))


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


# A quadrature grid holds at most _MAX_POINTS points.  The largest grid a
# test asks for, the Hermitian A = 4, B = 2 at eps = 1e-3, has about 11.6 M.
_MAX_POINTS = 1 << 24

# The Hermitian sum takes one anchor every _SPAN = _ROOT^2 grid points and
# walks the anchors _BATCH at a time.  Per anchor it takes 2 _ROOT complex
# exps and one (_ROOT x _ROOT) matrix row product, and per grid one chirp
# of _SPAN exps.  Best times of verify's quadrature (A = 1/4, 0.74 M
# points) and of A = 4, B = 2 (11.6 M points) on a 2-CPU x86 host with
# numpy 2 and OpenBLAS: _ROOT = 32, 1.15 ms and 13.6 ms; 64, 0.78 ms and
# 7.4 ms; 128, 0.96 ms and 4.9 ms, where each grid's chirp takes 16,384
# exps against about 2,000 for the anchors of verify's 0.12 M-point
# eps = 1e-2 grid.  A batch of 128 anchors keeps each (_BATCH, _ROOT)
# temporary at 8,192 complex entries, a quarter of one BLOCK chunk of
# _simpson; batches of 32 and 64 were slower at both sizes.
_ROOT = 64
_SPAN = _ROOT * _ROOT
_BATCH = 128
_EPS = (1e-2, 1e-3)  # the Hermitian mollifiers, extrapolated linearly to 0
# the largest estimated relative error of that extrapolation a Hermitian
# quadrature accepts: past it |A| is too small against eps (CHANGES.md has
# the table of estimate against measured error it was chosen from)
_EXTRAPOLATION_BOUND = 2e-4


def _extrapolation_error(A: float, B: float) -> float:
    """The relative error |c2| eps1 eps2 / (pi A)^2 that the linear fit in
    eps leaves in the Hermitian pairing of combined data A, B: the
    second-order term of its expansion in eps / (pi |A|), with
    c2 = -3/8 + u^2/2 + (3/2) i u, u = pi B^2 / |A|; inf at A = 0."""
    if A == 0:
        return math.inf
    u = math.pi * B * B / abs(A)
    return abs(complex(u * u / 2 - 3 / 8, 1.5 * u)) * _EPS[0] * _EPS[1] / (math.pi * A) ** 2


def _grid(kind: str, A: float, B: float, eps: float, window: float, step: float):
    """The Simpson grid lo + i h, 0 <= i <= n, n even, of one quadrature,
    as (lo, h, n).  Euclidean: [-window, window] at the given step.
    Hermitian, mollified by e^{-eps x^2}: the window widened to
    w = 6/sqrt(eps), where the mollifier is e^{-36}, and the step cut so
    that the oscillation at the edge has >= 40 points per local wavelength
    1/(|A| w + |B|).  Raises ArithError, before anything is allocated,
    for a grid of more than _MAX_POINTS = 2^24 points."""
    if kind == "Euclidean":
        w, h = window, step
    else:
        w = max(window, 6.0 / math.sqrt(eps))
        h = min(step, 1.0 / (40.0 * (abs(A) * w + abs(B) + 1.0)))
    n = 2 * w / h if h > 0 else math.inf
    if not n < _MAX_POINTS - 1:
        raise ArithError(
            f"a quadrature grid of {n + 1:.4g} points exceeds the bound of 2^24 = {_MAX_POINTS}"
        )
    n = int(n)
    n += n % 2
    return -w, (w - -w) / n, n


def _simpson(f, lo: float, h: float, n: int):
    """Composite Simpson on the grid (lo, h, n) of _grid, in chunks of
    BLOCK grid points: f[0] + f[n] + 4 * (sum over odd i) + 2 * (sum over
    even 0 < i < n), times h/3, the parity taken from the global index i.
    `f(lo, h, start, stop)` returns the integrand at the grid points
    lo + i h, start <= i < stop, along the last axis (real or complex, one
    row or several stacked); the result has f's leading shape."""
    odd = even = ends = 0.0
    for start in range(0, n + 1, BLOCK):  # BLOCK is even: chunks start at even i
        stop = min(start + BLOCK, n + 1)
        y = f(lo, h, start, stop)
        even = even + y[..., 0::2].sum(axis=-1)
        odd = odd + y[..., 1::2].sum(axis=-1)
        if start == 0:
            ends = ends + y[..., 0]
        if stop == n + 1:
            ends = ends + y[..., -1]
    return (4.0 * odd + 2.0 * even - ends) * h / 3.0


def _reduce(q):
    """q - 2 rint(q/2), in [-1, 1]: the same angle pi q, reduced exactly."""
    return q - 2.0 * np.rint(0.5 * q)


def _cis(q, log_mag):
    """e^{log_mag + pi i q}, with q reduced to [-1, 1] first, so the angle
    handed to exp lies in [-pi, pi]."""
    return np.exp(log_mag + 1j * math.pi * _reduce(q))


def _hermitian_chirp(h: float, A: float, eps: float):
    """chirp[j1, j0] = e^{(pi i A - eps) h^2 j^2}, j = j0 + _ROOT j1 < _SPAN:
    the factor that every anchor shares."""
    hj2 = h * h * np.arange(_SPAN, dtype=float) ** 2
    return _cis(A * hj2, -eps * hj2).reshape(_ROOT, _ROOT)


def _hermitian_factors(lo: float, h: float, anchors, A: float, B: float, eps: float):
    """high[a, j1] and low[a, j0] of the anchors x_a = lo + i_a h, i_a in
    `anchors`, such that the integrand e^{(pi i A - eps) x^2 + 2 pi i B x}
    at the grid point x_a + j h, j = j0 + _ROOT j1, is

        high[a, j1] * low[a, j0] * chirp[j1, j0]

    (chirp from _hermitian_chirp).  With g_a = 2 (pi i A - eps) x_a + 2 pi i B,
    low[a, j0] = e^{g_a h j0}, and high[a, j1] is the anchor's value
    e^{(pi i A - eps) x_a^2 + 2 pi i B x_a} times e^{g_a h _ROOT j1}, formed
    as one exp: the anchor's magnitude e^{-eps x_a^2} is folded into the
    exponent, so high never overflows where the integrand is finite, and
    the anchor's angle and the step's are each reduced before they are
    added.  Every entry is one exp of its own reduced angle, none a running
    product, so rounding does not grow along an anchor's points."""
    xa = lo + anchors * h
    turn = 2.0 * h * (A * xa + B)  # g_a h = pi i turn + damp
    damp = -2.0 * eps * h * xa
    j0 = np.arange(_ROOT, dtype=float)
    low = _cis(np.multiply.outer(turn, j0), np.multiply.outer(damp, j0))
    j1 = _ROOT * j0
    angle = _reduce(A * xa * xa + 2.0 * B * xa)[:, None] + _reduce(np.multiply.outer(turn, j1))
    high = _cis(angle, (-eps * xa * xa)[:, None] + np.multiply.outer(damp, j1))
    return high, low


def _hermitian_simpson(lo: float, h: float, n: int, A: float, B: float, eps: float) -> complex:
    """Composite Simpson of e^{(pi i A - eps) x^2 + 2 pi i B x} on the grid
    (lo, h, n), with no grid value formed.  Anchor a sits at grid index
    a _SPAN, which is even, so the weight of the point j = j0 + _ROOT j1
    past it depends on the parity of j0 alone: w[j0] = 2 or 4.  The
    anchors whose points all lie below n sum as

        sum_a sum_j1 high[a, j1] * ((low * w) @ chirp.T)[a, j1],

    one matrix product per batch of _BATCH anchors.  The last anchor takes
    a masked _ROOT x _ROOT weight matrix (1 at i = n, 0 past it), and y_0 is
    subtracted once so that i = 0 weighs 1.  The grid, its points and its
    weights are those of _simpson."""
    chirp = _hermitian_chirp(h, A, eps)
    w = np.where(np.arange(_ROOT) % 2, 4.0, 2.0)
    wchirp = (chirp * w).T  # [j0, j1]
    last = n // _SPAN
    total = 0j
    for start in range(0, last, _BATCH):
        anchors = np.arange(start, min(start + _BATCH, last)) * _SPAN
        high, low = _hermitian_factors(lo, h, anchors, A, B, eps)
        total += (high * (low @ wchirp)).sum()
    high, low = _hermitian_factors(lo, h, np.array([last * _SPAN]), A, B, eps)
    i = last * _SPAN + np.arange(_SPAN).reshape(_ROOT, _ROOT)
    weight = np.where(i < n, w, np.where(i == n, 1.0, 0.0))
    total += high[0] @ ((weight * chirp) @ low[0])
    total -= complex(_cis(A * lo * lo + 2.0 * B * lo, -eps * lo * lo))
    return complex(total * h / 3.0)


def continuum_inner_quadrature(
    g1: ContinuumGaussian,
    g2: ContinuumGaussian,
    window: float = 10.0,
    step: float = 1e-3,
) -> complex:
    """Numerical oracle for continuum_inner_closed: composite Simpson on
    the grids of _grid, each of at most 2^24 points (ArithError past that,
    before any grid is summed).

    Euclidean: composite Simpson of e^{-pi((A1 + A2) x^2 + 2 (B1 + B2) x)}
    over [-window, window], times c1 c2.
    Hermitian: the integrand only oscillates, so it is damped by e^{-eps x^2}
    for eps in {1e-2, 1e-3} and Richardson-extrapolated linearly in eps
    (the m -> infinity truncation limit, realised stably); each damped sum
    is _hermitian_simpson's, one matrix product per batch of anchors.
    Raises NonConvergent, before any grid is summed, when the fit's
    estimated relative error (_extrapolation_error) exceeds 2e-4, which
    refuses A = A1 - A2 = 0 and small |A| (|A| < 0.0436 at B = 0,
    |A| < 0.1723 at |B| = 0.4); and when the two mollified values disagree
    wildly.  window and step must be finite, with 0 < step < window/100."""
    if g1.kind != g2.kind:
        raise ArithError("mixed pairing kinds")
    if not (math.isfinite(window) and math.isfinite(step) and 0 < step < window / 100):
        raise ArithError("need finite window and step with 0 < step < window/100")
    if g1.kind == "Euclidean":
        A = g1.A + g2.A
        B = g1.B + g2.B

        def f(lo, h, start, stop):
            x = lo + np.arange(start, stop) * h
            return np.exp(-math.pi * (A * x * x + 2 * B * x))

        grid = _grid("Euclidean", A, B, 0.0, window, step)
        return complex(g1.c * g2.c * _simpson(f, *grid))

    A = g1.A - g2.A
    B = g1.B - g2.B
    err = _extrapolation_error(A, B)
    if err > _EXTRAPOLATION_BOUND:
        raise NonConvergent(
            f"the eps extrapolation is off by about {err:.2g} (relative) at A={A}, B={B};"
            f" the bound is {_EXTRAPOLATION_BOUND}"
        )
    cpair = g1.c.conjugate() * g2.c
    grids = [_grid("Hermitian", A, B, eps, window, step) for eps in _EPS]
    v1, v2 = (cpair * _hermitian_simpson(*grid, A, B, eps) for grid, eps in zip(grids, _EPS))
    if abs(v1 - v2) > 0.2 * max(1.0, abs(v2)):
        raise NonConvergent(f"mollified values diverge: {v1} vs {v2}")
    eps1, eps2 = _EPS
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

    def tail_monotone(self) -> bool:
        """Whether the last three errors fall, each within a factor 1 + slack
        of the one before: slack 0.1 for the Hermitian kind, whose errors
        carry the quadrature's, and 0 for the Euclidean one."""
        slack = 0.1 if self.kind == "Hermitian" else 0.0
        tail = self.errors[-3:]
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
        params_n = find_params(ParamSpec(m_base=m, k_mult=1))
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
