import cmath
import math

import pytest

from gausscalc import climit
from gausscalc.arith import ArithError, ParamSpec, find_params
from gausscalc.climit import (
    CausticError,
    ContinuumGaussian,
    NonConvergent,
    continuum_inner_closed,
    continuum_inner_quadrature,
    convergence_check,
    free_kernel,
    fresnel_quadratic,
    ho_compose_closed,
    ho_propagator,
    lm_state,
)
from gausscalc.coeffring import GaussCoeff, to_complex
from gausscalc.dynamics import free_propagator
from gausscalc.hilbert import QuadForm, apply_operator, domain_u, domain_v, gauss_ket, inner


@pytest.fixture(scope="module")
def params():
    return find_params(ParamSpec())


def test_hermitian_continuum_gaussian_is_a_fresnel_phase():
    c, A, B = 0.5 - 2j, 0.75, -0.3
    g = ContinuumGaussian("Hermitian", c, A, B)
    for x in (-2.5, -1.0, 0.0, 0.4, 1.75, 3.0):
        want = c * cmath.exp(-1j * math.pi * (A * x * x + 2 * B * x))
        assert abs(g(x) - want) < 1e-14 * abs(want), x


def test_lm_state_v_ket(params):
    s = gauss_ket(params, domain_v(params), QuadForm(-1, 0, 0))
    g = lm_state(params, s)
    assert g.kind == "Hermitian"
    assert g.A == 1.0 and g.B == 0.0
    assert abs(g.c - 1.0) < 1e-12


def test_lm_state_u_ket(params):
    s = gauss_ket(params, domain_u(params), QuadForm(-1, 0, 0))
    g = lm_state(params, s)
    assert g.kind == "Euclidean"
    assert g.A == 1.0 and abs(g.c - 1.0) < 1e-12


@pytest.mark.parametrize("m", [12, 24])
def test_lm_state_weighs_a_restricted_support_by_its_density(m):
    """P(1) sends gauss_ket(V, (-1, 0, 0)) to a ket on the support 2Z: its
    limit pairs with each full-support ket as m times the finite pairing."""
    P = find_params(ParamSpec(m_base=m, k_mult=1))
    V = domain_v(P)
    image = apply_operator(P, free_propagator(P, 1), gauss_ket(P, V, QuadForm(-1, 0, 0)))
    assert image.support == (2, 0)
    for A2 in (0, -1, -2, -5):
        test = gauss_ket(P, V, QuadForm(A2, 0, 0))
        limit = continuum_inner_closed(lm_state(P, test), lm_state(P, image))
        finite = to_complex(P, GaussCoeff.rational(P.m) * inner(P, test, image, "Hermitian"))
        assert abs(limit - finite) < 1e-12, (m, A2, limit, finite)


def test_euclidean_closed_values():
    g1 = ContinuumGaussian("Euclidean", 1.0, 1.0, 0.0)
    assert abs(continuum_inner_closed(g1, ContinuumGaussian("Euclidean", 1.0, 0.0, 0.0)) - 1.0) < 1e-14
    # A=2, B=1 split across the pair
    ga = ContinuumGaussian("Euclidean", 1.0, 1.0, 1.0)
    gb = ContinuumGaussian("Euclidean", 1.0, 1.0, 0.0)
    want = math.exp(math.pi / 2) / math.sqrt(2)
    assert abs(continuum_inner_closed(ga, gb) - want) < 1e-12


def test_hermitian_closed_phase():
    # <uniform | e^{-pi i x^2}> with the first slot conjugated:
    # integrand e^{+pi i x^2} -> e^{+i pi/4}
    g1 = ContinuumGaussian("Hermitian", 1.0, 1.0, 0.0)
    g0 = ContinuumGaussian("Hermitian", 1.0, 0.0, 0.0)
    val = continuum_inner_closed(g1, g0)
    assert abs(val - cmath.exp(1j * math.pi / 4)) < 1e-14
    assert abs(abs(val) - 1.0) < 1e-14


def test_closed_vs_quadrature_euclidean_grid():
    for A in (1, 2, 3, 4):
        for B in (0, 1, 2):
            g1 = ContinuumGaussian("Euclidean", 1.0, float(A), float(B))
            g2 = ContinuumGaussian("Euclidean", 1.0, 0.0, 0.0)
            closed = continuum_inner_closed(g1, g2)
            quad = continuum_inner_quadrature(g1, g2, window=12.0, step=1e-3)
            assert abs(closed - quad) < 1e-6 * max(1.0, abs(closed)), (A, B)


def test_closed_vs_quadrature_hermitian_grid():
    for A in (1, 2, 3, 4):
        for B in (0, 1, 2):
            g1 = ContinuumGaussian("Hermitian", 1.0, float(A), float(B))
            g2 = ContinuumGaussian("Hermitian", 1.0, 0.0, 0.0)
            closed = continuum_inner_closed(g1, g2)
            quad = continuum_inner_quadrature(g1, g2)
            assert abs(closed - quad) < 1e-3, (A, B, closed, quad)


@pytest.mark.parametrize("A, B", [(0.01, 0.0), (0.02, 0.0), (0.1, 0.4), (0.0, 0.0), (-0.02, 0.4)])
def test_quadrature_refuses_where_its_extrapolation_is_wrong(monkeypatch, A, B):
    """Paired with g(0, 0), the linear fit in eps is off by 3.7e-2 at A = 0.01,
    6.7e-3 at A = 0.02 and 4.3e-3 at A = 0.1, B = 0.4, above verify's 1e-3:
    refused before any grid is summed."""
    def no_sum(*args):
        raise AssertionError("summed a grid of a refused quadrature")

    monkeypatch.setattr(climit, "_hermitian_simpson", no_sum)
    g0 = ContinuumGaussian("Hermitian", 1.0, 0.0, 0.0)
    g = ContinuumGaussian("Hermitian", 1.0, abs(A), B)
    with pytest.raises(NonConvergent, match="eps extrapolation"):
        continuum_inner_quadrature(*((g0, g) if A < 0 else (g, g0)))


@pytest.mark.parametrize("A, B", [(0.0436, 0.0), (0.1723, 0.4), (0.25, 0.4), (1.0, 2.0)])
def test_quadrature_accepts_where_its_extrapolation_holds(A, B):
    """The smallest accepted |A| at B = 0 and at B = 0.4, verify's draw and the
    largest estimate of the suite: within verify's 1e-3 of the closed form."""
    g1, g0 = ContinuumGaussian("Hermitian", 1.0, A, B), ContinuumGaussian("Hermitian", 1.0, 0.0, 0.0)
    assert abs(continuum_inner_quadrature(g1, g0) - continuum_inner_closed(g1, g0)) < 1e-3


def test_quadrature_disjoint_supports():
    # unit-height bumps at x = -1/2 and +1/2 barely overlap
    c = math.exp(-math.pi * 400.0 / 40.0)
    g1 = ContinuumGaussian("Euclidean", c, 40.0, 20.0)
    g2 = ContinuumGaussian("Euclidean", c, 40.0, -20.0)
    val = continuum_inner_quadrature(g1, g2, window=10.0, step=5e-4)
    assert abs(val) < 1e-6


def test_quadrature_guards():
    g = ContinuumGaussian("Euclidean", 1.0, 1.0, 0.0)
    with pytest.raises(Exception):
        continuum_inner_quadrature(g, g, window=1.0, step=0.5)
    for window, step in ((10.0, -1.0), (10.0, 0.0), (math.inf, 1e-3), (10.0, math.nan)):
        with pytest.raises(ArithError, match="0 < step < window/100"):
            continuum_inner_quadrature(g, g, window=window, step=step)


@pytest.mark.parametrize("field, value", [
    ("c", math.nan), ("c", complex(1.0, math.inf)),
    ("A", math.nan), ("A", math.inf), ("B", math.nan), ("B", -math.inf),
])
def test_continuum_gaussian_refuses_non_finite_values(field, value):
    for kind in ("Euclidean", "Hermitian"):
        with pytest.raises(ArithError, match="finite"):
            ContinuumGaussian(kind, **{field: value})


def test_convergence_euclidean(params):
    report = convergence_check(
        QuadForm(-2, 2, -1), 1, QuadForm(0, 0, -2), 1, "Euclidean", [144, 576, 2304]
    )
    assert abs(report.continuum_value - 1 / math.sqrt(2)) < 1e-12
    assert report.errors[0] > report.errors[1] > report.errors[2]
    assert report.errors[-1] < 1e-2
    assert report.tail_monotone()


def test_convergence_hermitian(params):
    report = convergence_check(
        QuadForm(-1, 1, -1), 1, QuadForm(0, 0, -2), 1, "Hermitian", [144, 576, 2304]
    )
    assert abs(abs(report.continuum_value) - 1.0) < 1e-12
    assert report.errors[0] > report.errors[1] > report.errors[2]
    # finite phases approach the e^{+i pi/4} constant
    final = report.finite_values[-1]
    assert abs(cmath.phase(final) - math.pi / 4) < 0.01


def test_convergence_hermitian_surviving_linear_part(params):
    # the `limit --B` path: the finite linear coefficient grows like sqrt(N),
    # so the error still halves as N quadruples
    report = convergence_check(
        QuadForm(-1, 1, -1), 1, QuadForm(0, 0, -2), 1, "Hermitian", [144, 576, 2304], b_cont=0.5
    )
    errors = report.errors
    assert errors[0] > errors[1] > errors[2]
    assert all(1.8 < a / b < 2.3 for a, b in zip(errors, errors[1:])), errors
    assert errors[-1] < 0.1
    with pytest.raises(ArithError, match="Hermitian side only"):
        convergence_check(
            QuadForm(-2, 2, -1), 1, QuadForm(0, 0, -2), 1, "Euclidean", [144], b_cont=0.5
        )


def test_convergence_degenerate_reports(params):
    report = convergence_check(
        QuadForm(-1, 0, 0), 0, QuadForm(-1, 0, 0), 0, "Hermitian", [144]
    )
    assert report.degenerate and "delta" in report.note
    assert report.to_dict()["continuum_value"] is None


def test_fresnel_quadratic_against_mollified():
    import numpy as np

    alpha, beta, gamma = 2.5, 1.0, 0.3
    closed = fresnel_quadratic(alpha, beta, gamma)
    eps_vals = []
    for eps in (1e-2, 1e-3):
        xs = np.linspace(-250, 250, 2_000_001)
        f = np.exp(1j * (alpha * xs * xs + beta * xs + gamma) - eps * xs * xs)
        eps_vals.append(np.trapezoid(f, xs))
    v1, v2 = eps_vals
    extrap = (1e-2 * v2 - 1e-3 * v1) / (1e-2 - 1e-3)
    assert abs(closed - extrap) < 1e-3


def test_ho_caustic(params):
    with pytest.raises(CausticError):
        ho_propagator(1.0, math.pi)
    with pytest.raises(CausticError):
        free_kernel(0.0)


def test_ho_magnitude(params):
    omega, t = 1.0, 0.7
    K = ho_propagator(omega, t)
    want = math.sqrt(omega / (2 * math.pi * math.sin(omega * t)))
    assert abs(abs(K(0.3, 0.3)) - want) < 1e-12


def test_ho_composition_law():
    omega = 1.0
    for t1, t2 in [(0.3, 0.4), (0.5, 0.9), (1.0, 1.2)]:
        K12 = ho_propagator(omega, t1 + t2)
        for x in (-1.0, 0.0, 0.7):
            for x0 in (-0.5, 0.2, 1.3):
                lhs = ho_compose_closed(omega, t1, t2, x, x0)
                rhs = K12(x, x0)
                assert abs(lhs - rhs) < 1e-9, (t1, t2, x, x0)


def test_ho_free_limit():
    t = 1.5
    K_free = free_kernel(t)
    K_small = ho_propagator(1e-7, t)
    for x, x0 in [(0.0, 0.0), (1.0, -1.0), (0.3, 2.0)]:
        assert abs(K_small(x, x0) - K_free(x, x0)) < 1e-9


def test_wick_coherence_at_the_limit(params):
    # pairing a U-ket against the uniform state: the Euclidean limit is
    # real positive; the Hermitian limit of the Wick-rotated pair has the
    # same modulus
    from gausscalc.coeffring import GaussCoeff, to_complex
    from gausscalc.hilbert import inner
    from gausscalc.wick import wick_state

    U = domain_u(params)
    for A in (1, 2, 4):
        # remainder-free pair (no linear/constant data): the finite values
        # realise the limit exactly, so the moduli agree to rounding
        s1 = gauss_ket(params, U, QuadForm(-A, 0, 0))
        s2 = gauss_ket(params, U, QuadForm(0, 0, 0))
        m = GaussCoeff.rational(params.m)
        euclid = to_complex(params, m * inner(params, s1, s2, "Euclidean"))
        assert abs(euclid.imag) < 1e-12 and euclid.real > 0
        w1, w2 = wick_state(params, s1), wick_state(params, s2)
        hermit = to_complex(params, m * inner(params, w1, w2, "Hermitian"))
        assert abs(abs(hermit) - abs(euclid)) < 1e-3, (A, euclid, hermit)
        assert abs(abs(hermit) - 1 / A**0.5) < 1e-12
