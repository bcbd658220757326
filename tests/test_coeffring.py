import cmath
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausscalc import coeffring
from gausscalc.arith import ArithError, DomainMismatch, ParamSpec, Phase, find_params
from gausscalc.coeffring import GaussCoeff, parse_coeff, to_complex, to_fp
from gausscalc.wick import wick_coeff


@pytest.fixture(scope="module")
def params():
    return find_params(ParamSpec())


def rand_coeff(rng, domain=None, max_den=288):
    c = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
    if c == 0:
        c = Fraction(1)
    q = Fraction(rng.randint(0, 2 * max_den - 1), 2 * max_den)
    # rho restricted to divisors of the tower moduli: 8*rho must divide p-1
    return GaussCoeff(
        c,
        rng.choice([1, 2, 3, 6]),
        rng.randint(-3, 3),
        rng.randint(0, 7),
        phase=__import__("gausscalc.arith", fromlist=["Phase"]).Phase(q, domain),
    )


def test_unit_and_zero():
    one = GaussCoeff.one()
    zero = GaussCoeff.zero()
    x = GaussCoeff.sqrt(2) * GaussCoeff.e8_power(3)
    assert x * one == x
    assert (x * zero).is_zero()


def test_sqrt_square_collapse():
    r2 = GaussCoeff.sqrt(2)
    prod = r2 * r2
    assert prod == GaussCoeff.rational(2)
    assert prod.rho == 1 and prod.c == 2


def test_rho_normalisation():
    x = GaussCoeff(Fraction(1), 72)  # 72 = 36 * 2
    assert x.c == 6 and x.rho == 2
    y = GaussCoeff.sqrt(Fraction(1, 2))  # 1/sqrt(2) = sqrt(2)/2
    assert y.c == Fraction(1, 2) and y.rho == 2


def test_e8_order_eight(params):
    x = GaussCoeff.e8_power(4) * GaussCoeff.e8_power(4)
    assert x == GaussCoeff.one()
    assert to_fp(params, GaussCoeff.e8_power(8)) == 1
    assert to_fp(params, GaussCoeff.e8_power(4)) == params.p - 1


def test_j_exponent_not_truncated(params):
    # i^2 != -1 mod p at this tower, so j^8 != 1 in F_p and the exponent
    # must stay unreduced for to_fp to remain a homomorphism.
    x = GaussCoeff.j_power(8)
    assert x != GaussCoeff.one()
    assert to_fp(params, x) == pow(params.j, 8, params.p) != 1


def test_mul_homomorphism_to_fp(params):
    rng = random.Random(95441)
    p = params.p
    for _ in range(150):
        dom = rng.choice([None, "U", "V"])
        x = rand_coeff(rng, dom)
        y = rand_coeff(rng, dom)
        assert to_fp(params, x * y) == to_fp(params, x) * to_fp(params, y) % p


def test_mul_domain_mismatch():
    x = GaussCoeff.phase_of(Fraction(1, 4), "U")
    y = GaussCoeff.phase_of(Fraction(1, 4), "V")
    with pytest.raises(DomainMismatch):
        _ = x * y


def test_conj_involution_and_homomorphism(params):
    rng = random.Random(4242)
    for _ in range(60):
        dom = rng.choice([None, "U", "V"])
        x = rand_coeff(rng, dom)
        y = rand_coeff(rng, dom)
        assert x.conj().conj() == x
        assert (x * y).conj() == x.conj() * y.conj()


def test_conj_rules(params):
    assert GaussCoeff.one().conj() == GaussCoeff.one()
    v = GaussCoeff.phase_of(Fraction(5, 288), "V")
    assert v.conj() == GaussCoeff.phase_of(Fraction(-5, 288), "V")
    u = GaussCoeff.phase_of(Fraction(5, 288), "U")
    assert u.conj() == u
    # e8 inverts, j is pseudo-real (a standard integer residue in F_p)
    assert GaussCoeff.e8_power(1).conj() == GaussCoeff.e8_power(-1)
    assert GaussCoeff.j_power(1).conj() == GaussCoeff.j_power(1)


def test_conj_matches_fp_inverse_on_v_phases(params):
    # with a = b = 0 and a pure V phase, conj is inversion of the phase part
    p = params.p
    x = GaussCoeff(Fraction(3, 2), 2, phase=__import__("gausscalc.arith", fromlist=["Phase"]).Phase(Fraction(7, 288), "V"))
    lhs = to_fp(params, x.conj())
    c_sqrt = 3 * pow(2, -1, p) * params.sqrt_squarefree(2) % p
    phase_inv = pow(params.char_e(Fraction(7, 288)), -1, p)
    assert lhs == c_sqrt * phase_inv % p


def test_to_fp_values(params):
    assert to_fp(params, GaussCoeff.one()) == 1
    assert to_fp(params, GaussCoeff.zero()) == 0
    assert to_fp(params, GaussCoeff.j_power(1)) == params.j
    assert to_fp(params, GaussCoeff.e8_power(1)) == params.char_e(Fraction(1, 8))


def test_to_complex_generators(params):
    assert to_complex(params, GaussCoeff.one()) == 1 + 0j
    assert cmath.isclose(
        to_complex(params, GaussCoeff.j_power(1)), cmath.exp(1j * math.pi / 4)
    )
    # e8 IS the phase e(1/8); under the V rule e(q) -> e^{-2 pi i q}
    assert cmath.isclose(
        to_complex(params, GaussCoeff.e8_power(1)), cmath.exp(-1j * math.pi / 4)
    )
    assert cmath.isclose(
        to_complex(params, GaussCoeff.phase_of(Fraction(1, 4), "V")), -1j
    )


def test_to_complex_u_rule(params):
    # e(q@U) -> exp(-2 pi q N_u/N_v) on the balanced representative
    q = Fraction(1, 2 * params.N_u)
    val = to_complex(params, GaussCoeff.phase_of(q, "U"))
    assert val.imag == 0.0
    assert math.isclose(val.real, math.exp(-2 * math.pi * float(q) * params.i))
    neg = to_complex(params, GaussCoeff.phase_of(-q, "U"))
    assert math.isclose(neg.real, math.exp(2 * math.pi * float(q) * params.i))


def test_to_complex_overflow(params):
    with pytest.raises(OverflowError):
        to_complex(params, GaussCoeff.phase_of(Fraction(-1, 4), "U"))


def test_to_complex_multiplicative(params):
    rng = random.Random(777)
    for _ in range(40):
        x = rand_coeff(rng, "V")
        y = rand_coeff(rng, "V")
        lhs = to_complex(params, x * y)
        rhs = to_complex(params, x) * to_complex(params, y)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_to_complex_conj_coherence_v(params):
    rng = random.Random(12)
    for _ in range(40):
        x = rand_coeff(rng, "V")
        x = GaussCoeff(x.c, x.rho, 0, x.b, x.phase)  # V-domain coefficient: no j part
        lhs = to_complex(params, x.conj())
        rhs = to_complex(params, x).conjugate()
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_e8_matches_phase_eighth(params):
    # same element of F_p under both representations
    assert to_fp(params, GaussCoeff.e8_power(3)) == to_fp(
        params, GaussCoeff.phase_of(Fraction(3, 8), "V")
    )


def test_text_roundtrip():
    rng = random.Random(31337)
    samples = [
        GaussCoeff.zero(),
        GaussCoeff.one(),
        GaussCoeff.rational(Fraction(-3, 7)),
        GaussCoeff.sqrt(2) * GaussCoeff.j_power(-2),
        GaussCoeff.e8_power(5) * GaussCoeff.phase_of(Fraction(7, 288), "U"),
    ] + [rand_coeff(rng, rng.choice([None, "U", "V"])) for _ in range(40)]
    for x in samples:
        assert parse_coeff(str(x)) == x


def test_inverse(params):
    rng = random.Random(5150)
    p = params.p
    for _ in range(30):
        x = rand_coeff(rng, "V")
        assert x * x.inverse() == GaussCoeff.one()
        assert to_fp(params, x.inverse()) == pow(to_fp(params, x), -1, p)


# -- ring operations on normal forms ------------------------------------------
#
# The ring operations build their results from parts already in normal form,
# without the public constructor's normalisation; each must agree with that
# constructor applied to the unreduced parts.

SQUAREFREE = [math.prod(s) for n in range(5) for s in itertools.combinations((2, 3, 5, 7), n)]


@st.composite
def coeffs(draw, rhos=tuple(SQUAREFREE), dens=tuple(range(1, 13))):
    c = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9)))
    q = Fraction(draw(st.integers(-30, 30)), draw(st.sampled_from(dens)))
    phase = Phase(q, draw(st.sampled_from([None, "U", "V"])))
    return GaussCoeff(c, draw(st.sampled_from(rhos)), draw(st.integers(-3, 3)), draw(st.integers()), phase)


def _phase_sum(x: Phase, y: Phase) -> Phase:
    if x.domain is not None and y.domain is not None and x.domain != y.domain:
        raise DomainMismatch("cannot combine U-scale and V-scale phases")
    return Phase(x.q + y.q, x.domain or y.domain)


def _ref_mul(x, y):
    if x.is_zero() or y.is_zero():
        return GaussCoeff(0)
    return GaussCoeff(x.c * y.c, x.rho * y.rho, x.a + y.a, x.b + y.b, _phase_sum(x.phase, y.phase))


def _ref_inverse(x):
    return GaussCoeff(1 / x.c / x.rho, x.rho, -x.a, -x.b, Phase(-x.phase.q, x.phase.domain))


def _ref_conj(x):
    q = x.phase.q if x.phase.domain == "U" else -x.phase.q
    return GaussCoeff(x.c, x.rho, x.a, -x.b, Phase(q, x.phase.domain))


def _outcome(f, *args):
    try:
        x = f(*args)
    except (ArithmeticError, ArithError) as exc:
        return type(exc)
    assert type(x.c) is Fraction and type(x.rho) is int and type(x.b) is int
    return (x.c, x.rho, x.a, x.b, x.phase.q, x.phase.domain), hash(x)


@settings(max_examples=400, deadline=None)
@given(coeffs(), coeffs())
def test_ring_operations_match_public_constructor(x, y):
    assert _outcome(lambda: x * y) == _outcome(_ref_mul, x, y)
    assert _outcome(x.inverse) == _outcome(_ref_inverse, x)
    assert _outcome(x.conj) == _outcome(_ref_conj, x)


@pytest.fixture(scope="module")
def small():
    return find_params(ParamSpec(2, 1))


@settings(max_examples=400, deadline=None)
@given(coeffs())
def test_wick_coeff_matches_public_constructor(params, small, x):
    # wick_coeff assembles j * x with the phase rescaled by i and retagged V
    if x.phase.domain == "V":
        return
    for P in (params, small):
        phase = Phase(x.phase.q * P.i, "V") if not x.phase.is_zero() else Phase(Fraction(0))
        assert _outcome(wick_coeff, P, x) == _outcome(GaussCoeff, x.c, x.rho, x.a + 1, x.b, phase)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mul_homomorphism_on_small_tower(small, data):
    # p = 257: sqrt(rho) evaluates for rho in {1, 2}, phases with 2-power denominators
    normal = coeffs(rhos=(1, 2), dens=(1, 2, 4, 8, 16, 32))
    x, y = data.draw(normal), data.draw(normal)
    try:
        xy = x * y
    except DomainMismatch:
        return
    assert to_fp(small, xy) == to_fp(small, x) * to_fp(small, y) % small.p


def test_ring_operations_never_factor(monkeypatch):
    pool = [
        GaussCoeff(Fraction(c, 3), rho, a, b, Phase(Fraction(q, 12), dom))
        for c, rho, a, b, q, dom in itertools.product(
            (-2, 5), (1, 6, 35, 210), (-1, 2), (3, 7), (0, 5), ("U", "V")
        )
    ] + [GaussCoeff.zero()]
    calls = []
    real = coeffring.squarefree_split
    monkeypatch.setattr(coeffring, "squarefree_split", lambda n: calls.append(n) or real(n))
    for x in pool:
        for y in pool:
            try:
                x * y
            except DomainMismatch:
                pass
        if not x.is_zero():
            x.inverse()
        x.conj()
    assert calls == []
    GaussCoeff(1, 12)  # the public constructor still normalises
    assert calls == [12]


def test_adding_the_zero_phase_returns_the_other_operand():
    zero = Phase(Fraction(0))
    for dom in ("U", "V"):
        x = Phase(Fraction(1, 3), dom)
        assert x + zero is x
        assert zero + x is x
    with pytest.raises(DomainMismatch):
        Phase(Fraction(1, 3), "U") + Phase(Fraction(1, 3), "V")


# -- the strict boundary ------------------------------------------------------


@pytest.mark.parametrize("build", [
    lambda: GaussCoeff(0.1),
    lambda: GaussCoeff("1/2"),
    lambda: GaussCoeff(True),
    lambda: GaussCoeff(1, 2.0),
    lambda: GaussCoeff(1, True),
    lambda: GaussCoeff(1, 1, 0.5),
    lambda: GaussCoeff(1, 1, 0, 1.0),
    lambda: GaussCoeff(1, 1, 0, False),
    lambda: GaussCoeff(1, phase=0.25),
    lambda: Phase(0.1, "V"),
    lambda: Phase(True),
    lambda: GaussCoeff.rational(0.5),
    lambda: GaussCoeff.sqrt(2.0),
    lambda: GaussCoeff.sqrt(True),
    lambda: GaussCoeff.phase_of(0.25, "V"),
    lambda: find_params(ParamSpec(2, 1)).char_e(0.25),
], ids=["c-float", "c-str", "c-bool", "rho-float", "rho-bool", "a-float", "b-float", "b-bool",
        "phase-float", "Phase-float", "Phase-bool", "rational-float", "sqrt-float", "sqrt-bool",
        "phase_of-float", "char_e-float"])
def test_constructors_refuse_inexact_and_non_integer_input(build):
    with pytest.raises(ArithError, match="must be"):
        build()


def test_constructors_take_ints_and_fractions_and_store_exact_types():
    x = GaussCoeff(Fraction(6, 4), 8, -1, 9, Fraction(13, 12))
    assert (x.c, x.rho, x.a, x.b, x.phase) == (3, 2, -1, 1, Phase(Fraction(1, 12), "V"))
    assert type(x.c) is Fraction and type(x.rho) is int and type(x.phase.q) is Fraction
    assert str(x) == "3 * sqrt(2) * j^-1 * e8 * e(1/12@V)"
    assert GaussCoeff.sqrt(Fraction(1, 2)) == GaussCoeff(Fraction(1, 2), 2)
    assert GaussCoeff.phase_of(-1, "U") == GaussCoeff.one()


# -- coefficients built outside the ring operations ---------------------------
#
# Each must be what the public constructor makes of its own parts: the same
# fields, of the same types, and the same hash.


def _rebuilt(x):
    return GaussCoeff(x.c, x.rho, x.a, x.b, Phase(x.phase.q, x.phase.domain))


def _assert_public_normal_form(x):
    assert _outcome(lambda: x) == _outcome(_rebuilt, x)
    assert type(x.a) is int and x == _rebuilt(x)
    assert 0 <= x.phase.q < 1 and 0 <= x.b < 8


def test_sqrt_with_scale_matches_public_constructor(params, small):
    from gausscalc.gauss import sqrt_with_scale

    for P in (params, small):
        for value in list(range(1, 200)) + [P.N_u // a for a in (1, 2, 3, 4, 6, 9, 12) if P.N_u % a == 0]:
            for c, e8 in ((1, 1), (2, -1), (-3, 1), (12, 0)):
                for M, domain in ((P.N_u, "U"), (4 * P.N_u, "U"), (P.N_v, "V"), (P.N_u, "V")):
                    x = sqrt_with_scale(value, M, domain, P, c, e8)
                    _assert_public_normal_form(x)
                    assert x.a == (1 if domain == "U" else 0)


def test_window_sum_matches_public_constructor(params):
    from gausscalc.gauss import NonGaussianSum, quadratic_window_sum

    accepted = 0
    for M, A, domain in itertools.product((144, 2304, 82944), (1, -2, 3, -4, 6, -9, 12), "UV"):
        T = M // abs(A)
        for B, C, window in ((0, 0, T), (A, -3, 2 * T), (2 * A + 1, 4, T * abs(A)), (A, 1, T // 2)):
            try:
                x = quadratic_window_sum(A, B, C, M, window, domain, params=params)
            except NonGaussianSum:
                continue
            accepted += 1
            _assert_public_normal_form(x)
    assert accepted >= 100


def test_kernel_values_and_coordinates_match_public_constructor(small):
    from gausscalc.hilbert import GaussOperator, GaussState, domain_u, domain_v

    rng = random.Random(2718)
    for dom in (domain_u(small), domain_v(small)):
        for _ in range(12):
            coeff = rand_coeff(rng, dom.tag, max_den=8)
            den = rng.choice((1, 2, 3))
            op = GaussOperator(coeff, *(rng.randint(-4, 4) for _ in range(3)), dom, dom,
                               kD=rng.randint(-3, 3), kE=rng.randint(-3, 3), den=den)
            support = (rng.choice([k for k in (1, 2, 4) if dom.N % k == 0]), rng.randint(0, 3))
            state = GaussState(coeff, *(rng.randint(-5, 5) for _ in range(3)), dom, den=den, support=support)
            for q in dom.index_range():
                _assert_public_normal_form(state.coordinate(q))
                for r in dom.index_range():
                    _assert_public_normal_form(op.kernel_value(q, r))


def test_composed_coefficients_match_public_constructor(params, small):
    from gausscalc.dynamics import free_propagator, sm_transfer
    from gausscalc.hilbert import GaussOperator, QuadForm, compose, domain_v

    ops = [free_propagator(params, t) for t in (1, 2, 3, 6, 9, 18)]
    ops += [sm_transfer(params, QuadForm(A, B, C)) for A, C in ((-1, -1), (-2, -2), (0, -1), (-2, -4))
            for B in (-1, 2)]
    pairs = [(op, op) for op in ops] + list(zip(ops[:6], ops[1:6] + ops[:1]))
    V = domain_v(small)
    rng = random.Random(1618)
    for _ in range(40):
        coeffs_ = [rand_coeff(rng, "V", max_den=8) for _ in range(2)]
        pairs.append(tuple(
            GaussOperator(c, rng.randint(-2, 0), rng.randint(-2, 2), rng.randint(-2, 0), V, V,
                          kD=rng.randint(-2, 2), kE=rng.randint(-2, 2), den=rng.choice((1, 2)))
            for c in coeffs_))
    composed = 0
    for op1, op2 in pairs:
        P = params if op1.domain_in.N != V.N else small
        try:
            out = compose(P, op1, op2)
        except (ArithError, ArithmeticError):
            continue
        composed += not out.is_zero()
        _assert_public_normal_form(out.coeff)
    assert composed >= 20


def test_repeated_closed_forms_never_factor_a_square(params, monkeypatch):
    # the kernel's periods are split once each; the public constructor gets
    # rho already squarefree and, for a small one, does not factor it
    from gausscalc import gauss
    from gausscalc.gauss import GaussSumSpec, gauss_closed

    sweep = [GaussSumSpec(a, b, M, dom)
             for M in (144, 2304, 82944) for a in (1, 2, 3, 4, 6, 9, 12, -1, -2, -3, -4, -6, -9, -12)
             for b in (0, 3 * a, 1) for dom in "UV"]
    first = [gauss_closed(spec, params=params) for spec in sweep]
    calls = []
    real = coeffring.squarefree_split
    for module in (gauss, coeffring):
        monkeypatch.setattr(module, "squarefree_split", lambda n: calls.append(n) or real(n))
    assert [gauss_closed(spec, params=params) for spec in sweep] == first
    assert [n for n in calls if real(n)[0] != 1] == []
