"""The vectorised oracles against their scalar definitions.

DenseState.from_state, GaussOperator.kernel_block, apply_dense and
Params.power_sum work on numpy vectors of F_p residues (int64 when
p < 2^31, Python ints otherwise).  Each is checked here against the
elementwise definition it replaces: the same residues, and the same
exceptions where the elementwise path raises.  The DSL's literal
evaluator, eval_expr, reads the same roots and is checked on the same
two sides of the int64 boundary.  The two floating-point oracles, the
chunked Simpson rule behind the continuum quadrature and the complex
Gauss sum, are checked against whole-grid and one-term-at-a-time sums.
"""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from gausscalc.arith import (
    BLOCK,
    DomainMismatch,
    IncompatiblePhase,
    Params,
    ParamSpec,
    Phase,
    _p1_factorization,
    find_params,
    is_probable_prime,
    poly_mod,
    smallest_primitive_root,
)
from gausscalc.climit import _mollified_phase, _simpson
from gausscalc.coeffring import GaussCoeff, to_fp
from gausscalc.dynamics import fourier_operator, free_propagator, sm_transfer, weyl_pair
from gausscalc.frontend import eval_expr, parse
from gausscalc.gauss import _brute_complex
from gausscalc.hilbert import (
    DenseState,
    GaussOperator,
    GaussState,
    QuadForm,
    apply_dense,
    domain_u,
    domain_v,
    gauss_ket,
    unit_normalization,
)


@pytest.fixture(scope="module")
def params():
    return find_params(ParamSpec())


@pytest.fixture(scope="module")
def mid():
    # N_v = 16, N_u = 1024, p = 40961
    return find_params(ParamSpec(4, 2))


@pytest.fixture(scope="module")
def small():
    # N_v = 4, N_u = 16, p = 257
    return find_params(ParamSpec(2, 1))


@pytest.fixture(scope="module")
def wide():
    """The m=2, k=1 tower over the smallest admissible prime above 2^31,
    where residues no longer fit int64 products."""
    modulus = 8 * 16
    c = (1 << 31) // modulus + 1
    while not is_probable_prime(modulus * c + 1):
        c += 1
    p = modulus * c + 1
    return Params(2, 1, p, smallest_primitive_root(p, _p1_factorization(p, modulus)))


def outcome(f):
    """f's value, or the type and text of the arithmetic exception it raises."""
    try:
        return f()
    except (DomainMismatch, IncompatiblePhase) as exc:
        return type(exc), str(exc)


def scalar_coords(params, s, conjugate=False):
    out = []
    for r in s.domain.index_range():
        c = s.coordinate(r)
        out.append(to_fp(params, c.conj() if conjugate else c))
    return out


def vector_coords(params, s, conjugate=False):
    return list(DenseState.from_state(params, s, conjugate).coords.values())


def states(params, domain):
    """Kets with den > 1, with supports, and with coefficients carrying a phase."""
    unit = unit_normalization(params, domain)
    twisted = unit * GaussCoeff(Fraction(3, 5), 2, 1, 3, Phase(Fraction(5, 16), domain.tag))
    return [
        gauss_ket(params, domain, QuadForm(-1, 1, 0), p_param=2),
        GaussState(twisted, -3, 2, 1, domain, den=2),
        GaussState(twisted, -1, 5, -7, domain, support=(4, 1)),
        GaussState(unit * GaussCoeff.phase_of(Fraction(3, 8), domain.tag), 2, -3, 5, domain,
                   den=4, support=(2, 1)),
        GaussState(GaussCoeff.e8_power(3), 0, -1, 0, domain, support=(domain.N // 4, 3)),
    ]


@pytest.mark.parametrize("conjugate", [False, True])
def test_from_state_matches_coordinates_on_V(params, conjugate):
    for s in states(params, domain_v(params)):
        assert vector_coords(params, s, conjugate) == scalar_coords(params, s, conjugate), s


@pytest.mark.parametrize("conjugate", [False, True])
def test_from_state_matches_coordinates_on_U_of_the_mid_tower(mid, conjugate):
    U = domain_u(mid)
    assert U.N == 1024
    for s in states(mid, U):
        assert vector_coords(mid, s, conjugate) == scalar_coords(mid, s, conjugate), s


def operators(params, domain):
    unit = unit_normalization(params, domain)
    ops = [
        fourier_operator(params, domain),
        weyl_pair(params, domain).U,
        weyl_pair(params, domain).V,
        free_propagator(params, 2, domain),
        GaussOperator(unit * GaussCoeff(Fraction(2, 3), 2, 0, 1, Phase(Fraction(1, 8), domain.tag)),
                      -1, 2, -3, domain, domain, kD=1, kE=-2, den=2, support=(4, 1, 1, 2)),
    ]
    if domain.tag == "U":
        ops.append(sm_transfer(params, QuadForm(-1, 1, -2), domain))
    return ops


def scalar_block(params, op, conjugate=False):
    out = []
    for q in op.domain_in.index_range():
        for r in op.domain_out.index_range():
            kv = op.kernel_value(q, r)
            out.append(to_fp(params, kv.conj() if conjugate else kv))
    return out


def vector_block(params, op, conjugate=False):
    q = op.domain_in.index_vector()[:, None]
    r = op.domain_out.index_vector()[None, :]
    return op.kernel_block(params, q, r, conjugate).ravel().tolist()


def assert_kernel_block_matches(params, op):
    for conjugate in (False, True):
        assert vector_block(params, op, conjugate) == scalar_block(params, op, conjugate), op


def test_kernel_block_matches_kernel_value_at_N16(small):
    U = domain_u(small)
    assert U.N == 16
    for op in operators(small, U):
        assert_kernel_block_matches(small, op)


def test_kernel_block_matches_kernel_value_at_N144(params):
    V = domain_v(params)
    assert_kernel_block_matches(params, operators(params, V)[4])


def test_apply_dense_matches_the_elementwise_sum(mid):
    V = domain_v(mid)
    p = mid.p
    op = operators(mid, V)[4]
    s = states(mid, V)[1]
    dense = DenseState.from_state(mid, s)
    for conjugate in (False, True):
        got = apply_dense(mid, op, dense, conjugate)
        for r in V.index_range():
            want = 0
            for q in V.index_range():
                kv = op.kernel_value(q, r)
                want = (want + dense.coords[q] * to_fp(mid, kv.conj() if conjugate else kv)) % p
            assert got.coords[r] == want, (conjugate, r)


# -- exceptions where the elementwise path raises ---------------------------------


def test_coefficient_phase_of_the_other_scale(params):
    V = domain_v(params)
    foreign = GaussCoeff.phase_of(Fraction(1, 16), "U")
    cases = [
        GaussState(foreign, -1, 1, 0, V),  # the V phase is nonzero at r = -72: DomainMismatch
        GaussState(foreign, 0, 0, 0, V),  # no V phase anywhere: the coefficient alone
        GaussState(foreign, -1, 0, 0, V, support=(12, 0)),  # zero at r = -72, not at r = -60
    ]
    for s in cases:
        for conjugate in (False, True):
            want = outcome(lambda: scalar_coords(params, s, conjugate))
            assert outcome(lambda: vector_coords(params, s, conjugate)) == want, (s, conjugate)
    assert outcome(lambda: vector_coords(params, cases[0]))[0] is DomainMismatch
    assert outcome(lambda: vector_coords(params, cases[2]))[0] is DomainMismatch
    # sqrt(7) has no canonical residue here (56 does not divide p - 1): to_fp
    # raises at the first element, unless the product has raised before it
    rooted = foreign * GaussCoeff(rho=7)
    first_mismatch = outcome(lambda: scalar_coords(params, GaussState(rooted, -1, 1, 0, V)))
    first_to_fp = outcome(lambda: scalar_coords(params, GaussState(rooted, -1, 0, 0, V, support=(12, 0))))
    assert first_mismatch[0] is DomainMismatch and first_to_fp[0] is IncompatiblePhase
    assert outcome(lambda: vector_coords(params, GaussState(rooted, -1, 1, 0, V))) == first_mismatch
    assert outcome(lambda: vector_coords(params, GaussState(rooted, -1, 0, 0, V, support=(12, 0)))) == first_to_fp
    assert outcome(lambda: vector_coords(params, cases[1])) == [to_fp(params, foreign)] * V.N
    # the kernel's first entry has a zero phase, its second does not
    op = GaussOperator(foreign, -1, 1, 0, V, V)
    for conjugate in (False, True):
        want = outcome(lambda: scalar_block(params, op, conjugate))
        assert want[0] is DomainMismatch
        assert outcome(lambda: vector_block(params, op, conjugate)) == want


def test_denominator_that_does_not_divide_p_minus_1(params):
    V = domain_v(params)
    assert (params.p - 1) % (2 * V.N * 5)
    unit = unit_normalization(params, V)
    # 2N*5 does not divide p - 1: illegal alone, and so is the coefficient phase
    # -1/(2N*5), but their sum -5 r^2/(2N*5) reduces to -r^2/2N
    illegal = GaussState(unit, -5, 0, 1, V, den=5)
    assert illegal.den == 5
    legal = GaussState(unit * GaussCoeff.phase_of(Fraction(-1, 2 * V.N * 5), "V"), -5, 0, 1, V, den=5)
    for conjugate in (False, True):
        want = outcome(lambda: scalar_coords(params, illegal, conjugate))
        assert want[0] is IncompatiblePhase
        assert outcome(lambda: vector_coords(params, illegal, conjugate)) == want
        want = scalar_coords(params, legal, conjugate)
        assert vector_coords(params, legal, conjugate) == want
    # kernel numerators all multiples of 5 reduce to a legal denominator; kA = 1 does not
    reducible = GaussOperator(unit, 5, 5, 5, V, V, den=5)
    assert vector_block(params, reducible) == scalar_block(params, reducible)
    irreducible = GaussOperator(unit, 1, 0, 0, V, V, den=5)
    want = outcome(lambda: scalar_block(params, irreducible))
    assert want[0] is IncompatiblePhase
    assert outcome(lambda: vector_block(params, irreducible)) == want
    # legal at the first element, illegal further on, with denominators that
    # differ from one illegal element to the next: the first one is named
    late = GaussState(unit, 0, 1, 4, V, den=5)  # (2r + 4)/(2N*5)
    late_op = GaussOperator(unit, 0, 0, 0, V, V, kD=1, kE=4, den=5)  # (2q + 8r)/(2N*5)
    assert to_fp(params, late.coordinate(-72)) and to_fp(params, late_op.kernel_value(-72, -72))
    for conjugate in (False, True):
        want = outcome(lambda: scalar_coords(params, late, conjugate))
        assert want == (IncompatiblePhase, "phase denominator 240 incompatible with p - 1")
        assert outcome(lambda: vector_coords(params, late, conjugate)) == want
        want = outcome(lambda: scalar_block(params, late_op, conjugate))
        assert want[0] is IncompatiblePhase
        assert outcome(lambda: vector_block(params, late_op, conjugate)) == want


# -- the per-call fast paths -------------------------------------------------------


@pytest.mark.parametrize("tower", ["params", "small", "wide"])
def test_power_sum_fast_path_equals_one_pow_per_term(tower, request):
    ps = request.getfixturevalue(tower)
    p = ps.p
    two_m = 2 * ps.N_v
    xi = ps.xi(two_m)

    def literal(a, b, lo, hi):
        return sum(pow(xi, (a * n * n + 2 * b * n) % two_m, p) for n in range(lo + 1, hi + 1)) % p

    windows = [
        (two_m - 5, two_m + 7),  # crosses a multiple of 2M
        (-two_m - 3, -2),  # negative lo, crossing -2M and ending below 0
        (-3 * two_m - 1, 2 * two_m + 9),
        (-BLOCK - 50, 70),  # more than BLOCK terms: two blocks
    ]
    for a, b in [(1, 0), (0, 3), (two_m, -5), (-two_m, 2), (-7, -11), (3 * two_m + 1, -two_m - 1)]:
        for lo, hi in windows:
            assert ps.power_sum(two_m, a, b, lo, hi) == literal(a, b, lo, hi), (a, b, lo, hi)


def test_poly_mod_reduces_each_array_once_with_the_same_result():
    rng = np.random.default_rng(7)
    x = rng.integers(-10**6, 10**6, size=12)
    y = rng.integers(-10**6, 10**6, size=(3, 1))
    big = (1 << 63) + 12345  # an int factor past int64
    terms = [(5, x, x), (-3, x, y, x), (big, y), (7, x), (big, big, x), (-(1 << 70),)]

    def literal(m):
        out = np.empty((3, 12), dtype=object)
        for i in range(3):
            for k in range(12):
                xv, yv = int(x[k]), int(y[i, 0])
                out[i, k] = (5 * xv * xv - 3 * xv * yv * xv + big * yv + 7 * xv
                             + big * big * xv - (1 << 70)) % m
        return out

    small_m, wide_m = 1 << 20, (1 << 20) * ((1 << 32) + 15)  # int64 and object dtypes
    lo, hi = poly_mod(small_m, terms), poly_mod(wide_m, terms)
    assert lo.dtype == np.int64 and hi.dtype == object
    assert (lo == literal(small_m)).all() and (hi == literal(wide_m)).all()
    assert (hi % small_m == lo).all()  # small_m | wide_m: the two dtypes agree
    assert poly_mod(small_m, [(big, big), (3,)]) == (big * big + 3) % small_m  # ints stay ints
    assert x.dtype == np.int64 and x.min() < 0  # the inputs are not reduced in place


def test_kernel_block_when_the_phase_free_part_raises(small):
    U = domain_u(small)
    rooted = GaussCoeff(rho=7)  # 56 does not divide p - 1 = 256
    foreign = GaussCoeff.phase_of(Fraction(1, 16), "V") * rooted
    every, odd_q = (1, 0, 0, 0), (2, 1, 0, 1)  # first entry on the support: q = -8, q = -7
    # with kD = 1 the first entry's phase is nonzero, and a coefficient phase
    # of the other scale makes the product raise DomainMismatch before to_fp
    cases = [
        (rooted, 0, every, IncompatiblePhase),
        (rooted, 1, odd_q, IncompatiblePhase),
        (foreign, 0, every, IncompatiblePhase),  # zero phase at the first entry
        (foreign, 1, every, DomainMismatch),
        (foreign, 1, odd_q, DomainMismatch),
    ]
    for coeff, kD, support, exc in cases:
        op = GaussOperator(coeff, -1, 1, 0, U, U, kD=kD, support=support)
        for conjugate in (False, True):
            want = outcome(lambda: scalar_block(small, op, conjugate))
            assert want[0] is exc, (coeff, kD, support, conjugate)
            assert outcome(lambda: vector_block(small, op, conjugate)) == want


# -- the dtype boundary ------------------------------------------------------------


def test_residue_dtype_follows_p(small, wide):
    assert wide.p > 1 << 31
    assert small.power_table(32).dtype == np.int64
    assert wide.power_table(32).dtype == object


@pytest.mark.parametrize("tower", ["small", "wide"])
def test_vector_oracles_equal_one_pow_per_term(tower, request):
    ps = request.getfixturevalue(tower)
    p = ps.p
    # power_sum
    two_m = 2 * ps.N_u
    xi = ps.xi(two_m)
    for a, b, lo, hi in [(1, 0, -9, 20), (-3, 2, 0, 16), (5, -7, -40, -3)]:
        want = sum(pow(xi, (a * n * n + 2 * b * n) % two_m, p) for n in range(lo + 1, hi + 1)) % p
        assert ps.power_sum(two_m, a, b, lo, hi) == want
    # from_state and apply_dense on U (N = 16)
    U = domain_u(ps)
    N = U.N
    s = GaussState(GaussCoeff(Fraction(1, 4), 1, -1), -1, 3, 2, U, den=2, support=(2, 0))
    xs = ps.xi(2 * N * 2)
    cf = to_fp(ps, s.coeff)
    want = [cf * pow(xs, (-r * r + 6 * r + 2) % (4 * N), p) % p if r % 2 == 0 else 0
            for r in U.index_range()]
    dense = DenseState.from_state(ps, s)
    assert list(dense.coords.values()) == want
    op = sm_transfer(ps, QuadForm(-1, 1, -1), U)
    x1 = ps.xi(2 * N)
    co = to_fp(ps, op.coeff)
    out = apply_dense(ps, op, dense)
    for r in U.index_range():
        total = sum(v * co * pow(x1, (-q * q + 2 * q * r - r * r) % (2 * N), p)
                    for q, v in zip(U.index_range(), want)) % p
        assert out.coords[r] == total
    # eval_expr, one and two quantifiers
    for text, asg in [("sum r . e((-r^2 + 2*r*x)/2N @U)", {"x": 3}),
                      ("sum x . sum y . e((-x^2 + 2*x*y - 3*y^2)/2N @U)", {})]:
        lit = 0
        for x in U.index_range():
            if asg:
                lit += pow(x1, (-x * x + 2 * x * asg["x"]) % (2 * N), p)
            else:
                lit += sum(pow(x1, (-x * x + 2 * x * y - 3 * y * y) % (2 * N), p) for y in U.index_range())
        assert eval_expr(parse(text), ps, asg) == lit % p


@pytest.mark.parametrize("tower", ["small", "wide"])
def test_eval_expr_with_big_integers(tower, request):
    ps = request.getfixturevalue(tower)
    p = ps.p
    big_c = (1 << 62) + 5
    x = 10**30
    for dom, N in (("V", ps.N_v), ("U", ps.N_u)):
        xi = ps.xi(2 * N)
        text = f"sum r . e(({big_c}*r^2 + 2*r*x + {big_c}*x^2)/2N @{dom})"
        want = sum(pow(xi, (big_c * r * r + 2 * r * x + big_c * x * x) % (2 * N), p)
                   for r in range(-N // 2, N // 2)) % p
        assert eval_expr(parse(text), ps, {"x": x}) == want
        assert isinstance(eval_expr(parse(text), ps, {"x": x}), int)


# -- the floating-point oracles ----------------------------------------------------


@pytest.mark.parametrize("stacked", [False, True])
def test_chunked_simpson_equals_the_whole_grid_sum(stacked):
    def f(x):
        if stacked:
            return np.stack([np.cos(3 * x), np.sin(3 * x)]) * np.exp(x)
        return np.exp(x) * (2 + x)  # nonzero at both ends

    lo, hi, n = -1.0, 2.0, 3 * BLOCK + 101  # odd: Simpson takes n + 1 panels
    got = _simpson(f, lo, hi, n)
    n += 1
    x = lo + np.arange(n + 1) * ((hi - lo) / n)
    w = np.full(n + 1, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    want = f(x) @ w * ((hi - lo) / n) / 3.0
    assert np.shape(got) == np.shape(want) == ((2,) if stacked else ())
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


def test_reduced_angle_integrand_equals_the_complex_exponential():
    x = np.linspace(-190.0, 190.0, 40001)
    for B in (0.0, 0.37, -1.5):
        for eps in (0.0, 1e-3, 1e-2):
            got = _mollified_phase(x, 4.0, B, eps)
            want = np.exp(1j * np.pi * (4.0 * x * x + 2 * B * x) - eps * x * x)
            assert np.abs(got[0] - want.real).max() < 1e-9, (B, eps)
            assert np.abs(got[1] - want.imag).max() < 1e-9, (B, eps)


@pytest.mark.parametrize("M", [144, 2304])
def test_brute_complex_equals_one_exp_per_term(M):
    for a, b in [(1, 0), (2, 2), (-7, 3), (M + 5, -M - 1), (0, 1)]:
        terms = [cmath.exp(1j * math.pi * ((a * n * n + 2 * b * n) % (2 * M)) / M) for n in range(1, M + 1)]
        want = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
        assert abs(_brute_complex(a, b, M) - want) < 1e-10, (a, b, M)
