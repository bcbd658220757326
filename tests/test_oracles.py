"""The vectorised oracles against their scalar definitions.

DenseState.from_state, GaussOperator.kernel_block, apply_dense and
Params.power_sum work on numpy vectors of F_p residues (int64 when
p < 2^31, Python ints otherwise).  Each is checked here against the
elementwise definition it replaces: the same residues, and the same
exceptions where the elementwise path raises.  poly_mod, the exponent
step behind them, is checked against Python-int sums on both sides of
the bound below which it reduces once.  The DSL's literal
evaluator, eval_expr, reads the same roots and is checked on the same
two sides of the int64 boundary.  The two floating-point oracles, the
chunked Simpson rule behind the continuum quadrature and the complex
Gauss sum, are checked against whole-grid and one-term-at-a-time sums.
The Hermitian quadrature's matrix-product sum is checked against
Simpson of cos and sin of every grid point, and its anchor factors
against the complex exponential and mpmath.
"""

import cmath
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from gausscalc import climit
from gausscalc.arith import (
    BLOCK,
    MAX_POWER_TABLE,
    ArithError,
    DomainMismatch,
    IncompatiblePhase,
    Params,
    ParamSpec,
    Phase,
    _p1_factorization,
    exact_dtype,
    find_params,
    is_probable_prime,
    poly_mod,
    smallest_primitive_root,
)
from gausscalc.climit import (
    _BATCH,
    _SPAN,
    ContinuumGaussian,
    _grid,
    _hermitian_chirp,
    _hermitian_factors,
    _hermitian_simpson,
    _simpson,
    continuum_inner_quadrature,
)
from gausscalc.coeffring import GaussCoeff, to_fp, to_fp_phases
from gausscalc.dynamics import fourier_operator, free_propagator, sm_transfer, weyl_pair
from gausscalc.frontend import (
    Const,
    PhaseAtom,
    Plus,
    Poly,
    Prod,
    Quant,
    eval_expr,
    format_expr,
    parse,
)
from gausscalc.gauss import GaussSumSpec, _brute_complex, gauss_brute
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
                      -1, 2, -3, domain, domain, kD=1, kE=-2, den=2, support=((4, (1, 1, -2)),)),
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
    got = apply_dense(mid, op, dense)
    for r in V.index_range():
        want = 0
        for q in V.index_range():
            want = (want + dense.coords[q] * to_fp(mid, op.kernel_value(q, r))) % p
        assert got.coords[r] == want, r


def test_conjugated_kernel_block_matches_the_elementwise_conj(mid):
    # the conjugated block that check_unitary multiplies, at every (q, r)
    V = domain_v(mid)
    op = operators(mid, V)[4]
    idx = V.index_vector()
    K = op.kernel_block(mid, idx[:, None], idx[None, :], conjugate=True)
    for i, q in enumerate(V.index_range()):
        for j, r in enumerate(V.index_range()):
            assert K[i, j] == to_fp(mid, op.kernel_value(q, r).conj()), (q, r)


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
    # BLOCK - 1, BLOCK and BLOCK + 1 terms, from just below a multiple of 2M
    for first in (5 * two_m - 1, -3 * two_m - 2):
        for terms in (BLOCK - 1, BLOCK, BLOCK + 1):
            lo, hi = first - 1, first - 1 + terms
            for a, b in [(-7, 2 * two_m + 3), (two_m + 1, -two_m - 5)]:
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


# -- the int64 boundary of the exponent vectors -------------------------------------


def _poly_literal(m, terms):
    """poly_mod's sum in Python ints: every array as an object array."""
    total = 0
    for c, *xs in terms:
        for x in xs:
            c = c * (x if isinstance(x, int) else np.asarray(x).astype(object))
        total = total + c
    return total % m


# (m - 1)^3 < 2^63 for m = 2^21 - 1, and (m - 1)^3 = 2^63 for m = 2^21 + 1;
# int64 up to m = 2^31.  No m is a power of 2, whose residues would hide a
# wrap past 2^63
@pytest.mark.parametrize("m", [(1 << 21) - 1, (1 << 21) + 1, (1 << 31) - 1, (1 << 31) + 1, (1 << 40) + 7])
def test_poly_mod_equals_the_python_int_sum_on_both_sides_of_int64(m):
    x = np.array([0, 1, 2, m - 2, m - 1, -1, -2, -m, m], dtype=np.int64)
    y = -x[::-1, None]  # negative, and another shape
    big = (1 << 64) + 5  # an int factor past int64
    cases = [
        [(m - 1, x, x)],  # one term, the largest coefficient
        [(m - 1, x, x), (-1, y, x)],  # for m = 2^21 - 1: each term below 2^63, their sum not
        [(1, x, x), (2, x), (m - 1,)],  # below the bound for m = 2^21 + 1
        [(big, x, y, x), (-big, big, y), (m, x, y), (0, y)],  # t = 0
        [(3, x, 5, y, -7), (big, x), (2 * m + 1, y, y, y)],  # ints among the arrays
    ]
    for terms in cases:
        got, want = poly_mod(m, terms), _poly_literal(m, terms)
        assert got.dtype == exact_dtype(m)
        assert got.shape == want.shape and (got == want).all(), (m, terms)
    assert (x == [0, 1, 2, m - 2, m - 1, -1, -2, -m, m]).all()  # the inputs are not reduced in place


def assert_phases_broadcast(params, coeff, domain):
    """to_fp_phases with `on` the scalar True, with `on` wider than `num` and
    with `num` wider than `on`: the broadcast shape, dtype exact_dtype(p),
    and to_fp of coeff * e(num/m) at each element on the mask, 0 off it."""
    m = 2 * domain.N
    x, y = domain.index_vector()[None, :], domain.index_vector()[:, None]
    row = poly_mod(m, [(3, x, x), (1, x)])
    grid = poly_mod(m, [(3, x, x), (1, x, y)])
    for num, on in [(grid, True), (row, (x - y) % 2 == 0), (grid, y % 3 == 0)]:
        got = to_fp_phases(params, coeff, domain.tag, m, num, on)
        nums, ons = np.broadcast_arrays(num, on)
        assert got.shape == (domain.N, domain.N) and got.dtype == exact_dtype(params.p)
        want = [to_fp(params, coeff * GaussCoeff.phase_of(Fraction(int(n), m), domain.tag)) if o else 0
                for n, o in zip(nums.flat, ons.flat)]
        assert got.ravel().tolist() == want


def test_poly_mod_keeps_the_shape_of_every_array_factor(params):
    m = 2 * 144
    x, y = np.arange(-72, 72)[None, :], np.arange(-72, 72)[:, None]
    for terms in ([(5, x), (0, y)], [(0, x, y), (m, y)], [(2, x, x), (0, x, y), (-m, y)]):
        got = poly_mod(m, terms)
        assert got.shape == (144, 144) and got.dtype == np.int64
        assert (got == _poly_literal(m, terms)).all()
        assert got.flags.writeable
    assert poly_mod(m, [(0, 5), (m, 3, 4)]) == 0  # no array: an int
    # kD = kE = 0 and kB = kC = 0: only q spans the kernel block, yet it
    # covers every (r, q); apply_dense reads its rows
    V = domain_v(params)
    diag = GaussOperator(GaussCoeff.one(), 1, 0, 0, V, V)
    q, r = V.index_vector(), V.index_vector()
    K = diag.kernel_block(params, q[None, :], r[:, None])
    assert K.shape == (144, 144)
    assert (K == K[:1]).all()  # e(q^2 / 2N) does not depend on r
    dense = DenseState.from_state(params, gauss_ket(params, V, QuadForm(-1, 2, 0)))
    want = [sum(int(v) * int(K[i, j]) for j, v in enumerate(dense.vec)) % params.p for i in range(144)]
    assert list(apply_dense(params, diag, dense).vec) == want
    # and so does to_fp_phases, whichever of its mask and numerators is wider
    assert_phases_broadcast(params, unit_normalization(params, V) * GaussCoeff(Fraction(2, 3), 3, 1, 5), V)


def test_power_sum_refuses_a_modulus_past_int64_blocks():
    # a tower whose p - 1 has the factor 2^34, so that xi_2M exists for 2M = 2^33, 2^34
    c = 1
    while not is_probable_prime((c << 34) + 1):
        c += 1
    p = (c << 34) + 1
    ps = Params(2, 1, p, smallest_primitive_root(p, _p1_factorization(p, 8 * 16)))
    for two_m in (1 << 33, 1 << 34):
        assert ps.xi(two_m)
        with pytest.raises(ArithError, match=r"2M < 2\^33"):
            ps.power_sum(two_m, 1, 0, 0, 1)
    assert not ps._powers  # no table was built


def test_power_table_refuses_past_its_bound_before_it_allocates():
    # p - 1 = 9 * 2^33: the brute sum over M = 2^31 would want a table of 2^32 entries
    ps = Params(2, 1, 77309411329, 7)
    spec = GaussSumSpec(1, 0, 1 << 31)
    with pytest.raises(ArithError, match=rf"a power table of {1 << 32} entries exceeds the bound {MAX_POWER_TABLE}"):
        gauss_brute(ps, spec)
    with pytest.raises(ArithError, match="exceeds the bound"):
        ps.power_table(MAX_POWER_TABLE + 2)
    assert not ps._powers


def test_kernel_block_when_the_phase_free_part_raises(small):
    U = domain_u(small)
    rooted = GaussCoeff(rho=7)  # 56 does not divide p - 1 = 256
    foreign = GaussCoeff.phase_of(Fraction(1, 16), "V") * rooted
    every, odd_q = (), ((2, (1, 0, -1)),)  # first entry on the support: q = -8, q = -7
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
    for ps in (small, wide):
        U = domain_u(ps)
        coeff = GaussCoeff(Fraction(2, 3), 2, -1, 3, Phase(Fraction(1, 4), "U"))
        assert_phases_broadcast(ps, coeff, U)
        # an int numerator under the scalar mask: one element, still of the residue dtype
        got = to_fp_phases(ps, coeff, "U", 2 * U.N, 5, True)
        assert got.shape == () and got.dtype == exact_dtype(ps.p)
        assert int(got) == to_fp(ps, coeff * GaussCoeff.phase_of(Fraction(5, 2 * U.N), "U"))


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


def _random_tree(rng, domain, scope, bound):
    """A product of 1-3 atoms over `scope`, sometimes summed with one more
    atom, with the quantifiers over `bound` nested inside it (siblings when
    more than one is left); any phase polynomial of degree <= 2."""

    def atom():
        kind = rng.choice(["rat", "j", "e8", "sqrt", "phase", "phase", "phase"])
        if kind == "rat":
            return parse(str(Fraction(rng.randint(-3, 3), rng.randint(1, 3))))
        if kind == "sqrt":
            return parse(f"sqrt({Fraction(rng.choice([1, 2, 8, 9, 18]), rng.randint(1, 2))})")
        if kind != "phase":
            return parse(kind)
        names = list(scope)
        terms = {(): rng.randint(-5, 5)}
        for _ in range(rng.randint(1, 3)):
            mono = tuple(sorted(rng.sample(names, k=rng.randint(1, min(2, len(names))))))
            if rng.random() < 0.3:
                mono = (mono[0], mono[0])
            terms[mono] = rng.choice([rng.randint(-6, 6), (1 << 62) + rng.randint(0, 9)])
        return PhaseAtom(Poly.from_dict(terms), domain)

    parts = [atom() for _ in range(rng.randint(1, 3))]
    if bound:
        split = rng.randint(1, len(bound) - 1) if len(bound) > 1 and rng.random() < 0.4 else len(bound)
        for group in (bound[:split], bound[split:]):
            if group:
                v = group[0]
                body = _random_tree(rng, domain, scope + [v], group[1:])
                parts.append(Quant(rng.choice(["sum", "int"]), v, body))
    rng.shuffle(parts)
    expr = parts[0] if len(parts) == 1 else Prod(tuple(parts))
    return Plus((expr, atom())) if rng.random() < 0.3 else expr


def _pointwise(e, ps, asg, dom):
    """The literal value of `e`: nested Python loops over the domain, one
    pow(xi_2N, poly mod 2N, p) per phase atom per point."""
    p = ps.p
    if isinstance(e, Const):  # read from its text, not from its coefficient
        if e.text.startswith("sqrt("):
            return to_fp(ps, GaussCoeff.sqrt(Fraction(e.text[5:-1])))
        if e.text in ("j", "e8"):
            return ps.j % p if e.text == "j" else ps.xi(8)
        value = Fraction(e.text)
        return value.numerator * pow(value.denominator, -1, p) % p
    if isinstance(e, PhaseAtom):
        two_n = 2 * (ps.N_v if e.domain == "V" else ps.N_u)
        n = sum(c * math.prod(asg[v] for v in m) for m, c in e.poly.coeffs)
        return pow(ps.xi(two_n), n % two_n, p)
    if isinstance(e, Prod):
        return math.prod(_pointwise(f, ps, asg, dom) for f in e.factors) % p
    if isinstance(e, Plus):
        return sum(_pointwise(t, ps, asg, dom) for t in e.terms) % p
    N = ps.N_v if dom == "V" else ps.N_u
    total = sum(_pointwise(e.body, ps, {**asg, e.var: r}, dom) for r in range(-N // 2, N // 2))
    if e.kind == "int":
        total *= to_fp(ps, unit_normalization(ps, domain_v(ps) if dom == "V" else domain_u(ps)))
    return total % p


@pytest.mark.parametrize("tower", ["small", "wide"])
def test_eval_expr_equals_the_pointwise_sum(tower, request):
    # every node kind, 1-3 quantifiers (nested or siblings), U and V; on the
    # small tower at every (x, y) of the domain (x alone for the 16^3-point
    # U nests), on the p > 2^31 tower at a few points
    ps = request.getfixturevalue(tower)
    rng = random.Random(0xE7A1)
    for domain in ("V", "U"):
        N = ps.N_v if domain == "V" else ps.N_u
        grid = range(-N // 2, N // 2)
        for n_quant in (1, 2, 3, 1, 2, 3):
            frees = ["x"] if domain == "U" and n_quant == 3 else ["x", "y"]
            e = _random_tree(rng, domain, frees, [f"q{i}" for i in range(n_quant)])
            if tower == "small":
                points = [dict(zip(frees, xy)) for xy in itertools.product(grid, repeat=len(frees))]
            else:
                points = [{"x": rng.randrange(-N, N), "y": rng.randrange(-N, N)} for _ in range(2)]
            scale = domain if "@" in format_expr(e) else "V"  # a tree with no phase sums on V
            for asg in points:
                assert eval_expr(e, ps, asg) == _pointwise(e, ps, asg, scale), (format_expr(e), asg)


# -- the floating-point oracles ----------------------------------------------------


@pytest.mark.parametrize("stacked", [False, True, "complex"])
def test_chunked_simpson_equals_the_whole_grid_sum(stacked):
    """One real row (False), real and imaginary parts stacked (True), or one
    complex row."""
    def integrand(x):
        if stacked == "complex":
            return np.exp((1 + 3j) * x)
        if stacked:
            return np.stack([np.cos(3 * x), np.sin(3 * x)]) * np.exp(x)
        return np.exp(x) * (2 + x)  # nonzero at both ends

    def f(lo, h, start, stop):
        return integrand(lo + np.arange(start, stop) * h)

    lo, hi, n = -1.0, 2.0, 3 * BLOCK + 102  # more than three chunks, the last one short
    got = _simpson(f, lo, (hi - lo) / n, n)
    x = lo + np.arange(n + 1) * ((hi - lo) / n)
    w = np.full(n + 1, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    want = integrand(x) @ w * ((hi - lo) / n) / 3.0
    assert np.shape(got) == np.shape(want) == ((2,) if stacked is True else ())
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


def test_quadrature_grids_are_even_and_bounded():
    """_grid rounds the panel count up to even, gives verify's grid
    (A = 1/4, about 0.74 M points) and the largest grid of the suite
    (A = 4, B = 2 at eps = 1e-3, about 11.6 M points), and refuses a grid
    past 2^24 points."""
    assert _grid("Euclidean", 0.0, 0.0, 0.0, 10.0, 0.35) == (-10.0, 20.0 / 58, 58)  # 57.1 rounds up to 58
    assert _grid("Hermitian", 0.25, 0.3, 1e-3, 10.0, 1e-3)[2] == 739_732
    assert _grid("Hermitian", 4.0, 2.0, 1e-3, 10.0, 1e-3)[2] == 11_565_536
    with pytest.raises(ArithError, match=r"1\.84\de\+08 points exceeds the bound of 2\^24 = 16777216"):
        _grid("Hermitian", 64.0, 0.0, 1e-3, 10.0, 1e-3)


def test_quadrature_refuses_a_large_grid_before_summing(monkeypatch):
    """At A = 6 the eps = 1e-2 grid fits and the eps = 1e-3 grid does not:
    both are sized before either is summed.  A = 64 and a wide Euclidean
    window raise at once."""
    def no_sum(*args):
        raise AssertionError("summed a grid before sizing both")

    monkeypatch.setattr(climit, "_hermitian_simpson", no_sum)
    monkeypatch.setattr(climit, "_simpson", no_sum)
    g0 = ContinuumGaussian("Hermitian", 1.0, 0.0, 0.0)
    for A in (6.0, 64.0):
        with pytest.raises(ArithError, match="2\\^24"):
            continuum_inner_quadrature(ContinuumGaussian("Hermitian", 1.0, A, 0.0), g0)
    g = ContinuumGaussian("Euclidean", 1.0, 1.0, 0.0)
    with pytest.raises(ArithError, match="2\\^24"):
        continuum_inner_quadrature(g, g, window=1e4, step=1e-4)


def _mollified_phase(x, A, B, eps):
    """The Hermitian integrand e^{pi i (A x^2 + 2 B x) - eps x^2} as climit
    evaluated it before angle addition: cos and sin of every point, as
    stacked real and imaginary parts, with q = A x^2 + 2 B x reduced exactly
    to q - 2 rint(q/2) first."""
    q = A * x * x + 2 * B * x
    q -= 2.0 * np.rint(0.5 * q)
    q *= math.pi
    out = np.empty((2, x.size))
    np.cos(q, out=out[0])
    np.sin(q, out=out[1])
    out *= np.exp(-eps * x * x)
    return out


def _every_point_simpson(lo, h, n, A, B, eps):
    """_simpson of _mollified_phase on the grid (lo, h, n)."""
    def f(lo, h, start, stop):
        re, im = _mollified_phase(lo + np.arange(start, stop) * h, A, B, eps)
        return re + 1j * im

    return complex(_simpson(f, lo, h, n))


def _anchor_points(lo, h, start, count, A, B, eps):
    """The integrand at the grid points lo + i h, start <= i < start + count
    (start a multiple of _SPAN), as the products high[a, j1] low[a, j0]
    chirp[j1, j0] of the factors that _hermitian_simpson sums."""
    high, low = _hermitian_factors(lo, h, np.arange(start, start + count, _SPAN), A, B, eps)
    chirp = _hermitian_chirp(h, A, eps)
    return (high[:, :, None] * chirp * low[:, None, :]).reshape(-1)[:count]


def test_reduced_angle_integrand_equals_the_complex_exponential():
    lo, h, n = -190.0, 0.0095, 40000  # the grid of np.linspace(-190, 190, 40001)
    x = lo + np.arange(n + 1) * h
    for B in (0.0, 0.37, -1.5):
        for eps in (0.0, 1e-3, 1e-2):
            got = _anchor_points(lo, h, 0, n + 1, 4.0, B, eps)
            want = np.exp(1j * np.pi * (4.0 * x * x + 2 * B * x) - eps * x * x)
            assert np.abs(got.real - want.real).max() < 1e-9, (B, eps)
            assert np.abs(got.imag - want.imag).max() < 1e-9, (B, eps)


@pytest.mark.parametrize("A, B, eps, start", [
    (4.0, 0.37, 1e-3, 0),  # x from -189.7, angles up to 4 pi 190^2
    (0.25, -0.3, 1e-3, BLOCK),  # verify's A, x from -172.8
    (0.25, 0.1, 1e-2, BLOCK),  # the eps = 1e-2 grid, x across 0
])
def test_angle_addition_is_as_accurate_as_cos_and_sin_of_every_point(A, B, eps, start):
    """At 300 seeded points among BLOCK points of the quadrature's grid,
    both integrands against the exact value at lo + i h (mpmath, 40
    digits): the largest relative error of the anchor factors' product is
    at most twice that of cos and sin of every point (which sees the grid
    point rounded to a float)."""
    mpmath = pytest.importorskip("mpmath")
    lo, h, _ = _grid("Hermitian", A, B, eps, 10.0, 1e-3)
    got = _anchor_points(lo, h, start, BLOCK, A, B, eps)
    ref = _mollified_phase(lo + np.arange(start, start + BLOCK) * h, A, B, eps)
    errors_got, errors_ref = [], []
    with mpmath.workdps(40):
        for k in random.Random(f"angle_addition/{A}/{B}/{eps}").sample(range(BLOCK), 300):
            x = mpmath.mpf(lo) + (start + k) * mpmath.mpf(h)
            exact = mpmath.exp(mpmath.mpc(-eps * x * x, mpmath.pi * (A * x * x + 2 * B * x)))
            errors_got.append(float(abs(exact - mpmath.mpc(got[k].real, got[k].imag)) / abs(exact)))
            errors_ref.append(float(abs(exact - mpmath.mpc(ref[0, k], ref[1, k])) / abs(exact)))
    assert max(errors_got) <= 2 * max(errors_ref) + 1e-15, (max(errors_got), max(errors_ref))


@pytest.mark.parametrize("n", [
    1000,  # below one anchor's R^2 points
    _SPAN - 2, _SPAN, _SPAN + 2,
    5 * _SPAN, 5 * _SPAN + 2,
    2 * _BATCH * _SPAN + 3 * _SPAN + 2,  # three batches, the last one short
])
def test_matrix_product_sum_equals_the_every_point_simpson(n):
    """_hermitian_simpson against _simpson of cos and sin of every point,
    on grids of step 1e-3 centred on 0: the masked last anchor and the
    batch walk weigh every point as Simpson does."""
    A, B, eps, h = 0.25, 0.3, 1e-2, 1e-3
    lo = -(n // 2) * h
    want = _every_point_simpson(lo, h, n, A, B, eps)
    got = _hermitian_simpson(lo, h, n, A, B, eps)
    assert abs(got - want) <= 1e-11 * abs(want), (n, got, want)


def _quadrature_every_point(A, B, window=10.0, step=1e-3):
    """continuum_inner_quadrature's Hermitian value for <g(A, B) | g(0, 0)>,
    its integrand taken from cos and sin of every grid point."""
    v1, v2 = (_every_point_simpson(*_grid("Hermitian", A, B, eps, window, step), A, B, eps)
              for eps in (1e-2, 1e-3))
    return (1e-2 * v2 - 1e-3 * v1) / (1e-2 - 1e-3)


def test_angle_addition_quadrature_equals_cos_and_sin_of_every_point():
    """verify's quadratures: A = 0.25 and B across [-0.4, 0.4]."""
    g0 = ContinuumGaussian("Hermitian", 1.0, 0.0, 0.0)
    for B in np.linspace(-0.4, 0.4, 9):
        want = _quadrature_every_point(0.25, B)
        got = continuum_inner_quadrature(ContinuumGaussian("Hermitian", 1.0, 0.25, B), g0)
        assert abs(got - want) <= 1e-11 * abs(want), (B, got, want)


@pytest.mark.parametrize("A", [1.0, 4.0])
def test_matrix_product_quadrature_equals_the_every_point_quadrature(A):
    """A = 0.25 is the test above; A = 4 is the largest grid the suite sums."""
    g0 = ContinuumGaussian("Hermitian", 1.0, 0.0, 0.0)
    want = _quadrature_every_point(A, 0.5)
    got = continuum_inner_quadrature(ContinuumGaussian("Hermitian", 1.0, A, 0.5), g0)
    assert abs(got - want) <= 1e-11 * abs(want), (A, got, want)


@pytest.mark.parametrize("window", [1000.0, 2000.0])
def test_wide_window_quadrature_stays_finite(window):
    """At window 2000 the anchors' magnitude e^{-eps x_a^2} reaches e^{-40000}
    while their step factors grow like e^{2 eps |x_a| h j}: folded into one
    exponent, the product stays finite and equal to the every-point sum.
    A = 0.01 is refused by continuum_inner_quadrature, so the damped sums
    are taken directly, at both mollifiers."""
    for eps in (1e-2, 1e-3):
        grid = _grid("Hermitian", 0.01, 0.0, eps, window, 1.0)
        got = _hermitian_simpson(*grid, 0.01, 0.0, eps)
        want = _every_point_simpson(*grid, 0.01, 0.0, eps)
        assert cmath.isfinite(got) and abs(got - want) <= 1e-11, (window, eps, got, want)


def test_folded_anchor_magnitude_keeps_the_mollified_sum_finite():
    """At A = 0.001, eps = 1e-2 on the window 2000 (h = 1/120), the first
    anchors' step factor e^{2 eps |x_a| h _ROOT j1} reaches e^{1344}, past
    the float range, while their magnitude e^{-eps x_a^2} is e^{-40000}:
    folded into one exponent, each high entry stays finite, and so does
    the sum."""
    grid = _grid("Hermitian", 0.001, 0.0, 1e-2, 2000.0, 1.0)
    want = _every_point_simpson(*grid, 0.001, 0.0, 1e-2)
    got = _hermitian_simpson(*grid, 0.001, 0.0, 1e-2)
    assert cmath.isfinite(got) and abs(got - want) <= 1e-11 * abs(want), (got, want)


def test_quadrature_temporaries_stay_small():
    """One Hermitian quadrature at A = 4, B = 2 (11.6 M points) allocates at
    most 2 MiB at a time: the anchors are walked in batches."""
    g1 = ContinuumGaussian("Hermitian", 1.0, 4.0, 2.0)
    g0 = ContinuumGaussian("Hermitian", 1.0, 0.0, 0.0)
    tracemalloc.start()
    try:
        continuum_inner_quadrature(g1, g0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 << 20, peak


@pytest.mark.parametrize("M", [144, 2304])
def test_brute_complex_equals_one_exp_per_term(M):
    for a, b in [(1, 0), (2, 2), (-7, 3), (M + 5, -M - 1), (0, 1)]:
        terms = [cmath.exp(1j * math.pi * ((a * n * n + 2 * b * n) % (2 * M)) / M) for n in range(1, M + 1)]
        want = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
        assert abs(_brute_complex(a, b, M) - want) < 1e-10, (a, b, M)


def _brute_complex_every_term(a, b, M):
    """The complex Gauss sum as _brute_complex defined it before summing by
    residue: cos and sin of every one of the M angles, each list summed by
    math.fsum."""
    n = np.arange(1, M + 1)
    theta = np.pi * poly_mod(2 * M, [(a, n, n), (2 * b, n)]) / M
    return complex(math.fsum(np.cos(theta).tolist()), math.fsum(np.sin(theta).tolist()))


def _brute_complex_cases(M):
    """a = 0, negative a and b, a and b at or beyond 2M, the closed-form
    coefficients with b a multiple of a or not, and arbitrary a and b."""
    rng = random.Random(f"brute_complex/{M}")
    cases = [(0, 0), (0, rng.randint(1, 4 * M)), (-rng.randint(1, M), -rng.randint(1, M)),
             (2 * M + rng.randint(0, M), 2 * M + rng.randint(0, 3 * M)), (-2 * M - 1, 5 * M + 3)]
    for _ in range(4):
        a = rng.choice((1, 2, 3, 4, 6, 9, 12)) * rng.choice((-1, 1))
        cases.append((a, a * rng.randint(-6, 6)))
        cases.append((a, rng.randint(-40, 40)))
    cases += [(rng.randint(-3 * M, 3 * M), rng.randint(-3 * M, 3 * M)) for _ in range(3)]
    return cases


@pytest.mark.parametrize("M", [16, 144, 2304, 82944])
def test_brute_complex_is_the_fsum_of_every_term(M):
    cases = _brute_complex_cases(M)
    if M == 82944:
        cases.append((12, 5))  # every residue mod 2M distinct: one count per term
    for a, b in cases:
        assert _brute_complex(a, b, M) == _brute_complex_every_term(a, b, M), (a, b, M)
