import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from gausscalc.arith import ArithError, DomainMismatch, ParamSpec, find_params
from gausscalc.climit import ContinuumGaussian, continuum_inner_closed
from gausscalc.coeffring import GaussCoeff, to_complex, to_fp
from gausscalc.dynamics import (
    fourier_operator,
    free_propagator,
    position_operator_u,
    quadratic_phase_operator,
    shift_operator_v,
)
from gausscalc.gauss import NonGaussianSum
from gausscalc.hilbert import (
    BadCoset,
    DenseState,
    GaussOperator,
    GaussState,
    InadmissibleForm,
    PositionState,
    QuadForm,
    apply_dense,
    apply_operator,
    compose,
    check_unitary,
    domain_u,
    domain_v,
    gauss_ket,
    identity_operator,
    inner,
    state_from_descriptor,
    unit_normalization,
    zero_state,
)


@pytest.fixture(scope="module")
def params():
    return find_params(ParamSpec())


@pytest.fixture(scope="module")
def V(params):
    return domain_v(params)


def brute_inner(params, s1, s2, kind):
    """One-period literal sum: the formal inner product's defining window."""
    p = params.p
    den = math.lcm(s1.den, s2.den)
    f1, f2 = den // s1.den, den // s2.den
    sign = -1 if kind == "Hermitian" else 1
    qA = s1.qA * f1 + sign * s2.qA * f2
    qL = s1.qL * f1 + sign * s2.qL * f2
    qC = s1.qC * f1 + sign * s2.qC * f2
    cf = s1.coeff * (s2.coeff.conj() if kind == "Hermitian" else s2.coeff)
    N = s1.domain.N
    M = N * den
    assert s1.support == (1, 0) and s2.support == (1, 0)
    T = M // abs(qA)
    xi = params.xi(2 * M)
    total = 0
    for r in range(1, T + 1):
        total = (total + pow(xi, (qA * r * r + 2 * qL * r + qC) % (2 * M), p)) % p
    return to_fp(params, cf) * total % p


def test_position_inner_delta(params, V):
    u0 = PositionState(0, V)
    u1 = PositionState(1, V)
    assert inner(params, u0, u0, "Hermitian") == GaussCoeff.one()
    assert inner(params, u0, u1, "Euclidean").is_zero()


def test_position_wraps(V):
    assert PositionState(V.N // 2, V).r == -V.N // 2


def test_ket_position_inner(params, V):
    s = gauss_ket(params, V, QuadForm(-1, 1, -1), p_param=3)
    for r in (0, 5, -7):
        assert inner(params, s, PositionState(r, V)) == s.coordinate(r)


def test_admissibility_enforced(params, V):
    with pytest.raises(InadmissibleForm):
        gauss_ket(params, V, QuadForm(1, 0, 0))


def test_hermitian_self_norm_is_one(params, V):
    # normalized ket: <psi|psi> = 1 in extended mode
    s = gauss_ket(params, V, QuadForm(-1, 1, 0), p_param=2)
    assert inner(params, s, s) == GaussCoeff.one()


def test_euclidean_ket_pair_closed_vs_brute(params, V):
    # A1+A2 = -2 with divisible linear part: the spec's worked shape
    rng = random.Random(2024)
    checked = 0
    for _ in range(40):
        A1 = rng.choice([0, -1, -2])
        A2 = -2 - A1
        B1, B2 = rng.randint(-3, 3), rng.randint(-3, 3)
        p1, p2 = rng.randint(-5, 5), rng.randint(-5, 5)
        s1 = gauss_ket(params, V, QuadForm(A1, B1, -1), p_param=p1)
        s2 = gauss_ket(params, V, QuadForm(A2, B2, -1), p_param=p2)
        if (B1 * p1 + B2 * p2) % 2:
            continue
        got = inner(params, s1, s2, "Euclidean")
        assert to_fp(params, got) == brute_inner(params, s1, s2, "Euclidean")
        checked += 1
    assert checked >= 10


def test_hermitian_ket_pair_closed_vs_brute(params, V):
    rng = random.Random(77)
    checked = 0
    for _ in range(40):
        A1 = rng.choice([-1, -2, -3])
        A2 = rng.choice([0, -1])
        if A1 == A2:
            continue
        s1 = gauss_ket(params, V, QuadForm(A1, rng.randint(-2, 2), 0), p_param=rng.randint(-4, 4))
        s2 = gauss_ket(params, V, QuadForm(A2, rng.randint(-2, 2), 0), p_param=rng.randint(-4, 4))
        A = A1 - A2
        L = s1.qL - s2.qL
        if L % A or (V.N // abs(A)) % 4:
            continue
        got = inner(params, s1, s2, "Hermitian")
        assert to_fp(params, got) == brute_inner(params, s1, s2, "Hermitian")
        checked += 1
    assert checked >= 8


def test_indivisible_pair_full_domain_vanishes(params, V):
    # closed form declares 0 when A does not divide L; the full-domain
    # literal sum indeed vanishes (the one-period block does not)
    s1 = gauss_ket(params, V, QuadForm(-1, 1, 0), p_param=1)
    s2 = gauss_ket(params, V, QuadForm(-1, 0, 0))
    got = inner(params, s1, s2, "Euclidean")
    assert got.is_zero()
    p = params.p
    xi = params.xi(2 * V.N)
    full = 0
    for r in V.index_range():
        full = (full + pow(xi, (-2 * r * r + 2 * r) % (2 * V.N), p)) % p
    assert full == 0


def test_sesquilinearity(params, V):
    rng = random.Random(5)
    s1 = gauss_ket(params, V, QuadForm(-1, 1, 0), p_param=2)
    s2 = gauss_ket(params, V, QuadForm(-2, 1, 0), p_param=4)
    for _ in range(10):
        a = GaussCoeff(
            Fraction(rng.randint(1, 5), rng.randint(1, 5)),
            rng.choice([1, 2, 3]),
            rng.randint(-2, 2),
            rng.randint(0, 7),
        )
        scaled1 = GaussState(s1.coeff * a, s1.qA, s1.qL, s1.qC, V)
        scaled2 = GaussState(s2.coeff * a, s2.qA, s2.qL, s2.qC, V)
        base = inner(params, s1, s2, "Hermitian")
        assert to_fp(params, inner(params, scaled1, s2, "Hermitian")) == to_fp(params, a * base)
        assert to_fp(params, inner(params, s1, scaled2, "Hermitian")) == to_fp(params, a.conj() * base)


def test_inner_domain_mismatch(params, V):
    s = gauss_ket(params, V, QuadForm(-1, 0, 0))
    t = gauss_ket(params, domain_u(params), QuadForm(-1, 0, 0))
    with pytest.raises(DomainMismatch):
        inner(params, s, t)


def test_an_operator_acts_on_one_domain():
    # a U -> V kernel used to be accepted, and apply_operator then read the
    # image coset against one N and its phase against the other: on the
    # (2, 1) tower it printed [15, 0, 17, 0] where apply_dense gave [30, 0, 17, 0]
    small = find_params(ParamSpec(2, 1))
    U, V = domain_u(small), domain_v(small)
    for d_in, d_out in ((U, V), (V, U)):
        with pytest.raises(DomainMismatch):
            GaussOperator(GaussCoeff.one(), -1, 1, -1, d_in, d_out)


def test_apply_and_compose_refuse_a_foreign_input():
    small = find_params(ParamSpec(2, 1))
    U, V = domain_u(small), domain_v(small)
    F = fourier_operator(small, V)
    with pytest.raises(ArithError, match="cannot apply operator to int"):
        apply_operator(small, F, 3)
    with pytest.raises(DomainMismatch, match="operator input domain mismatch"):
        apply_operator(small, F, gauss_ket(small, U, QuadForm(-1, 0, 0)))
    with pytest.raises(DomainMismatch, match="op1 input must match op2 output"):
        compose(small, F, identity_operator(U))


def test_dense_oracles_refuse_mismatched_domains():
    small = find_params(ParamSpec(2, 1))
    U, V = domain_u(small), domain_v(small)
    u = DenseState.from_state(small, gauss_ket(small, U, QuadForm(-1, 0, 0)))
    v = DenseState.from_state(small, gauss_ket(small, V, QuadForm(-1, 0, 0)))
    with pytest.raises(DomainMismatch):
        apply_dense(small, fourier_operator(small, V), u)
    with pytest.raises(DomainMismatch):
        u.pair_full(small, v)


def _literal_restricted_inner(params, s1, c1, s2, c2, kind):
    """The restricted pairing by brute force: the coset shared by c1 and c2
    read off the domain (None when they are disjoint), and the literal sum
    of e((qA r^2 + 2 qL r + qC) / 2M) at r = d + k sigma over one period of
    the summand, found by comparing exponents; over the whole coset when the
    summand is constant (the extended convention)."""
    N = s1.domain.N
    shared = [r for r in range(N) if (r - c1[1]) % c1[0] == 0 and (r - c2[1]) % c2[0] == 0]
    if not shared:
        return None
    k = shared[1] - shared[0] if len(shared) > 1 else N
    d = shared[0]
    p = params.p
    den = math.lcm(s1.den, s2.den)
    f1, f2 = den // s1.den, den // s2.den
    sign = -1 if kind == "Hermitian" else 1
    qA = s1.qA * f1 + sign * s2.qA * f2
    qL = s1.qL * f1 + sign * s2.qL * f2
    qC = s1.qC * f1 + sign * s2.qC * f2
    M = N * den
    e = [(qA * r * r + 2 * qL * r + qC) % (2 * M) for r in range(d, d + 4 * M * k, k)]
    period = next(w for w in range(1, 2 * M + 1) if e[w:w + 2 * M] == e[:2 * M])
    xi = params.xi(2 * M)
    total = sum(pow(xi, x, p) for x in e[:N // k if period == 1 else period]) % p
    cf = s1.coeff * (s2.coeff.conj() if kind == "Hermitian" else s2.coeff)
    return to_fp(params, cf) * total % p


# nested, coprime and non-coprime non-nested moduli (each pair kept where both divide N)
RESTRICTED_MODULI = [(1, 4), (2, 4), (4, 4), (8, 2), (2, 3), (4, 9), (4, 6), (6, 9), (12, 9)]


@pytest.mark.parametrize("spec", [(2, 1), (4, 2), (6, 1)])
def test_inner_of_restricted_kets_vs_literal(spec):
    tower = find_params(ParamSpec(*spec))
    V = domain_v(tower)
    forms = [QuadForm(-1, 0, 0), QuadForm(-1, 1, -1), QuadForm(0, -1, 0), QuadForm(-2, 1, -1)]
    counts = {"value": 0, "zero": 0, "disjoint": 0, "refused": 0}
    for f1, f2 in itertools.product(forms, forms):
        for p1, p2 in ((1, 1), (1, 2)):
            g1, g2 = gauss_ket(tower, V, f1, p1), gauss_ket(tower, V, f2, p2)
            for k1, k2 in RESTRICTED_MODULI:
                if V.N % k1 or V.N % k2:
                    continue
                for c1, c2 in itertools.product([(k1, d) for d in range(k1)], [(k2, d) for d in range(k2)]):
                    s1 = replace(g1, coeff=g1.coeff * GaussCoeff.sqrt(k1), support=c1)
                    s2 = replace(g2, coeff=g2.coeff * GaussCoeff.sqrt(k2), support=c2)
                    for kind in ("Euclidean", "Hermitian"):
                        want = _literal_restricted_inner(tower, s1, c1, s2, c2, kind)
                        try:
                            got = to_fp(tower, inner(tower, s1, s2, kind))
                        except NonGaussianSum:
                            counts["refused"] += 1
                            continue
                        assert got == (want or 0), (f1, p1, c1, f2, p2, c2, kind)
                        counts["disjoint" if want is None else "value" if got else "zero"] += 1
    assert counts["value"] and counts["disjoint"] and counts["refused"], counts


def test_identity_operator(params, V):
    op = identity_operator(V)
    u = PositionState(5, V)
    out = apply_operator(params, op, u)
    assert to_fp(params, out.coordinate(5)) == 1
    assert sum(1 for r in V.index_range() if to_fp(params, out.coordinate(r))) == 1
    s = gauss_ket(params, V, QuadForm(-1, 1, 0), p_param=3)
    out2 = apply_operator(params, op, s)
    for r in (-3, 0, 7):
        assert to_fp(params, out2.coordinate(r)) == to_fp(params, s.coordinate(r))


def test_apply_gauss_kernel_vs_dense(params, V):
    # generic admissible kernel against the O(N^2) oracle
    op = GaussOperator(
        unit_normalization(params, V), -1, 1, -1, V, V, kD=1, kE=-2
    )
    s = gauss_ket(params, V, QuadForm(-1, 1, 0), p_param=2)
    out = apply_operator(params, op, s)
    dense_in = DenseState.from_state(params, s)
    dense_out = apply_dense(params, op, dense_in)
    for r in V.index_range():
        assert to_fp(params, out.coordinate(r)) == dense_out.coords[r], r


def test_apply_reports_support_coset(params, V):
    # kernel with |combined A| = 2 produces an index-2 coset image
    op = GaussOperator(unit_normalization(params, V), -1, 1, -1, V, V)
    s = gauss_ket(params, V, QuadForm(-1, 1, 0), p_param=1)
    out = apply_operator(params, op, s)
    k, d = out.support
    dense_out = apply_dense(params, op, DenseState.from_state(params, s))
    for r in V.index_range():
        if (r - d) % k:
            assert dense_out.coords[r] == 0, r
    assert any(dense_out.coords[r] for r in V.index_range() if (r - d) % k == 0)


def test_compose_identity(params, V):
    op = GaussOperator(unit_normalization(params, V), -1, 1, -1, V, V)
    left = compose(params, identity_operator(V), op)
    right = compose(params, op, identity_operator(V))
    for q, r in [(0, 0), (1, 5), (-3, 2)]:
        want = to_fp(params, op.kernel_value(q, r))
        assert to_fp(params, left.kernel_value(q, r)) == want
        assert to_fp(params, right.kernel_value(q, r)) == want


def test_compose_vs_dense(params, V):
    op1 = GaussOperator(unit_normalization(params, V), -1, 1, -1, V, V)
    op2 = GaussOperator(unit_normalization(params, V), -1, 1, -2, V, V, kE=1)
    prod = compose(params, op1, op2)
    p = params.p
    for q, r in [(0, 0), (1, 3), (-5, 2), (7, -7)]:
        acc = 0
        for mm in V.index_range():
            a = op2.kernel_value(q, mm)
            b = op1.kernel_value(mm, r)
            if not a.is_zero() and not b.is_zero():
                acc = (acc + to_fp(params, a) * to_fp(params, b)) % p
        assert to_fp(params, prod.kernel_value(q, r)) == acc, (q, r)


def test_check_unitary_scaled_kernel_fails(params, V):
    bad = GaussOperator(
        unit_normalization(params, V) * GaussCoeff.rational(2), 0, -1, 0, V, V
    )
    report = check_unitary(params, bad)
    assert not report.ok and report.column_failures


def test_check_unitary_reports_a_non_orthogonal_operator(params, V):
    # every column is the unit vector u[0]: unit columns, but <A u[q] | A u[q']> = 1
    collapse = GaussOperator(GaussCoeff.one(), 0, 0, 0, V, V, support=((V.N, (0, 1, 0)),))
    report = check_unitary(params, collapse)
    assert not report.ok and not report.column_failures
    assert (0, 1, 1, 0) in report.pairing_failures


def test_check_unitary_reports_a_colliding_operator(params, V):
    # q |-> 2q mod 144 maps q and q + 72 to the same output: unit columns,
    # but <A u[0] | A u[-72]> = 1
    doubling = GaussOperator(GaussCoeff.one(), 0, 0, 0, V, V, support=((144, (2, -1, 0)),))
    report = check_unitary(params, doubling)
    assert not report.ok and not report.column_failures
    assert (0, -72, 1, 0) in report.pairing_failures
    assert len(report.pairing_failures) == V.N


# six constructors of operators that are unitary on V, with the number of
# columns check_unitary fails on the U domain of the (2, 1) tower (N_u = 16)
SMALL_TOWER_UNITARITY = [
    ("identity_operator", lambda P, d: identity_operator(d), 0),
    ("fourier_operator", fourier_operator, 14),
    ("position_operator_u", position_operator_u, 14),
    ("shift_operator_v", shift_operator_v, 0),
    ("quadratic_phase_operator(1)", lambda P, d: quadratic_phase_operator(P, 1, d), 12),
    ("free_propagator(1)", lambda P, d: free_propagator(P, 1, d), 16),
]


@pytest.mark.parametrize("tag", ["V", "U"])
@pytest.mark.parametrize("build,u_failures", [c[1:] for c in SMALL_TOWER_UNITARITY],
                         ids=[c[0] for c in SMALL_TOWER_UNITARITY])
def test_check_unitary_of_the_constructors_on_the_small_tower(tag, build, u_failures):
    # conj() fixes U-scale phases, so Hermitian unitarity is expected on V
    # only: on U a kernel whose V copy is unitary can fail its column norms
    small = find_params(ParamSpec(m_base=2, k_mult=1))
    domain = domain_v(small) if tag == "V" else domain_u(small)
    report = check_unitary(small, build(small, domain))
    failures = 0 if tag == "V" else u_failures
    assert len(report.column_failures) == failures
    assert report.ok == (failures == 0)


def test_check_unitary_sums_the_columns_of_u_scale_phases():
    # the same for the U-domain Fourier kernel on the mid tower (N_u = 1024)
    mid = find_params(ParamSpec(m_base=4, k_mult=2))
    U = domain_u(mid)
    report = check_unitary(mid, fourier_operator(mid, U))
    assert not report.ok and len(report.column_failures) == U.N - 2


def test_restrict_properties(params, V):
    # the restriction of a ket to 2Z, renormalised by sqrt(2)
    s = gauss_ket(params, V, QuadForm(0, -1, 0), p_param=3)  # uniform modulus
    r2 = replace(s, coeff=s.coeff * GaussCoeff.sqrt(2), support=(2, 0))
    assert [r2.coordinate(r) for r in (0, 1, 2)] == [s.coordinate(0) * GaussCoeff.sqrt(2), GaussCoeff.zero(),
                                                      s.coordinate(2) * GaussCoeff.sqrt(2)]
    # norm^2 of the restriction equals norm^2 of the original, brute force
    p = params.p
    def dense_norm2(state):
        total = 0
        for r in V.index_range():
            c = state.coordinate(r)
            if not c.is_zero():
                total = (total + to_fp(params, c * c.conj())) % p
        return total
    assert dense_norm2(r2) == dense_norm2(s)
    assert to_fp(params, inner(params, r2, r2)) == dense_norm2(s)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 6, 12, 24])
def test_restricted_euclidean_pairing_has_the_continuum_limit(params, k):
    # restricting to kZ changes the summation step, not the scale: m times
    # the pairing of e(-r^2/2N_u) with itself tends to int e^{-2 pi x^2} dx
    U = domain_u(params)
    ket = gauss_ket(params, U, QuadForm(-1, 0, 0))
    s = replace(ket, coeff=ket.coeff * GaussCoeff.sqrt(k), support=(k, 0))
    got = to_complex(params, inner(params, s, s, "Euclidean") * GaussCoeff.rational(params.m))
    g = ContinuumGaussian("Euclidean", 1.0, 1.0, 0.0)
    assert abs(got - continuum_inner_closed(g, g)) < 1e-12


def test_restrict_bad_coset(params, V):
    # a step that does not divide N = 144 is refused; disjoint cosets pair to zero
    s = gauss_ket(params, V, QuadForm(-1, 0, 0))
    with pytest.raises(BadCoset):
        replace(s, support=(5, 0))
    assert inner(params, replace(s, support=(2, 0)), replace(s, support=(2, 1))).is_zero()


@pytest.mark.parametrize("bad", [(0, (1, -1, 0)), (-3, (1, -1, 0)), (288, (1, 0, 0)), (288, (0, 1, 0))])
def test_operator_bad_guard_anywhere_in_the_support(V, bad):
    # a modulus below 1, or a guard that the index wraparound mod N = 144
    # breaks (288 does not divide 1 * 144), first or second in the support
    for support in ((bad,), ((2, (1, -1, 0)), bad)):
        with pytest.raises(BadCoset):
            GaussOperator(GaussCoeff.one(), 0, 0, 0, V, V, support=support)
    GaussOperator(GaussCoeff.one(), 0, 0, 0, V, V, support=((2, (1, -1, 0)), (288, (2, 2, 1))))


def test_compose_with_a_zero_operator_is_the_zero_operator(params, V):
    zero = GaussOperator(GaussCoeff.zero(), -1, 1, 0, V, V)
    F = fourier_operator(params, V)
    for op1, op2 in ((zero, F), (F, zero)):
        assert compose(params, op1, op2) == GaussOperator(GaussCoeff.zero(), 0, 0, 0, V, V)


def test_permutation_preserves_inner(params, V):
    rng = random.Random(99)
    s1 = gauss_ket(params, V, QuadForm(-1, 1, 0), p_param=2)
    s2 = gauss_ket(params, V, QuadForm(-2, 1, -1), p_param=1)
    d1 = DenseState.from_state(params, s1)
    d2c = DenseState.from_state(params, s2, conjugate=True)
    before = d1.pair_full(params, d2c)
    order = rng.sample(range(V.N), V.N)
    after = DenseState(V, d1.vec[order]).pair_full(params, DenseState(V, d2c.vec[order]))
    assert before == after


def test_tensor_double_index_brute(params):
    # M = 2 inner product against the literal double sum on a small tower
    small = find_params(ParamSpec(2, 1))
    Vs = domain_v(small)
    p = small.p
    s = gauss_ket(small, Vs, QuadForm(-1, 1, 0), p_param=1)
    t = gauss_ket(small, Vs, QuadForm(0, -1, 0), p_param=1)
    # tame full pairing in both indices
    total = 0
    for r1 in Vs.index_range():
        for r2 in Vs.index_range():
            a = to_fp(small, s.coordinate(r1) * s.coordinate(r2))
            b = to_fp(small, (t.coordinate(r1) * t.coordinate(r2)).conj())
            total = (total + a * b) % p
    d1 = DenseState.from_state(small, s)
    d2c = DenseState.from_state(small, t, conjugate=True)
    factor = d1.pair_full(small, d2c)
    assert total == factor * factor % p


def test_state_descriptor_roundtrip(params, V):
    s = gauss_ket(params, V, QuadForm(-1, 2, -1), p_param=3)
    d = s.to_descriptor()
    back = state_from_descriptor(params, d)
    for r in (-5, 0, 11):
        assert to_fp(params, back.coordinate(r)) == to_fp(params, s.coordinate(r))


def test_zero_state(params, V):
    z = zero_state(V)
    assert z.is_zero()
    assert inner(params, z, gauss_ket(params, V, QuadForm(-1, 0, 0))).is_zero()


def test_a_zero_operator_maps_either_kind_of_state_to_the_zero_state(params, V):
    # a position state used to come back with a zero coefficient but the
    # kernel row's form, unequal to the zero state a Gaussian ket gives
    zero = GaussOperator(GaussCoeff.zero(), -1, 1, -1, V, V)
    for s in (PositionState(3, V), gauss_ket(params, V, QuadForm(-1, 0, 0))):
        assert apply_operator(params, zero, s) == zero_state(V)


def test_apply_closed_vs_brute_at_Nu_thousand_samples(params):
    # closed-form apply on the big domain, checked coordinatewise against
    # the literal kernel sum at >= 1000 random output indices
    U = domain_u(params)
    op = GaussOperator(unit_normalization(params, U), -1, 1, -1, U, U, kE=1)
    s = gauss_ket(params, U, QuadForm(-1, 1, -1), p_param=3)
    out = apply_operator(params, op, s)
    p = params.p
    N = U.N
    two_m = 2 * N
    xi = params.xi(two_m)
    coeff_fp = to_fp(params, s.coeff * op.coeff)
    rng = random.Random(82944)
    samples = [rng.randrange(-N // 2, N // 2) for _ in range(1000)]
    for r in samples:
        # phase in q: (sA + kA) q^2 + 2(sL + kB r) q + (sC + kC r^2 + 2 kE r),
        # summed over q = 1..N (one whole period) by the pinned power_sum
        A = s.qA + op.kA
        L = s.qL + op.kB * r
        C = s.qC + op.kC * r * r + 2 * op.kE * r
        total = params.power_sum(two_m, A, L, 0, N) * pow(xi, C % two_m, p) % p
        want = coeff_fp * total % p
        assert to_fp(params, out.coordinate(r)) == want, r


# -- inputs the summation kernel added to the fragment ----------------------------
# coprime support cosets merged by CRT, and a scaled sum that telescopes on the
# nested coset of the state and kernel supports


@pytest.mark.parametrize("t, A, support", [(3, 0, (2, 0)), (2, -1, (2, 1))])
def test_apply_widened_fragment_vs_dense(params, V, t, A, support):
    from gausscalc.dynamics import free_propagator

    op = free_propagator(params, t)
    s = GaussState(unit_normalization(params, V), A, 2, 0, V, support=support)
    out = apply_operator(params, op, s)
    dense_out = apply_dense(params, op, DenseState.from_state(params, s))
    assert any(dense_out.coords.values())
    for r in V.index_range():
        assert to_fp(params, out.coordinate(r)) == dense_out.coords[r], r


@pytest.mark.parametrize("form1, form2", [((-1, 1, -1), (0, -1, 0)), ((0, 1, 0), (0, -1, 0))])
def test_compose_coprime_supports_vs_brute(params, V, form1, form2):
    op1 = GaussOperator(unit_normalization(params, V), *form1, V, V, support=((2, (1, -1, 0)),))
    op2 = GaussOperator(unit_normalization(params, V), *form2, V, V, kE=1, support=((3, (1, -1, -1)),))
    prod = compose(params, op1, op2)
    pairs = [(0, 0), (1, 3), (-5, 2), (7, -7), (4, 1), (-2, -3)]
    pairs += [(q, r) for q in range(-6, 6) for r in range(-6, 6) if prod.on_support(q, r)][:6]
    for q, r in pairs:
        assert to_fp(params, prod.kernel_value(q, r)) == _composition_sum(params, op1, op2, q, r), (q, r)


def _composition_sum(params, op1, op2, q, r):
    p = params.p
    acc = 0
    for mm in op1.domain_in.index_range():
        a = op2.kernel_value(q, mm)
        b = op1.kernel_value(mm, r)
        if not a.is_zero() and not b.is_zero():
            acc = (acc + to_fp(params, a) * to_fp(params, b)) % p
    return acc


def test_apply_guard_with_gcd_on_the_state_coset(params, V):
    # the kernel support 2q - r = 0 (mod 12) does not pin q, but on the state's
    # coset q = 5 (mod 144) it reads r = 10 (mod 12), as for the position state u[5]
    op = GaussOperator(unit_normalization(params, V), 0, 0, 0, V, V, support=((12, (2, -1, 0)),))
    s = GaussState(GaussCoeff.one(), 0, 0, 0, V, support=(144, 5))
    out = apply_operator(params, op, s)
    assert out == apply_operator(params, op, PositionState(5, V))
    assert out.support == (12, 10)
    dense_out = apply_dense(params, op, DenseState.from_state(params, s))
    for r in V.index_range():
        assert to_fp(params, out.coordinate(r)) == dense_out.coords[r], r


def test_apply_inconsistent_supports_is_zero():
    # the state lives on even q, the kernel on odd q: the image is zero,
    # although the phase on the merged coset (A = -12, M = 4) has no
    # integral period
    small = find_params(ParamSpec(2, 1))
    V4 = domain_v(small)
    op = GaussOperator(GaussCoeff.one(), -3, -1, 0, V4, V4, kD=-2, kE=-1, support=((2, (-1, 2, -1)),))
    s = GaussState(GaussCoeff.one(), -1, -2, 0, V4, support=(2, 0))
    assert apply_operator(small, op, s).is_zero()
    assert not any(apply_dense(small, op, DenseState.from_state(small, s)).coords.values())


def test_compose_unsatisfiable_guard_is_zero_operator():
    # the divisibility guard of this composition holds for no (q, r): the
    # result is the zero operator, not a coefficient under the empty pair
    # coset 0 = 1 (mod 2)
    small = find_params(ParamSpec(2, 1))
    V4 = domain_v(small)
    op1 = GaussOperator(GaussCoeff.one(), -2, 0, 0, V4, V4, kD=-2, den=2)
    op2 = GaussOperator(GaussCoeff.one(), 0, 2, 1, V4, V4, kD=2, support=((2, (1, 1, -1)),))
    prod = compose(small, op1, op2)
    assert prod.is_zero()
    for q in V4.index_range():
        for r in V4.index_range():
            assert _composition_sum(small, op1, op2, q, r) == 0, (q, r)


# support guards k | a q + b r + c whose r coefficient shares a factor with k:
# the image of u[q] lives on a coset of r with step k / gcd(b, k), or is zero
POSITION_SUPPORTS = [(4, (1, 2, -1)), (4, (1, 2, 0)), (6, (1, 4, -3)), (12, (3, 8, 0)), (8, (2, 4, -2)),
                     (9, (3, 6, 0)), (6, (0, 3, -1)), (4, (2, 0, -1))]


def test_apply_to_position_state_on_a_gcd_support_vs_dense(params, V):
    zeros = 0
    for support in POSITION_SUPPORTS:
        op = GaussOperator(unit_normalization(params, V), -1, 2, -2, V, V, kD=1, kE=-3, den=2, support=(support,))
        for q in range(-9, 9):
            s = PositionState(q, V)
            out = apply_operator(params, op, s)
            dense_out = apply_dense(params, op, DenseState.from_state(params, s))
            zeros += out.is_zero()
            for r in V.index_range():
                assert to_fp(params, out.coordinate(r)) == dense_out.coords[r], (support, q, r)
    assert zeros == 85


# -- multi-guard operators through the public lifts, on N_v = 36 --------------------
# the (6, 1) tower's V domain; every operator and state phase is N-periodic
# (a den of 2 comes with even coefficients), so the literal sums are
# well-defined over the whole domain

SIX = find_params(ParamSpec(6, 1))
V36 = domain_v(SIX)
FUZZ_MODULI = (2, 3, 4, 6, 9, 12, 18, 36)  # the divisors of 36
_guards = st.lists(st.tuples(st.sampled_from(FUZZ_MODULI),
                             st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-6, 6))), max_size=2)
_operators = st.tuples(st.sampled_from((1, 2)), st.lists(st.integers(-2, 2), min_size=5, max_size=5), _guards)
_states = st.tuples(st.sampled_from((1, 2)), st.integers(-2, 2), st.integers(-3, 3), st.integers(-3, 3),
                    st.sampled_from((1,) + FUZZ_MODULI), st.integers(0, 35))


def _fuzz_operator(den, ks, guards):
    kA, kB, kC, kD, kE = (den * k for k in ks)
    return GaussOperator(unit_normalization(SIX, V36), kA, kB, kC, V36, V36, kD=kD, kE=kE, den=den,
                         support=tuple(guards))


def _lifted_or_refused(fn, what):
    try:
        return fn()
    except NonGaussianSum:
        event(f"{what} refused")
        return None


@settings(max_examples=400, deadline=None)
@given(_operators, _operators, _states, st.integers(-18, 17))
def test_multi_guard_lifts_vs_literal(d1, d2, sd, q):
    # compose against the product of the kernel blocks at every (q, r), and
    # apply_operator against apply_dense at every r, for the drawn operator
    # and for the composition; refusals are allowed
    P, p = SIX, SIX.p
    op1, op2 = _fuzz_operator(*d1), _fuzz_operator(*d2)
    idx = V36.index_vector()
    ops = [op1]
    prod = _lifted_or_refused(lambda: compose(P, op1, op2), "compose")
    if prod is not None:
        blocks = [op.kernel_block(P, idx[:, None], idx[None, :]) for op in (prod, op2, op1)]
        assert np.array_equal(blocks[0], blocks[1] @ blocks[2] % p), prod.support
        ops.append(prod)
    den, A, L, C, k, d = sd
    s = GaussState(unit_normalization(P, V36), den * A, den * L, C, V36, den=den, support=(k, d))
    for op in ops:
        for state in (s, PositionState(q, V36)):
            out = _lifted_or_refused(lambda: apply_operator(P, op, state), "apply")
            if out is not None:
                want = apply_dense(P, op, DenseState.from_state(P, state)).vec
                assert np.array_equal(DenseState.from_state(P, out).vec, want), (op.support, state)


def test_compose_refuses_a_lifted_guard_that_breaks_the_wraparound():
    # den-2 kernels with odd coefficients are not N-periodic; the Gauss sum
    # lifts 72 | r, which N = 36 does not keep well-defined
    one = GaussCoeff.one()
    op1 = GaussOperator(one, -2, 1, -2, V36, V36, den=2, support=((12, (0, -2, -4)),))
    op2 = GaussOperator(one, 0, 0, 2, V36, V36, den=2)
    with pytest.raises(NonGaussianSum, match=r"composed guard 72 \| 0\*q \+ 1\*r \+ 0"):
        compose(SIX, op1, op2)


def test_compose_keeps_one_of_two_equivalent_guards():
    # 4 | r + 1 and 4 | 3r + 3 hold on the same r: each implies the other,
    # and the composed support keeps one of them
    unit = unit_normalization(SIX, V36)
    op1 = GaussOperator(unit, -1, 1, 0, V36, V36, support=((4, (0, 1, 1)), (4, (0, 3, 3))))
    op2 = GaussOperator(unit, 0, -1, 0, V36, V36)
    prod = compose(SIX, op1, op2)
    assert prod.support == ((4, (0, 3, 3)),)
    idx = V36.index_vector()
    blocks = [op.kernel_block(SIX, idx[:, None], idx[None, :]) for op in (prod, op2, op1)]
    assert blocks[0].any() and np.array_equal(blocks[0], blocks[1] @ blocks[2] % SIX.p)
