import math
import random
from fractions import Fraction

import pytest

from gausscalc.arith import DomainMismatch, ParamSpec, find_params
from gausscalc.coeffring import GaussCoeff, to_fp
from gausscalc.dynamics import fourier_operator
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
    norm_squared,
    permutation_unitary,
    restrict,
    state_from_descriptor,
    tensor,
    tensor_inner,
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
    s = gauss_ket(params, V, QuadForm(1, 0, 0), allow_inadmissible=True)
    assert s.qA == 1


def test_hermitian_self_norm_is_one(params, V):
    # normalized ket: <psi|psi> = 1 in extended mode
    s = gauss_ket(params, V, QuadForm(-1, 1, 0), p_param=2)
    assert norm_squared(params, s) == GaussCoeff.one()


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
    collapse = GaussOperator(GaussCoeff.one(), 0, 0, 0, V, V, support=(V.N, 0, 1, 0))
    report = check_unitary(params, collapse)
    assert not report.ok and not report.column_failures
    assert (0, 1, 1, 0) in report.pairing_failures


def test_check_unitary_reports_a_colliding_operator(params, V):
    # q |-> 2q mod 144 maps q and q + 72 to the same output: unit columns,
    # but <A u[0] | A u[-72]> = 1
    doubling = GaussOperator(GaussCoeff.one(), 0, 0, 0, V, V, support=(144, 2, -1, 0))
    report = check_unitary(params, doubling)
    assert not report.ok and not report.column_failures
    assert (0, -72, 1, 0) in report.pairing_failures
    assert len(report.pairing_failures) == V.N


def test_check_unitary_sums_the_columns_of_u_scale_phases():
    # conj() fixes U-scale phases, so the U-domain Fourier kernel's columns
    # do not have squared norm 1 though each entry has unit coefficient
    mid = find_params(ParamSpec(m_base=4, k_mult=2))
    U = domain_u(mid)
    report = check_unitary(mid, fourier_operator(mid, U))
    assert not report.ok and len(report.column_failures) == U.N - 2


def test_restrict_properties(params, V):
    s = gauss_ket(params, V, QuadForm(0, -1, 0), p_param=3)  # uniform modulus
    assert restrict(params, s, 1) == s
    r2 = restrict(params, s, 2, 0)
    assert r2.support == (2, 0)
    assert r2.coeff == s.coeff * GaussCoeff.sqrt(2)
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
    assert to_fp(params, norm_squared(params, r2)) == dense_norm2(s)


def test_restrict_bad_coset(params, V):
    s = gauss_ket(params, V, QuadForm(-1, 0, 0))
    with pytest.raises(BadCoset):
        restrict(params, s, 5)
    empty = restrict(params, restrict(params, s, 2, 0), 2, 1)
    assert empty.is_zero()


def test_permutation_unitary(params, V):
    u = PositionState(3, V)
    shifted = permutation_unitary(params, lambda r: r + 1, u)
    assert isinstance(shifted, PositionState) and shifted.r == 2  # sigma^{-1}(3)
    ident = permutation_unitary(params, lambda r: r, u)
    assert ident.r == 3
    with pytest.raises(Exception):
        permutation_unitary(params, lambda r: 0, u)


def test_permutation_preserves_inner(params, V):
    rng = random.Random(99)
    s1 = gauss_ket(params, V, QuadForm(-1, 1, 0), p_param=2)
    s2 = gauss_ket(params, V, QuadForm(-2, 1, -1), p_param=1)
    perm = list(V.index_range())
    rng.shuffle(perm)
    table = dict(zip(V.index_range(), perm))
    sigma = lambda r: table[r]
    d1 = DenseState.from_state(params, s1)
    d2c = DenseState.from_state(params, s2, conjugate=True)
    before = d1.pair_full(params, d2c)
    image = {r: V.wrap(sigma(r)) for r in V.index_range()}
    after = d1.permute(image).pair_full(params, d2c.permute(image))
    assert before == after


def test_tensor_factorization(params, V):
    s = gauss_ket(params, V, QuadForm(-1, 1, 0), p_param=2)
    t = gauss_ket(params, V, QuadForm(-3, 1, 0), p_param=4)
    single = tensor([s])
    assert tensor_inner(params, single, tensor([t])) == inner(params, s, t)
    pair = tensor([s, s])
    tpair = tensor([t, t])
    got = tensor_inner(params, pair, tpair)
    base = inner(params, s, t)
    assert to_fp(params, got) == to_fp(params, base * base)


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


def test_tensor_arity_and_domains(params, V):
    s = gauss_ket(params, V, QuadForm(-1, 0, 0))
    u = gauss_ket(params, domain_u(params), QuadForm(-1, 0, 0))
    with pytest.raises(DomainMismatch):
        tensor([s, u])
    with pytest.raises(Exception):
        tensor([s] * 5)


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
    op1 = GaussOperator(unit_normalization(params, V), *form1, V, V, support=(2, 1, -1, 0))
    op2 = GaussOperator(unit_normalization(params, V), *form2, V, V, kE=1, support=(3, 1, -1, 1))
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
    op = GaussOperator(unit_normalization(params, V), 0, 0, 0, V, V, support=(12, 2, -1, 0))
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
    op = GaussOperator(GaussCoeff.one(), -3, -1, 0, V4, V4, kD=-2, kE=-1, support=(2, -1, 2, 1))
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
    op2 = GaussOperator(GaussCoeff.one(), 0, 2, 1, V4, V4, kD=2, support=(2, 1, 1, 1))
    prod = compose(small, op1, op2)
    assert prod.is_zero()
    for q in V4.index_range():
        for r in V4.index_range():
            assert _composition_sum(small, op1, op2, q, r) == 0, (q, r)
