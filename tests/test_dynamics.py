import random
from fractions import Fraction

import numpy as np
import pytest

from gausscalc.arith import ArithError, Params, ParamSpec, find_params
from gausscalc.coeffring import GaussCoeff, to_fp
from gausscalc.dynamics import (
    fourier_operator,
    free_propagator,
    free_propagator_brute,
    position_operator_u,
    quadratic_phase_operator,
    shift_operator_v,
    sm_transfer,
    weyl_pair,
)
from gausscalc.gauss import PreconditionViolation
from gausscalc.hilbert import (
    DenseState,
    GaussOperator,
    PositionState,
    QuadForm,
    apply_dense,
    apply_operator,
    check_unitary,
    compose,
    domain_u,
    domain_v,
    gauss_ket,
    identity_operator,
    inner,
    unit_normalization,
)


@pytest.fixture(scope="module")
def params():
    return find_params(ParamSpec())


@pytest.fixture(scope="module")
def V(params):
    return domain_v(params)


def momentum_ket(params, V, p_index):
    """v[p]: r -> (1/sqrt(N)) e(-r p / N), the A = 0 ket with bilinear form -2 r p."""
    return gauss_ket(params, V, QuadForm(0, -1, 0), p_param=p_index)


def test_momentum_zero_is_uniform(params, V):
    v0 = momentum_ket(params, V, 0)
    for r in (-3, 0, 17):
        assert to_fp(params, v0.coordinate(r)) == to_fp(
            params, GaussCoeff.rational(Fraction(1, params.m))
        )


def test_momentum_orthonormal(params, V):
    v1 = momentum_ket(params, V, 3)
    v2 = momentum_ket(params, V, 5)
    assert inner(params, v1, v2, "Hermitian").is_zero()
    assert inner(params, v1, v1) == GaussCoeff.one()
    # strict mode reproduces the declared-zero convention
    assert inner(params, v1, v1, "Hermitian", mode="strict").is_zero()


def test_fourier_maps_position_to_momentum(params, V):
    F = fourier_operator(params)
    out = apply_operator(params, F, PositionState(4, V))
    vm = momentum_ket(params, V, 4)
    for r in (-9, 0, 4, 31):
        assert to_fp(params, out.coordinate(r)) == to_fp(params, vm.coordinate(r))


def test_position_expands_in_momentum_basis(params, V):
    # u[r] = (1/sqrt(N)) sum_p e(rp/N) v[p], checked pointwise at r0
    p = params.p
    r0, s0 = 7, -5
    total = 0
    inv_m = pow(params.m, -1, p)
    for q in V.index_range():
        vp = momentum_ket(params, V, q)
        total = (
            total + params.char_e(Fraction(r0 * q, V.N) % 1) * to_fp(params, vp.coordinate(s0))
        ) % p
    expect = 1 if s0 == r0 else 0
    assert total * inv_m % p == expect


def test_weyl_actions(params, V):
    U = position_operator_u(params)
    Vo = shift_operator_v(params)
    u0 = PositionState(0, V)
    out = apply_operator(params, U, u0)
    assert to_fp(params, out.coordinate(0)) == 1  # eigenvalue e(0) = 1
    ur = PositionState(5, V)
    shifted = apply_operator(params, Vo, ur)
    assert to_fp(params, shifted.coordinate(6)) == 1
    assert to_fp(params, shifted.coordinate(5)) == 0
    # wraparound at the edge
    edge = apply_operator(params, Vo, PositionState(V.N // 2 - 1, V))
    assert to_fp(params, edge.coordinate(-V.N // 2)) == 1


def test_weyl_commutation_exact(params, V):
    pair = weyl_pair(params)
    for r in (-V.N // 2, -17, 0, 1, 40, V.N // 2 - 1):
        assert pair.commutation_defect(params, r) == {}


def test_weyl_commutation_as_operators(params, V):
    pair = weyl_pair(params)
    uv = compose(params, pair.U, pair.V)
    vu = compose(params, pair.V, pair.U)
    qfp = to_fp(params, pair.q)
    p = params.p
    for q, r in [(0, 1), (5, 6), (-3, -2), (70, 71)]:
        assert to_fp(params, uv.kernel_value(q, r)) == qfp * to_fp(params, vu.kernel_value(q, r)) % p


def test_commutation_phase_order(params, V):
    # q^N = 1 exactly: N products in the ring, and in F_p
    q = weyl_pair(params).q
    qN = GaussCoeff.one()
    for _ in range(V.N):
        qN = qN * q
    assert qN == GaussCoeff.one() and to_fp(params, qN) == 1
    assert pow(to_fp(params, q), V.N, params.p) == 1


@pytest.mark.parametrize("t", [1, 2, 3, 6])
def test_free_propagator_vs_brute(params, V, t):
    """P(t) against the momentum-side brute sum at every entry of the V
    domain, and that sum against one pow per term on three rows."""
    op = free_propagator(params, t)
    p, N = params.p, V.N
    idx = V.index_vector()
    got = op.kernel_block(params, idx[:, None], idx[None, :])
    want = [[free_propagator_brute(params, t, V, int(r), int(s)) for s in idx] for r in idx]
    assert np.array_equal(got, np.array(want, dtype=got.dtype))
    # (1/N) sum_p xi_2N^(t p^2 + 2 p (r - s)), and the scalar kernel_value
    xi, inv_n = params.xi(2 * N), pow(N, -1, p)
    for r in random.Random(t).sample(V.index_range(), 3):
        row = [sum(pow(xi, t * q * q + 2 * q * (r - s), p) for q in V.index_range()) * inv_n % p
               for s in V.index_range()]
        assert row == want[r + N // 2], (t, r)
        assert [to_fp(params, op.kernel_value(r, s)) for s in V.index_range()] == row, (t, r)
    # support: entries vanish exactly off t | r - s
    assert op.kernel_value(0, 1).is_zero() if t > 1 else True


def test_the_propagator_oracle_sums_every_term_on_every_call(params, V, monkeypatch):
    """free_propagator_brute stays literal: each call is one power_sum that
    gathers all N momentum terms, and nothing is cached across calls."""
    sums, gathered = [], []
    power_sum = Params.power_sum

    def counting_sum(self, two_m, a, b, lo, hi):
        sums.append(hi - lo)
        return power_sum(self, two_m, a, b, lo, hi)

    class CountingTable(np.ndarray):
        def __getitem__(self, key):
            if isinstance(key, np.ndarray):
                gathered.append(key.size)
            return np.asarray(self)[key]

    monkeypatch.setattr(Params, "power_sum", counting_sum)
    monkeypatch.setitem(params._powers, 2 * V.N, params.power_table(2 * V.N).view(CountingTable))
    first = free_propagator_brute(params, 2, V, 5, -7)
    second = free_propagator_brute(params, 2, V, 5, -7)
    assert first == second == to_fp(params, free_propagator(params, 2).kernel_value(5, -7))
    assert sums == [V.N, V.N]
    assert gathered == [V.N, V.N]


def test_free_propagator_bad_time(params):
    with pytest.raises(PreconditionViolation):
        free_propagator(params, 5)  # 20 does not divide 144
    with pytest.raises(PreconditionViolation):
        free_propagator(params, 0)


def test_free_propagator_has_period_2N(params, V):
    """The momentum phase e(p^2 t / 2N) has period 2N in t: P(1 + 2N) is P(1)
    at every entry, and 1 + N (= 1 - N mod 2N) is refused under the t passed."""
    N = V.N
    idx = np.array(list(V.index_range()))
    got = free_propagator(params, 1 + 2 * N).kernel_block(params, idx[:, None], idx[None, :])
    want = [[free_propagator_brute(params, 1 + 2 * N, V, int(r), int(s)) for s in idx] for r in idx]
    assert np.array_equal(got, np.array(want, dtype=got.dtype))
    with pytest.raises(PreconditionViolation, match=f"t={1 + N} = {1 - N} mod 2N"):
        free_propagator(params, 1 + N)


@pytest.mark.parametrize("tower, t", [
    ((12, 2), -1), ((12, 2), -2), ((12, 2), -3), ((12, 2), -36),
    ((6, 1), -1), ((6, 1), -3), ((6, 1), -9),
])
def test_negative_time_is_the_adjoint(tower, t):
    """P(-t) is P(t) with its coefficient conjugated and its form negated:
    the momentum-side brute sum at every entry of the V domain."""
    P = find_params(ParamSpec(*tower))
    V = domain_v(P)
    op = free_propagator(P, t)
    assert (op.kA, op.kB, op.kC, op.den) == (1, -1, 1, -t)
    assert op.coeff == free_propagator(P, -t).coeff.conj()
    idx = V.index_vector()
    got = op.kernel_block(P, idx[:, None], idx[None, :])
    want = [[free_propagator_brute(P, t, V, int(r), int(s)) for s in idx] for r in idx]
    assert np.array_equal(got, np.array(want, dtype=got.dtype))


def test_free_propagator_on_position_state(params, V):
    # t=2 applied to u[0]: support coset (2, 0)
    op = free_propagator(params, 2)
    out = apply_operator(params, op, PositionState(0, V))
    assert out.support == (2, 0)
    assert not to_fp(params, out.coordinate(1))
    assert to_fp(params, out.coordinate(2))


def test_free_propagator_additive(params, V):
    """The group law P(t1) . P(t2) = P(t1 + t2), and = I when t1 + t2 = 0,
    at every entry of the V domain, signed times included."""
    idx = V.index_vector()
    pairs = [(1, 1), (1, 2), (2, 1), (3, 3), (2, 2),
             (1, -1), (2, -2), (3, -3), (-1, 1), (-2, -1), (6, -6), (9, -9)]
    for t1, t2 in pairs:
        prod = compose(params, free_propagator(params, t1), free_propagator(params, t2))
        target = free_propagator(params, t1 + t2) if t1 + t2 else identity_operator(V)
        got = prod.kernel_block(params, idx[:, None], idx[None, :])
        assert np.array_equal(got, target.kernel_block(params, idx[:, None], idx[None, :])), (t1, t2)


def test_free_propagator_unitary(params, V):
    for t in (1, 2):
        report = check_unitary(params, free_propagator(params, t))
        assert report.ok, (t, report)


def test_fourier_unitary_and_squared(params, V):
    F = fourier_operator(params)
    assert check_unitary(params, F).ok
    FF = compose(params, F, F)
    # parity kernel: u[q] -> u[-q]
    dense = apply_dense(params, FF, DenseState.from_state(params, PositionState(9, V)))
    for r in V.index_range():
        assert dense.coords[r] == (1 if r == -9 else 0)


def test_quadratic_phase_diagonal(params, V):
    op = quadratic_phase_operator(params, 3)
    out = apply_operator(params, op, PositionState(5, V))
    assert to_fp(params, out.coordinate(5)) == params.char_e(Fraction(3 * 25, 2 * V.N) % 1)


@pytest.mark.parametrize("tower", [(2, 1), (4, 2), (6, 1), (12, 2)])
def test_quarter_period_oscillator_is_the_fourier_transform(tower):
    """Kick-drift-kick at a quarter period: Q(1) P(1) Q(1) = e8 F^-1 and
    Q(-1) P(-1) Q(-1) = e8^7 F, the discrete Fourier transform as the finite
    harmonic oscillator at a quarter period (Mehta, J. Math. Phys. 28 (1987)
    781); by == and at every entry of the V domain, where Q is diagonal and
    the composition is the literal product of the kernel blocks."""
    P = find_params(ParamSpec(*tower))
    V = domain_v(P)
    idx = V.index_vector()
    inverse_fourier = GaussOperator(unit_normalization(P, V), 0, 1, 0, V, V)
    for t, F, e8 in ((1, inverse_fourier, 1), (-1, fourier_operator(P, V), 7)):
        Q, drift = quadratic_phase_operator(P, t, V), free_propagator(P, t, V)
        got = compose(P, Q, compose(P, drift, Q))
        want = GaussOperator(F.coeff * GaussCoeff.e8_power(e8), F.kA, F.kB, F.kC, V, V)
        assert got == want, (tower, t)
        block = got.kernel_block(P, idx[:, None], idx[None, :])
        assert np.array_equal(block, want.kernel_block(P, idx[:, None], idx[None, :])), (tower, t)
        q = np.diagonal(Q.kernel_block(P, idx[:, None], idx[None, :]))
        literal = q[:, None] * drift.kernel_block(P, idx[:, None], idx[None, :]) % P.p
        assert np.array_equal(block, literal * q[None, :] % P.p), (tower, t)


def test_sm_transfer_symmetric_kernel(params):
    U = domain_u(params)
    T = sm_transfer(params, QuadForm(-1, 1, -1))
    rng = random.Random(11)
    for _ in range(8):
        q, r = rng.randint(-100, 100), rng.randint(-100, 100)
        assert to_fp(params, T.kernel_value(q, r)) == to_fp(params, T.kernel_value(r, q))


def test_sm_transfer_refuses_the_v_domain(params, V):
    with pytest.raises(ArithError, match="the transfer matrix lives on the U domain"):
        sm_transfer(params, QuadForm(-1, 1, -1), V)


def test_sm_transfer_zero_form_uniform(params):
    T = sm_transfer(params, QuadForm(0, 0, 0))
    vals = {to_fp(params, T.kernel_value(q, r)) for q, r in [(0, 0), (3, -7), (100, 2)]}
    assert len(vals) == 1


def test_sm_transfer_compose_vs_brute(params):
    # T . T sampled against the literal intermediate sum on the U domain
    U = domain_u(params)
    T = sm_transfer(params, QuadForm(-1, 1, -1))
    TT = compose(params, T, T)
    p = params.p
    mm = U.index_vector()  # every intermediate index, through the pinned kernel_block
    for q, r in [(0, 0), (1, 2), (-5, 17)]:
        acc = int((T.kernel_block(params, q, mm) * T.kernel_block(params, mm, r) % p).sum()) % p
        assert to_fp(params, TT.kernel_value(q, r)) == acc, (q, r)


def test_sm_transfer_rejects_bad_form(params):
    from gausscalc.hilbert import InadmissibleForm

    with pytest.raises(InadmissibleForm):
        sm_transfer(params, QuadForm(1, 0, 0))
