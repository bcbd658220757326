import random
from fractions import Fraction

import pytest

from gausscalc.arith import ParamSpec, find_params
from gausscalc.coeffring import GaussCoeff, to_complex, to_fp
from gausscalc.dynamics import sm_transfer
from gausscalc.hilbert import (
    GaussOperator,
    GaussState,
    QuadForm,
    compose,
    domain_u,
    domain_v,
    gauss_ket,
    unit_normalization,
)
from gausscalc.wick import (
    WrongDomain,
    check_inner_correspondence,
    check_intertwining,
    wick_coeff,
    wick_operator,
    wick_state,
)


@pytest.fixture(scope="module")
def params():
    return find_params(ParamSpec())


@pytest.fixture(scope="module")
def U(params):
    return domain_u(params)


def test_wick_coeff_phase_identity(params):
    # e(i*n/2N_u) = e(n/2N_v) in F_p, exactly
    p = params.p
    for n in (1, 7, 100, -3):
        lhs = params.char_e(Fraction(n * params.i, 2 * params.N_u) % 1)
        rhs = params.char_e(Fraction(n, 2 * params.N_v) % 1)
        assert lhs == rhs


def test_wick_coeff_retags(params):
    x = GaussCoeff.phase_of(Fraction(5, 2 * params.N_u), "U")
    y = wick_coeff(params, x)
    assert y.phase.domain == "V"
    assert y.phase.q == Fraction(5, 2 * params.N_v) % 1
    assert y.a == 1
    with pytest.raises(WrongDomain):
        wick_coeff(params, GaussCoeff.phase_of(Fraction(1, 288), "V"))


def test_wick_coeff_maps_normalisations(params):
    # 1/sqrt(N_u) |-> 1/sqrt(N_v): the scale unit goes to the scale unit
    u_norm = unit_normalization(params, domain_u(params))
    v_norm = unit_normalization(params, domain_v(params))
    assert wick_coeff(params, u_norm) == v_norm


def test_wick_state_uniform(params, U):
    s = gauss_ket(params, U, QuadForm(0, 0, 0))
    w = wick_state(params, s)
    assert w.domain.tag == "V"
    # uniform U-state -> uniform V-state with the V normalisation
    assert w.coeff == unit_normalization(params, domain_v(params))
    with pytest.raises(WrongDomain):
        wick_state(params, w)


def test_wick_refuses_a_modulus_that_does_not_divide_n_v(params, U):
    # 288 divides N_u = 82944, not N_v = 144; as the second guard of the
    # support, after one that fits
    op = GaussOperator(GaussCoeff.one(), 0, 0, 0, U, U, support=((2, (1, -1, 0)), (288, (1, -1, 0))))
    with pytest.raises(WrongDomain):
        wick_operator(params, op)
    s = GaussState(GaussCoeff.one(), -1, 0, 0, U, support=(288, 1))
    with pytest.raises(WrongDomain):
        wick_state(params, s)


def test_wick_refuses_v_operators_and_states(params):
    V = domain_v(params)
    with pytest.raises(WrongDomain, match="wick_operator expects a U-domain operator"):
        wick_operator(params, GaussOperator(GaussCoeff.one(), -1, 1, -1, V, V))
    s = gauss_ket(params, V, QuadForm(-1, 0, 0))
    with pytest.raises(WrongDomain, match="correspondence check expects U-domain states"):
        check_inner_correspondence(params, s, s)


def test_wick_state_coordinates_agree_on_sublattice(params, U):
    # each V-coordinate is the scale image of the U-coordinate at the same
    # shared label: w(r) = {s(r)}^i, exactly in F_p
    s = gauss_ket(params, U, QuadForm(-1, 0, 0))
    w = wick_state(params, s)
    for r in (-7, 0, 3, 50):
        lhs = to_fp(params, w.coordinate(r))
        rhs = to_fp(params, wick_coeff(params, s.coordinate(r)))
        assert lhs == rhs


def rand_admissible_pair(rng, params, U, kind):
    while True:
        A1 = rng.choice([0, -1, -2, -3, -4])
        A2 = rng.choice([0, -1, -2, -3, -4])
        A = A1 + A2 if kind == "Euclidean" else A1 - A2
        # the Wick image lives on N_v, so 4|A| must divide both moduli
        if A == 0 or params.N_v % (4 * abs(A)):
            continue
        B1, B2 = rng.randint(-3, 3), rng.randint(-3, 3)
        p1, p2 = rng.randint(-6, 6), rng.randint(-6, 6)
        s1 = gauss_ket(params, U, QuadForm(A1, B1, rng.choice([0, -1])), p_param=p1)
        s2 = gauss_ket(params, U, QuadForm(A2, B2, rng.choice([0, -1])), p_param=p2)
        return s1, s2


@pytest.mark.parametrize("kind", ["Euclidean", "Hermitian"])
def test_inner_correspondence(params, U, kind):
    rng = random.Random(hash(kind) & 0xFFFF)
    nonzero = 0
    for _ in range(120):
        s1, s2 = rand_admissible_pair(rng, params, U, kind)
        rep = check_inner_correspondence(params, s1, s2, kind)
        assert rep.ok, rep
        if rep.lhs_fp:
            nonzero += 1
    assert nonzero >= 30  # the check must exercise nontrivial values


def test_intertwining_random(params, U):
    rng = random.Random(314159)
    count = 0
    for _ in range(120):
        A1 = rng.choice([0, -1, -2])
        s = gauss_ket(params, U, QuadForm(A1, rng.randint(-2, 2), -1), p_param=rng.randint(-4, 4))
        kA = rng.choice([0, -1, -2])
        kB = rng.choice([-2, -1, 1, 2])
        op = GaussOperator(
            unit_normalization(params, U), kA, kB, rng.choice([0, -1]), U, U,
            kD=rng.randint(-2, 2), kE=rng.randint(-2, 2),
        )
        if (A1 + kA) == 0 and kB == 0:
            continue
        try:
            ok = check_intertwining(params, op, s)
        except Exception:
            continue
        assert ok
        count += 1
    assert count >= 60


def test_functoriality_on_compositions(params, U):
    # wick(compose(A,B)) = compose(wick A, wick B) on sampled kernels
    A = sm_transfer(params, QuadForm(-1, 1, -1))
    B = sm_transfer(params, QuadForm(-1, 1, -2))
    lhs = wick_operator(params, compose(params, A, B))
    rhs = compose(params, wick_operator(params, A), wick_operator(params, B))
    for q, r in [(0, 0), (1, 5), (-3, 2), (17, -8)]:
        assert to_fp(params, lhs.kernel_value(q, r)) == to_fp(params, rhs.kernel_value(q, r))


def test_wick_preserves_unitary_outcome(params, U):
    from gausscalc.hilbert import check_unitary

    schroedinger_like = GaussOperator(unit_normalization(params, U), 0, -1, 0, U, U)
    v_img = wick_operator(params, schroedinger_like)
    assert check_unitary(params, v_img).ok


def test_limit_coherence_modulus(params):
    # U-rule real exponentials are exchanged for unit-modulus phases
    x = GaussCoeff.phase_of(Fraction(7, 2 * params.N_u), "U")
    u_val = to_complex(params, x)
    assert abs(u_val.imag) < 1e-15 and u_val.real > 0
    w_val = to_complex(params, wick_coeff(params, x))
    assert abs(abs(w_val) - 1.0) < 1e-12
