import json

import pytest

from gausscalc.arith import (
    ArithError,
    ParamSpec,
    Params,
    Phase,
    SearchExhausted,
    default_params,
    find_params,
    is_probable_prime,
    load_params,
    squarefree_split,
)
from fractions import Fraction

# Frozen from the deterministic search; independently verified in
# test_prime_search_matches_independent_oracle below.
DEFAULT_P = 1990657
SMALL_P = 257


@pytest.fixture(scope="module")
def params():
    return default_params()


def test_tower_equations_default():
    ps = default_params()
    assert (ps.m, ps.l, ps.j, ps.i) == (12, 144, 24, 576)
    assert (ps.N_v, ps.N_u) == (144, 82944)
    assert ps.p == DEFAULT_P
    assert (ps.p - 1) % (8 * ps.N_u) == 0


def test_small_tower_matches_p257():
    ps = find_params(ParamSpec(m_base=2, k_mult=1))
    assert (ps.l, ps.j, ps.i, ps.N_u) == (4, 2, 4, 16)
    assert ps.p == SMALL_P


def test_find_params_deterministic():
    a = find_params(ParamSpec(12, 2))
    b = find_params(ParamSpec(12, 2))
    assert a == b and a.to_dict() == b.to_dict()


def test_prime_search_matches_independent_oracle():
    sympy = pytest.importorskip("sympy")
    modulus = 8 * 82944
    c = (DEFAULT_P - 1) // modulus
    assert sympy.isprime(DEFAULT_P)
    for smaller in range(1, c):
        assert not sympy.isprime(modulus * smaller + 1)


def test_epsilon_is_smallest_primitive_root(params):
    sympy = pytest.importorskip("sympy")
    assert sympy.n_order(params.epsilon, params.p) == params.p - 1
    for g in range(2, params.epsilon):
        assert sympy.n_order(g, params.p) != params.p - 1


def test_search_exhausted():
    with pytest.raises(SearchExhausted):
        find_params(ParamSpec(12, 2, prime_search_limit=1))


def test_spec_validation():
    with pytest.raises(ArithError):
        ParamSpec(m_base=3)
    with pytest.raises(ArithError):
        ParamSpec(k_mult=0)


def test_char_e_values(params):
    p = params.p
    assert params.char_e(Fraction(0)) == 1
    assert params.char_e(Fraction(1, 2)) == p - 1
    r = params.char_e(Fraction(1, 8))
    assert pow(r, 4, p) == p - 1 and pow(r, 8, p) == 1


def test_char_e_homomorphism(params):
    p = params.p
    for q1, q2 in [(Fraction(1, 8), Fraction(3, 16)), (Fraction(5, 288), Fraction(7, 144))]:
        assert params.char_e(q1 + q2) == params.char_e(q1) * params.char_e(q2) % p


def test_char_e_incompatible(params):
    from gausscalc.arith import IncompatiblePhase

    with pytest.raises(IncompatiblePhase):
        params.char_e(Fraction(1, 7))  # 7 does not divide p - 1


@pytest.mark.parametrize("M", [4, 8, 16, 48, 144, 576, 82944])
def test_sqrt_canonical_squares(params, M):
    s = params.sqrt_canonical(M)
    assert s * s % params.p == M % params.p


def test_sqrt_canonical_bad_modulus(params):
    with pytest.raises(ArithError):
        params.sqrt_canonical(6)


def test_sqrt_canonical_positive_branch_on_perfect_squares(params):
    # the homomorphism fixes integers, so sqrt(k^2) is k itself
    assert params.sqrt_canonical(4) == 2
    assert params.sqrt_canonical(16) == 4
    assert params.sqrt_canonical(144) == 12
    assert params.sqrt_canonical(82944) == params.m * params.j


def test_sqrt_canonical_oracle_brute_sum(params):
    # direct 4- and 16-term sums, written independently of the implementation
    p = params.p
    for M in (4, 16):
        xi = params.xi(2 * M)
        total = sum(pow(xi, n * n % (2 * M), p) for n in range(1, M + 1)) % p
        expect = total * params.char_e(Fraction(-1, 8)) % p
        assert params.sqrt_canonical(M) == expect


@pytest.mark.parametrize("spec", [ParamSpec(), ParamSpec(2, 1)], ids=["default", "small"])
def test_power_sum_against_one_pow_per_term(spec):
    ps = find_params(spec)
    p = ps.p

    def literal(two_m, a, b, lo, hi):
        xi = ps.xi(two_m)
        return sum(pow(xi, (a * n * n + 2 * b * n) % two_m, p) for n in range(lo + 1, hi + 1)) % p

    M = ps.N_v
    windows = [(-M // 2 - 1, M // 2 - 1), (-7, 3), (-20, -9), (5, 5), (3, M + 3)]  # (5, 5) is empty
    for a, b in [(1, 0), (-3, 2), (0, 5), (2, -7)]:
        for lo, hi in windows:
            assert ps.power_sum(2 * M, a, b, lo, hi) == literal(2 * M, a, b, lo, hi), (a, b, lo, hi)
        # chunks of a window add up to the whole window
        bounds = [-M, -M // 3, -1, 0, 1, M // 2, M]
        chunks = sum(ps.power_sum(2 * M, a, b, l, h) for l, h in zip(bounds, bounds[1:])) % p
        assert chunks == ps.power_sum(2 * M, a, b, -M, M) == literal(2 * M, a, b, -M, M)


def test_sqrt_multiplicative(params):
    p = params.p
    assert params.sqrt_squarefree(2) * params.sqrt_squarefree(3) % p == params.sqrt_squarefree(6)


def test_phase_reduction_and_balanced():
    ph = Phase(Fraction(9, 8), "V")
    assert ph.q == Fraction(1, 8)


def test_phase_domain_mismatch():
    from gausscalc.arith import DomainMismatch

    with pytest.raises(DomainMismatch):
        Phase(Fraction(1, 4), "U") + Phase(Fraction(1, 4), "V")


def test_phase_canonical_tags():
    # zero phases carry no scale; nonzero untagged phases canonicalise to V
    assert Phase(Fraction(0), "V").domain is None
    assert Phase(Fraction(1, 4)).domain == "V"
    assert (Phase(Fraction(1, 4), "U") + Phase(Fraction(-1, 4), "U")).domain is None


def test_params_roundtrip_json_toml(params):
    assert load_params(json.dumps(params.to_dict())) == params
    assert load_params(params.to_toml()) == params
    tampered = params.to_dict()
    tampered["l"] += 1
    with pytest.raises(ArithError):
        Params.from_dict(tampered)


def test_params_reject_composite_p_and_non_primitive_epsilon():
    # 663553 = 11 * 179 * 337 = 8 * 82944 + 1 passes the divisibility test
    with pytest.raises(ArithError, match="not prime"):
        Params(12, 2, 663553, 5)
    # 25 = 5^2 is a square, so its order divides (p - 1)/2
    with pytest.raises(ArithError, match="primitive root"):
        Params(12, 2, DEFAULT_P, 25)
    with pytest.raises(ArithError, match="primitive root"):
        load_params("epsilon = 2\nk_mult = 1\nm = 2\np = 257\n")


def test_squarefree_split():
    assert squarefree_split(1) == (1, 1)
    assert squarefree_split(72) == (6, 2)
    assert squarefree_split(82944) == (288, 1)


def test_miller_rabin_against_small_sieve():
    sieve = [True] * 2000
    sieve[0] = sieve[1] = False
    for n in range(2, 45):
        if sieve[n]:
            for k in range(n * n, 2000, n):
                sieve[k] = False
    for n in range(2000):
        assert is_probable_prime(n) == sieve[n]
