import cmath
import math
from fractions import Fraction

import pytest

from gausscalc.arith import ParamSpec, find_params
from gausscalc.coeffring import GaussCoeff, to_complex, to_fp
from gausscalc.gauss import (
    GaussSumSpec,
    NonGaussianSum,
    PreconditionViolation,
    gauss_brute,
    gauss_closed,
    gauss_closed_sm,
    gauss_sum,
    quadratic_window_sum,
    sm_brute,
)


@pytest.fixture(scope="module")
def params():
    return find_params(ParamSpec())


def admissible_moduli(params, a, cap=4096):
    out = []
    for M in (16, 32, 48, 96, 144, 256, 1024, 2304, 82944):
        if M <= cap * 32 and M % (4 * abs(a)) == 0 and (params.p - 1) % (2 * M) == 0:
            out.append(M)
    return out


def test_spec_validation():
    with pytest.raises(PreconditionViolation):
        GaussSumSpec(a=2, b=0, M=12)  # 4|a| does not divide M
    with pytest.raises(PreconditionViolation):
        GaussSumSpec(a=1, b=0, M=16, domain="W")


def test_basic_form_complex(params):
    # sum_{0<n<=M} zeta^{n^2} = sqrt(M) e^{i pi/4}
    for M in (16, 64, 144):
        val = gauss_brute(params, GaussSumSpec(1, 0, M, backend="Complex"))
        assert abs(val - math.sqrt(M) * cmath.exp(1j * math.pi / 4)) < 1e-10


def test_full_character_sum_zero(params):
    assert gauss_brute(params, GaussSumSpec(0, 1, 16)) == 0
    assert gauss_brute(params, GaussSumSpec(0, 16, 16)) == 16 % params.p


def test_closed_matches_brute_sample(params):
    for a, b, M in [(1, 0, 16), (1, 3, 16), (2, 2, 32), (-2, 4, 48), (3, -3, 96), (2, 1, 16), (4, 2, 32)]:
        closed = gauss_closed(GaussSumSpec(a, b, M), params=params)
        assert to_fp(params, closed) == gauss_brute(params, GaussSumSpec(a, b, M))


def test_closed_zero_when_a_does_not_divide_b(params):
    assert gauss_closed(GaussSumSpec(2, 1, 16)).is_zero()
    assert gauss_brute(params, GaussSumSpec(2, 1, 16)) == 0


def test_one_period_block_is_generally_nonzero_when_indivisible(params):
    # the quasi-period blocks only cancel over |a| of them; a single
    # period does not vanish for a=2, b=1 (its complex value is -2)
    M, a, b = 16, 2, 1
    one_period = sum(
        cmath.exp(1j * math.pi * (a * n * n + 2 * b * n) / M) for n in range(1, M // a + 1)
    )
    assert abs(one_period + 2) < 1e-12


def test_quasi_period_block_factor(params):
    # consecutive period blocks differ by exactly e(b/|a|)
    p = params.p
    for a, b, M in [(2, 1, 32), (2, 2, 32), (3, 2, 96), (4, 6, 96)]:
        T = M // abs(a)
        xi = params.xi(2 * M)

        def block(k0):
            return sum(
                pow(xi, (a * n * n + 2 * b * n) % (2 * M), p)
                for n in range(k0 + 1, k0 + T + 1)
            ) % p

        factor = params.char_e(Fraction(b, abs(a)) % 1)
        assert block(T) == block(0) * factor % p
        if b % a == 0:
            assert factor == 1  # exact period when a | b


def test_fp_exactness_small_grid(params):
    fails = 0
    for a in [x for x in range(-4, 5) if x]:
        for b in range(-4, 5):
            for M in admissible_moduli(params, a, cap=10):
                spec = GaussSumSpec(a, b, M)
                if to_fp(params, gauss_closed(spec, params=params)) != gauss_brute(params, spec):
                    fails += 1
    assert fails == 0


def test_char0_charp_consistency(params):
    # The complex backend realises e(q) classically as e^{+2 pi i q}
    # (zeta = e^{i pi/M}), while the limit map sends e(q) to e^{-2 pi i q};
    # the two char-0 shadows of the same F_p identity are conjugate.
    for a, b, M in [(1, 0, 16), (1, 2, 144), (-1, 1, 48), (2, 2, 96), (-3, 3, 144), (2, 1, 32)]:
        spec = GaussSumSpec(a, b, M, backend="Complex")
        closed = gauss_closed(GaussSumSpec(a, b, M), params=params)
        brute = gauss_brute(params, spec)
        assert abs(to_complex(params, closed) - brute.conjugate()) < 1e-8


def test_brute_partitioning_invariance(params):
    spec = GaussSumSpec(2, 2, 2304)
    base = gauss_brute(params, spec)
    for chunks in (2, 3, 7, 16):
        assert gauss_brute(params, spec, chunks=chunks) == base
    cspec = GaussSumSpec(2, 2, 2304, backend="Complex")
    cbase = gauss_brute(params, cspec)
    for chunks in (2, 3, 7, 16):
        assert abs(gauss_brute(params, cspec, chunks=chunks) - cbase) < 1e-12 * abs(cbase)


def test_strict_vs_extended_a0():
    spec = GaussSumSpec(0, 16, 16)
    assert gauss_closed(spec, mode="extended") == GaussCoeff.rational(16)
    assert gauss_closed(spec, mode="strict").is_zero()
    assert gauss_closed(GaussSumSpec(0, 3, 16)).is_zero()


def test_sm_closed_form(params):
    p = params.p
    for a in (1, 2, 4, 6, 12):
        assert to_fp(params, gauss_closed_sm(params, a)) == sm_brute(params, a)
    assert gauss_closed_sm(params, 1) == GaussCoeff.e8_power(1) * GaussCoeff.j_power(1)
    assert gauss_closed_sm(params, 4) == (
        GaussCoeff.e8_power(1) * GaussCoeff.j_power(1) * GaussCoeff.rational(Fraction(1, 2))
    )


def test_sm_limit_is_real(params):
    # e(1/8) j specialises to the real 1/sqrt(a): j -> e^{i pi/4} pairs
    # with e8 -> e^{-i pi/4}
    for a in (1, 2, 4):
        val = to_complex(params, gauss_closed_sm(params, a))
        assert abs(val - 1 / math.sqrt(a)) < 1e-12


def test_sm_preconditions(params):
    with pytest.raises(PreconditionViolation):
        sm_brute(params, 5)
    with pytest.raises(PreconditionViolation):
        gauss_closed_sm(params, params.N_u)


def test_window_sum_matches_literal(params):
    p = params.p
    N = params.N_v

    def literal(A, B, C, window):
        xi = params.xi(2 * N)
        return sum(
            pow(xi, (A * x * x + 2 * B * x + C) % (2 * N), p)
            for x in range(-(window // 2), window - window // 2)
        ) % p

    for A, B, C in [(-1, 0, 0), (-2, 2, 5), (2, 4, -3), (-1, 3, 1), (0, 0, 7), (0, 144, 2)]:
        closed = quadratic_window_sum(A, B, C, N, N, "V", params=params)
        assert to_fp(params, closed) == literal(A, B, C, N)


def test_window_sum_window_start_invariance(params):
    # any window of the right length gives the same value
    p = params.p
    N = params.N_v
    xi = params.xi(2 * N)

    def literal(A, B, C, lo, window):
        return sum(
            pow(xi, (A * x * x + 2 * B * x + C) % (2 * N), p)
            for x in range(lo, lo + window)
        ) % p

    for A, B, C in [(-2, 2, 1), (1, 1, 0)]:
        vals = {literal(A, B, C, lo, N) for lo in (-72, 0, 13, 100)}
        assert len(vals) == 1
        assert to_fp(params, quadratic_window_sum(A, B, C, N, N, "V", params=params)) in vals


def test_window_sum_rejects_partial_period(params):
    with pytest.raises(NonGaussianSum):
        quadratic_window_sum(5, 0, 0, params.N_v, params.N_v, "V", params=params)
    with pytest.raises(NonGaussianSum):
        quadratic_window_sum(-1, 0, 0, params.N_v, params.N_v // 3, "V", params=params)


def test_window_sum_u_domain_extracts_j(params):
    # sum over the full U domain of e(-r^2/2N_u): sqrt(N_u) appears as m*j
    out = quadratic_window_sum(-1, 0, 0, params.N_u, params.N_u, "U", params=params)
    assert out.a == 1 and out.rho == 1
    assert out.c == params.m
    assert to_fp(params, out) == gauss_brute(params, GaussSumSpec(-1, 0, params.N_u, domain="U"))


# -- the summation kernel, branch by branch, against literal summation ----------
#
# Variables (y, x) and the constant: x^T Q x = Q00 y^2 + Q01 y x + Q02 y + Q11 x^2
# + Q12 x + Q22.  Sums run over N = N_u = 16 consecutive y on the small tower.

KERNEL_CASES = {
    "quadratic": ([[-1, 2, 2], [0, 1, 0], [0, 0, 3]], [], 16, 16, "extended"),
    "quadratic-guarded": ([[-2, 2, 2], [0, 0, 1], [0, 0, 0]], [], 16, 16, "extended"),
    "quadratic-scaled": ([[-2, 4, 4], [0, 1, 0], [0, 0, 0]], [], 16, 32, "extended"),
    "quadratic-on-coset": ([[-2, 2, 2], [0, 0, 0], [0, 0, 0]], [(2, [0, 1, 1])], 16, 32, "extended"),
    "geometric": ([[0, 2, 0], [0, 1, 0], [0, 0, 1]], [], 16, 16, "extended"),
    "geometric-telescoped-zero": ([[0, 0, 2], [0, 1, 0], [0, 0, 0]], [], 16, 16, "extended"),
    "quadratic-telescoped-zero": ([[-2, 0, 2], [0, 0, 0], [0, 0, 0]], [], 16, 16, "extended"),
    "unsatisfiable-guard-telescoped-zero": ([[-2, 4, 2], [0, 0, 0], [0, 0, 0]], [], 16, 16, "extended"),
    "declared-zero": ([[0, 2, 0], [0, 1, 0], [0, 0, 0]], [], 16, 16, "strict"),
    "pinned": ([[-1, 2, 0], [0, 0, 0], [0, 0, 0]], [(16, [1, -1, 0])], 16, 16, "extended"),
    "coset-nested": ([[-1, 0, 2], [0, -1, 0], [0, 0, 0]], [(2, [1, -1, 0]), (2, [1, 0, -1])], 16, 16,
                     "extended"),
    "unsatisfiable-guard-zero": ([[-3, 0, 0], [0, 0, 0], [0, 0, 0]], [(2, [0, 2, 1])], 16, 16, "extended"),
    "on-coset-divisibility": ([[0, 2, 2], [0, 0, 0], [0, 0, 0]], [(2, [0, 1, 1])], 16, 32, "extended"),
    # 2y + x = 0 (mod 8) does not pin y; on the coset y = 0 (mod 4) it reads 8 | x
    "deferred-guard": ([[-1, 0, 0], [0, 1, 0], [0, 0, 0]], [(8, [2, 1, 0]), (4, [1, 0, 0])], 16, 64,
                       "extended"),
}

KERNEL_REFUSALS = {
    "empty summation window": ([[-1, 0, 0], [0, 0, 0], [0, 0, 0]], [], 0, 16),
    "guard gcd does not divide": ([[-1, 0, 0], [0, 0, 0], [0, 0, 0]], [(4, [2, 1, 0])], 16, 16),
    "incomparable guard cosets": ([[-1, 0, 0], [0, 0, 0], [0, 0, 0]], [(4, [1, 0, 0]), (6, [1, 0, 1])], 16, 16),
    "does not divide the window": ([[-1, 0, 0], [0, 0, 0], [0, 0, 0]], [(3, [1, 0, 0])], 16, 16),
    "odd linear coefficient": ([[-1, 1, 0], [0, 0, 0], [0, 0, 0]], [], 16, 16),
    "geometric sum does not telescope": ([[0, 2, 2], [0, 0, 0], [0, 0, 0]], [], 16, 32),
    "pinned phase not N-periodic": ([[-1, 2, 0], [0, 0, 0], [0, 0, 0]], [(16, [1, -1, 0])], 16, 32),
    # an odd cross coefficient: y -> y + N changes the phase by e(x/2)
    "N-periodic in the summed variable .M=16": ([[-1, 1, 0], [0, 0, 0], [0, 0, 0]], [(16, [1, -1, 0])], 16, 16),
    "not integral": ([[-3, 0, 0], [0, 0, 0], [0, 0, 0]], [], 16, 16),
    "not divisible by 4": ([[-8, 0, 0], [0, 0, 0], [0, 0, 0]], [], 16, 16),
    "not a multiple of the period": ([[-1, 0, 0], [0, 0, 0], [0, 0, 0]], [], 16, 32),
    "quadratic sum does not telescope": ([[-2, 0, 2], [0, 0, 0], [0, 0, 0]], [], 16, 32),
}


def _phase(small, Q, x, M):
    n = Q[1][1] * x * x + Q[1][2] * x + Q[2][2]
    return pow(small.xi(2 * M), n % (2 * M), small.p)


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_kernel_branch_vs_literal(case):
    small = find_params(ParamSpec(2, 1))
    Q, guards, N, M, mode = KERNEL_CASES[case]
    res = gauss_sum([row[:] for row in Q], 0, guards, N, M, "U", mode, small)
    if mode == "strict":  # the declared zero: a convention, not the literal sum
        assert res.coeff.is_zero()
        return
    p = small.p

    def holds(gs, y, x):
        return all((v[0] * y + v[1] * x + v[2]) % k == 0 for k, v in gs)

    checked = 0
    for x in range(-8, 8):
        xi = small.xi(2 * M)
        literal = sum(
            pow(xi, (Q[0][0] * y * y + Q[0][1] * y * x + Q[0][2] * y + Q[1][1] * x * x
                     + Q[1][2] * x + Q[2][2]) % (2 * M), p)
            for y in range(-N // 2, N // 2) if holds(guards, y, x)
        ) % p
        closed = 0
        if holds(res.guards + ((res.guard,) if res.guard else ()), 0, x):
            closed = to_fp(small, res.coeff) * _phase(small, res.Q, x, res.M) % p
        assert closed == literal, (case, x)
        checked += literal != 0
    assert bool(checked) != case.endswith("zero"), case


@pytest.mark.parametrize("reason", sorted(KERNEL_REFUSALS))
def test_kernel_refusals(reason):
    small = find_params(ParamSpec(2, 1))
    Q, guards, N, M = KERNEL_REFUSALS[reason]
    with pytest.raises(NonGaussianSum, match=reason):
        gauss_sum(Q, 0, guards, N, M, "U", "extended", small)
