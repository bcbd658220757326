import cmath
import itertools
import math
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from gausscalc.arith import ArithError, ParamSpec, find_params
from gausscalc.coeffring import GaussCoeff, to_complex, to_fp
from gausscalc.frontend import eliminate, parse
from gausscalc.gauss import (
    GaussSumSpec,
    NonGaussianSum,
    PreconditionViolation,
    _guard_coset,
    gauss_brute,
    gauss_closed,
    gauss_sum,
    merge_cosets,
    quadratic_window_sum,
    sqrt_with_scale,
)
from gausscalc.hilbert import PositionState, QuadForm, domain_of, domain_v, gauss_ket, inner


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


@pytest.mark.parametrize("a, b, M, field", [
    (1.0, 0, 16, "a"),  # an integral float
    (1, 0, 16.0, "M"),
    (1, 0.5, 16, "b"),  # not a NonGaussianSum "odd linear coefficient"
    (True, 0, 16, "a"),  # not a = 1
])
def test_spec_takes_integers_only(a, b, M, field):
    with pytest.raises(PreconditionViolation, match=f"GaussSumSpec field '{field}' must be an integer"):
        GaussSumSpec(a, b, M)


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
    assert gauss_closed(GaussSumSpec(2, 1, 16), params=params).is_zero()
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


def test_strict_vs_extended_a0(params):
    spec = GaussSumSpec(0, 16, 16)
    assert gauss_closed(spec, mode="extended", params=params) == GaussCoeff.rational(16)
    assert gauss_closed(spec, mode="strict", params=params).is_zero()
    assert gauss_closed(GaussSumSpec(0, 3, 16), params=params).is_zero()


def sm_one_period(P, a):
    """(1/m) * sum of e(a n^2 / 2 N_u) over one period, the a-sublattice
    of V_u (N_u/a terms), in closed form."""
    one_period = quadratic_window_sum(a, 0, 0, P.N_u, P.N_u // a, "U", params=P)
    return one_period * GaussCoeff.rational(Fraction(1, P.m))


def test_sm_closed_form(params):
    # (1/m) e(1/8) sqrt(N_u/a) = e(1/8) j / sqrt(a) exactly, and the literal
    # one-period sum agrees in F_p
    p = params.p
    for a in (1, 2, 4, 6, 12):
        brute = params.power_sum(2 * params.N_u, a, 0, 0, params.N_u // a) * pow(params.m, -1, p) % p
        assert to_fp(params, sm_one_period(params, a)) == brute, a
    assert sm_one_period(params, 1) == GaussCoeff.e8_power(1) * GaussCoeff.j_power(1)
    assert sm_one_period(params, 4) == (
        GaussCoeff.e8_power(1) * GaussCoeff.j_power(1) * GaussCoeff.rational(Fraction(1, 2))
    )


def test_sm_limit_is_real(params):
    # e(1/8) j specialises to the real 1/sqrt(a): j -> e^{i pi/4} pairs
    # with e8 -> e^{-i pi/4}; on the default, small and mid towers
    for P in (params, find_params(ParamSpec(2, 1)), find_params(ParamSpec(4, 2))):
        for a in range(1, P.N_u // 4 + 1):
            if P.N_u % (4 * a) == 0:
                val = to_complex(P, sm_one_period(P, a))
                assert abs(val - 1 / math.sqrt(a)) < 1e-12, (P, a)


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


def test_j_comes_from_the_u_domain_size_only(params):
    # M = 2304 = 4i is a multiple of i by coincidence: sqrt(2304) stays numeric
    assert str(quadratic_window_sum(1, 0, 0, 2304, 2304, "U", params=params)) == "48 * e8"
    # N_u | M: 256 sqrt(N_u/256) = 256 sqrt(324/i) j = 192 j, with i = 24^2
    assert str(quadratic_window_sum(256, 0, 0, params.N_u, params.N_u, "U", params=params)) == "192 * j * e8"


def test_the_kernel_always_takes_the_tower(params):
    # N_u | M can only be seen on the tower: without it the same sum would
    # render as a numeric square root that the limit map sends elsewhere
    N = params.N_u
    for call in (
        lambda: quadratic_window_sum(256, 0, 0, N, N, "U"),
        lambda: gauss_closed(GaussSumSpec(1, 0, N, "U")),
        lambda: gauss_closed(GaussSumSpec(1, 0, N, "U"), "extended", params),
        lambda: gauss_sum([[1, 0], [0, 0]], 0, (), N, N, "U", "extended"),
        lambda: sqrt_with_scale(N, N, "U", params),
    ):
        with pytest.raises(TypeError):
            call()
    assert str(quadratic_window_sum(256, 0, 0, N, N, "U", params=params)) == "192 * j * e8"
    assert str(gauss_closed(GaussSumSpec(1, 0, N, "U"), params=params)) == "12 * j * e8"


def test_a_misspelt_mode_is_refused():
    # read as 'extended', 'Strict' would make the first three 8, 16 and 1
    # where 'strict' makes them 0; a pairing of position states never
    # reaches the kernel, so inner checks the mode itself
    small = find_params(ParamSpec(2, 1))
    V = domain_v(small)
    ket = gauss_ket(small, V, QuadForm(0, 0, 0))
    for call in (
        lambda: eliminate(parse("sum r . 2"), small, mode="Strict"),
        lambda: gauss_closed(GaussSumSpec(0, 16, 16), "Strict", params=small),
        lambda: inner(small, ket, ket, "Hermitian", "Strict"),
        lambda: inner(small, PositionState(0, V), PositionState(0, V), "Hermitian", "Strict"),
    ):
        with pytest.raises(ArithError, match="mode must be 'extended' or 'strict', got 'Strict'"):
            call()


# -- the summation kernel, branch by branch, against literal summation ----------
#
# Variables (y, x) and the constant: x^T Q x = Q00 y^2 + Q01 y x + Q02 y + Q11 x^2
# + Q12 x + Q22.  Sums run over N consecutive y, on the small tower (N_u = 16)
# unless KERNEL_TOWERS names another.

KERNEL_CASES = {
    "quadratic": ([[-1, 2, 2], [0, 1, 0], [0, 0, 3]], [], 16, 16, "extended"),
    "quadratic-guarded": ([[-2, 2, 2], [0, 0, 1], [0, 0, 0]], [], 16, 16, "extended"),
    "quadratic-scaled": ([[-2, 4, 4], [0, 1, 0], [0, 0, 0]], [], 16, 32, "extended"),
    # 2 | 2x for every x: no guard
    "quadratic-guard-always-holds": ([[-2, 4, 0], [0, 1, 0], [0, 0, 0]], [], 16, 32, "extended"),
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
    # 4 | y and 6 | y + 1 never both hold: the residual guard reads 2 | 1
    "coset-incomparable-zero": ([[-1, 0, 0], [0, 0, 0], [0, 0, 0]], [(4, [1, 0, 0]), (6, [1, 0, 1])], 16, 16,
                                "extended"),
    # 4 | y and 6 | y - x: y = 4x (mod 12) where 2 | x, summed over 144 = 12 * 12 values
    "coset-incomparable": ([[-1, 4, 0], [0, 1, 0], [0, 0, 0]], [(4, [1, 0, 0]), (6, [1, -1, 0])], 144, 576,
                           "extended"),
}

# (m, k) of the tower a case runs on when it is not the small one: a coset
# step of 12 needs 12 | N and a 2M-th root of unity, 2M = 1152 | p - 1
KERNEL_TOWERS = {"coset-incomparable": (6, 1)}

KERNEL_REFUSALS = {
    "empty summation window": ([[-1, 0, 0], [0, 0, 0], [0, 0, 0]], [], 0, 16),
    "guard gcd does not divide": ([[-1, 0, 0], [0, 0, 0], [0, 0, 0]], [(4, [2, 1, 0])], 16, 16),
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


def _literal_vs_closed(P, Q, y, guards, N, M, res):
    """The literal sum of e(x^T Q x / 2M) over y in the window -N/2 <= y <
    N/2 where the guards hold, and the kernel's result `res` read back
    (coeff * e(x^T res.Q x / 2 res.M) where res.guards hold, else 0; 0
    everywhere for a zero coeff), as two arrays over every assignment of
    the other variables, each over the same window: one axis per
    variable, y's of length 1."""
    n = len(Q) - 1
    x = [*np.ix_(*[np.arange(-N // 2, N // 2)] * n), 1]
    shape = (N,) * n

    def form(Q):
        return np.broadcast_to(sum((Q[i][j] * x[i] * x[j] for i in range(n + 1) for j in range(i, n + 1)),
                                   np.zeros(shape, dtype=np.int64)), shape)

    def holds(gs):
        ok = np.ones(shape, dtype=bool)
        for k, v in gs:
            ok = ok & (sum(c * t for c, t in zip(v, x)) % k == 0)
        return ok

    p = P.p
    table = P.power_table(2 * M)
    literal = np.where(holds(guards), table[form(Q) % (2 * M)], 0).sum(axis=y, keepdims=True) % p
    if res.coeff.is_zero():
        return literal, np.zeros_like(literal)
    # x_y is eliminated: its row and column of res.Q and its guard entries are zero
    assert not any(res.Q[y]) and not any(row[y] for row in res.Q) and not any(v[y] for _, v in res.guards)
    first = tuple(slice(0, 1) if i == y else slice(None) for i in range(n))
    num, mask = form(res.Q)[first] % (2 * res.M), holds(res.guards)[first]
    # e(n / 2 res.M) need only be an F_p value where the guards hold
    values, index = np.unique(num[mask], return_inverse=True)
    phase = [P.char_e(Fraction(int(v), 2 * res.M)) for v in values]
    closed = np.zeros_like(literal)
    closed[mask] = np.array(phase, dtype=np.int64)[index] * to_fp(P, res.coeff) % p
    return literal, closed


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_kernel_branch_vs_literal(case):
    P = find_params(ParamSpec(*KERNEL_TOWERS.get(case, (2, 1))))
    Q, guards, N, M, mode = KERNEL_CASES[case]
    res = gauss_sum([row[:] for row in Q], 0, guards, N, M, "U", mode, P)
    if mode == "strict":  # the declared zero: a convention, not the literal sum
        assert res.coeff.is_zero()
        return
    for k, v in res.guards:  # none that always holds
        assert any(c % k for c in v), (case, k, v)
    literal, closed = _literal_vs_closed(P, Q, 0, guards, N, M, res)
    assert (closed == literal).all(), case
    assert bool(literal.any()) != case.endswith("zero"), case


@pytest.mark.parametrize("reason", sorted(KERNEL_REFUSALS))
def test_kernel_refusals(reason):
    small = find_params(ParamSpec(2, 1))
    Q, guards, N, M = KERNEL_REFUSALS[reason]
    with pytest.raises(NonGaussianSum, match=reason):
        gauss_sum(Q, 0, guards, N, M, "U", "extended", small)


# -- the summation kernel, fuzzed against literal summation over whole domains --

# (tower, domain) pairs whose whole index range the fuzzer covers; a U domain
# of N_u >= 1,024 makes each literal grid too large
FUZZ_DOMAINS = [((2, 1), "V"), ((4, 2), "V"), ((6, 1), "V"), ((2, 1), "U")]
FUZZ_EXAMPLES = 600
# 4 and 6, 6 and 9: moduli neither coprime nor nested
FUZZ_MODULI = (2, 3, 4, 6, 8, 9, 12)


@st.composite
def kernel_inputs(draw, N, dens):
    """gauss_sum's own input over a window of N: an upper-triangular Q over
    1-3 variables and the constant, the summed position y, 0-2 guards
    (moduli FUZZ_MODULI or N, which can pin y), M = N * den and the mode.
    A diagonal entry is 0, a divisor of M up to sign, M/T up to sign for a
    period T with 4 | T | N, or any integer in [-4M, 4M]; y's linear
    coefficients are mostly even (an odd one is refused unless a guard
    pins y)."""
    n = draw(st.integers(1, 3))
    y = draw(st.integers(0, n - 1))
    M = N * draw(st.sampled_from(dens))
    divisors = [d for d in range(1, M + 1) if M % d == 0]
    # M/T for each period T with 4 | T | N: the quadratic branch's own A
    periodic = [M // T for T in range(4, N + 1, 4) if N % T == 0]
    diagonal = st.one_of(st.just(0), st.sampled_from(divisors + [-d for d in divisors]),
                         st.sampled_from(periodic + [-a for a in periodic]), st.integers(-4 * M, 4 * M))
    linear = st.one_of(st.integers(-3, 3).map(lambda c: 2 * c), st.integers(-M, M).map(lambda c: 2 * c),
                       st.integers(-3, 3))
    Q = [[0] * (n + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        for j in range(i, n + 1):
            if i == j < n:
                Q[i][j] = draw(diagonal)
            elif y in (i, j):
                Q[i][j] = draw(linear)
            else:
                Q[i][j] = draw(st.integers(-2 * M, 2 * M))
    vector = st.lists(st.integers(-9, 9), min_size=n + 1, max_size=n + 1)
    guards = draw(st.lists(st.tuples(st.sampled_from(FUZZ_MODULI + (N,)), vector), max_size=2))
    return Q, y, guards, M, draw(st.sampled_from(["extended", "strict"]))


def kernel_fuzz(tower, tag, examples):
    """Fuzz gauss_sum over the whole index range of one domain: every
    accepted result must equal the literal sum at every assignment of the
    free variables.  Returns the count of each outcome: 'checked' (and
    'checked zero' where the literal sum is zero everywhere), 'declared
    zero' (strict mode's convention, not compared) and each refusal, by
    its message with the numbers written #."""
    P = find_params(ParamSpec(*tower))
    N = domain_of(P, tag).N
    dens = [d for d in range(1, 65) if (P.p - 1) % (2 * N * d) == 0]
    tally = Counter()

    @settings(max_examples=examples, deadline=None)
    @given(kernel_inputs(N, dens))
    def check(case):
        Q, y, guards, M, mode = case
        try:
            res = gauss_sum([row[:] for row in Q], y, guards, N, M, tag, mode, P)
        except NonGaussianSum as exc:
            tally["refused: " + re.sub(r"\d+", "#", str(exc).split(" (")[0])] += 1
            return
        if mode == "strict" and res.coeff.is_zero():
            tally["declared zero"] += 1
            return
        literal, closed = _literal_vs_closed(P, Q, y, guards, N, M, res)
        assert (closed == literal).all(), case
        assert not repeats_a_congruence(res.guards), (case, res.guards)
        tally["checked" if literal.any() else "checked zero"] += 1

    check()
    return tally


def repeats_a_congruence(guards) -> bool:
    """Whether two guards (k, v) are one congruence: one modulus k and
    vectors equal mod k."""
    return any(k1 == k2 and all((a - b) % k1 == 0 for a, b in zip(v1, v2))
               for (k1, v1), (k2, v2) in itertools.combinations(guards, 2))


def test_the_new_guard_is_not_a_kept_one():
    # |A| = 4 | L . x with L = (1, 1, 0, 1), which the input guard already says
    small = find_params(ParamSpec(2, 1))
    Q = [[0, 0, 2, 0], [0, 0, 2, 0], [0, 0, 4, 2], [0, 0, 0, 0]]
    res = gauss_sum(Q, 2, [(4, [1, 1, 0, 1])], 16, 64, "U", "extended", small)
    assert res.guards == ((4, [1, 1, 0, 1]),)
    literal, closed = _literal_vs_closed(small, Q, 2, [(4, [1, 1, 0, 1])], 16, 64, res)
    assert (closed == literal).all() and literal.any()
    # equal mod k is the same congruence too
    res = gauss_sum(Q, 2, [(4, [5, -3, 0, 1])], 16, 64, "U", "extended", small)
    assert res.guards == ((4, [5, -3, 0, 1]),)


@pytest.mark.parametrize("tower, tag", FUZZ_DOMAINS, ids=[f"m{m}k{k}-{tag}" for (m, k), tag in FUZZ_DOMAINS])
def test_kernel_fuzz_vs_literal(tower, tag):
    tally = kernel_fuzz(tower, tag, FUZZ_EXAMPLES)
    assert tally["checked"] >= FUZZ_EXAMPLES // 20, tally


# -- the coset merge, against the guards it consumes ------------------------------


def test_merge_cosets_keeps_the_nested_and_coprime_bases():
    b1, b2 = [3, -5, 7], [-2, 4, 1]
    diff = [5, -9, 6]
    # nested: the finer modulus's base as it is, the coarser as a residual guard
    assert merge_cosets(12, b1, 4, b2) == (12, b1, (4, diff))
    assert merge_cosets(4, b1, 12, b2) == (12, b2, (4, diff))
    assert merge_cosets(6, b1, 6, b2) == (6, b1, (6, diff))
    assert merge_cosets(1, b1, 9, b2) == (9, b2, None)
    # coprime: the CRT base with u1 = 9 * (9^-1 mod 4), u2 = 4 * (4^-1 mod 9)
    assert merge_cosets(4, b1, 9, b2) == (36, [9 * c1 + 28 * c2 for c1, c2 in zip(b1, b2)], None)
    # incomparable: 2^2 from 4, 3 from 6
    assert merge_cosets(4, b1, 6, b2) == (12, [9 * c1 + 4 * c2 for c1, c2 in zip(b1, b2)], (2, diff))
    # a tie on 2^2 goes to the larger modulus 20: 20 from the first, 3 from the second
    assert merge_cosets(20, b1, 12, b2) == (60, [21 * c1 + 40 * c2 for c1, c2 in zip(b1, b2)], (4, diff))


GUARD_MODULI = (2, 3, 4, 6, 8, 9, 12, 16, 18)


@settings(max_examples=600, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(GUARD_MODULI), st.lists(st.integers(-9, 9), min_size=4, max_size=4)),
                min_size=1, max_size=3))
def test_guard_coset_is_the_solution_set(guards):
    # guards k | v . (y, x1, x2, 1); every solution y mod L, L the lcm of the
    # moduli, lies on the returned coset y = base . x + step Z exactly where
    # the kept guards hold
    try:
        step, base, kept = _guard_coset(guards, 0, 4)
    except NonGaussianSum:
        event("refused")
        return
    L = math.lcm(*(k for k, _ in guards))
    assert L % step == 0
    for x in itertools.product(range(-4, 4), repeat=2):
        z = (0, *x, 1)
        want = {y for y in range(L)
                if all((v[0] * y + v[1] * x[0] + v[2] * x[1] + v[3]) % k == 0 for k, v in guards)}
        got = set()
        if all(sum(c * t for c, t in zip(v, z)) % k == 0 for k, v in kept):
            b = sum(c * t for c, t in zip(base, z))
            got = {y for y in range(L) if (y - b) % step == 0}
        assert got == want, (x, step, base, kept)
