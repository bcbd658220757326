import hashlib
import json
import random
import re
from fractions import Fraction

import pytest

from gausscalc import cli
from gausscalc.arith import ArithError, DomainMismatch, ParamSpec, find_params
from gausscalc.coeffring import GaussCoeff, to_fp
from gausscalc.frontend import (
    MAX_EVAL_POINTS,
    Const,
    DegreeError,
    ParseError,
    PhaseAtom,
    PointBudgetExceeded,
    Plus,
    Poly,
    Prod,
    Quant,
    UnboundVariable,
    eliminate,
    eval_expr,
    eval_normal_form,
    format_expr,
    parse,
)
from gausscalc.gauss import Term, gauss_sum
from gausscalc.hilbert import domain_of


@pytest.fixture(scope="module")
def small():
    # tiny tower: N_v = 4, N_u = 16, p = 257
    return find_params(ParamSpec(2, 1))


def test_parse_phase_atom():
    e = parse("e((-r^2 + 2*r*p)/2N @V)")
    assert isinstance(e, PhaseAtom)
    assert e.domain == "V"
    assert e.poly.variables() == {"r", "p"}
    d = dict(e.poly.coeffs)
    assert d[("r", "r")] == -1 and d[("p", "r")] == 2


def test_parse_sum_product():
    e = parse("sum r . e((-r^2)/2N @V) * e((2*r*p)/2N @V)")
    assert isinstance(e, Quant) and e.kind == "sum" and e.var == "r"
    assert isinstance(e.body, Prod)


def test_parse_degree_error():
    with pytest.raises(DegreeError):
        parse("e((r^3)/2N @V)")
    with pytest.raises((DegreeError, ParseError)):
        parse("e((r*s*t)/2N @V)")


@pytest.mark.parametrize("text", ["e((r*r*r)/2N @V)", "e((r^2*x)/2N @V)"])
def test_degree_error_at_the_exceeding_factor(text):
    # both third factors sit at column 8
    with pytest.raises(DegreeError) as exc:
        parse(text)
    assert str(exc.value) == "1:8: phase polynomial exceeds degree 2"
    assert (exc.value.line, exc.value.col) == (1, 8)


def test_parse_poly_accumulates_terms():
    assert parse("e((r*x + x*r - 2*x*r)/2N @V)").poly == Poly(())
    # a leading '-' is the sign of the first term only
    e = parse("e((-r^2 + 2*r*x - 3 + x)/2N @V)")
    assert dict(e.poly.coeffs) == {("r", "r"): -1, ("r", "x"): 2, (): -3, ("x",): 1}
    # repeated monomials merge, and cancelled ones leave no entry
    e = parse("e((x + 2*x - r^2 + 3 + r*r + 4 - y*x + 2*x*y)/2N @V)")
    assert dict(e.poly.coeffs) == {("x",): 3, (): 7, ("x", "y"): 1}


@pytest.mark.parametrize("text, ch, col", [
    ("sum r . e((r^\u00b2)/2N @V)", "\u00b2", 14),  # superscript two
    ("e((\u0663*r)/2N @V)", "\u0663", 4),  # Arabic-Indic digit three
])
def test_non_ascii_digits_are_rejected(small, tmp_path, capsys, text, ch, col):
    assert_rejected_at(small, tmp_path, capsys, text, ch, col)


@pytest.mark.parametrize("text, ch, col", [
    ("sum r . e((r\u00b2)/2N @V)", "\u00b2", 13),  # superscript two inside a name
    ("sum r\u0663 . e((r^2)/2N @V)", "\u0663", 6),  # Arabic-Indic digit inside a name
    ("sum \u00e9 . e((\u00e9^2)/2N @V)", "\u00e9", 5),  # a non-ASCII letter
])
def test_identifiers_are_ascii(small, tmp_path, capsys, text, ch, col):
    assert_rejected_at(small, tmp_path, capsys, text, ch, col)


def assert_rejected_at(small, tmp_path, capsys, text, ch, col):
    """`text` is a ParseError at 1:col naming `ch`, through parse and
    through the CLI (one JSON error document, exit status 1)."""
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value) == f"1:{col}: unexpected character {ch!r}"
    assert (exc.value.line, exc.value.col) == (1, col)
    params_file = tmp_path / "small.toml"
    params_file.write_text(small.to_toml())
    assert cli.main(["--params-file", str(params_file), "qe", "--expr", text]) == 1
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1
    assert json.loads(out[0]) == {"error": f"1:{col}: unexpected character {ch!r}", "type": "ParseError"}


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        parse("e((r)/3N @V)")
    assert exc.value.line == 1 and exc.value.col > 1
    with pytest.raises(ParseError):
        parse("sum . e((r)/2N @V)")
    with pytest.raises(ParseError):
        parse("2 +")
    with pytest.raises(ParseError):
        parse("sum r . sum r . e((r)/2N @V)")


def test_atoms_roundtrip():
    samples = [
        "3/4",
        "-2",
        "j",
        "e8",
        "sqrt(2)",
        "e((2*p*r - r^2)/2N @V)",
        "j * e8 * sqrt(6)",
        "2 + j * e8",
        "(sum r . e((-r^2)/2N @V)) * j",
        "int x . e((2*x*y)/2N @U)",
        "sum a . sum b . e((-a^2 + 2*a*b - b^2)/2N @V)",
    ]
    for text in samples:
        e = parse(text)
        assert parse(format_expr(e)) == e, text


def test_format_deterministic_ordering():
    e = parse("e((2*r*p + p^2)/2N @V)")
    f = parse("e((p^2 + 2*p*r)/2N @V)")
    assert format_expr(e) == format_expr(f)


def _token_soup():
    """400 seeded texts of 1-25 random tokens."""
    rng = random.Random(8080)
    tokens = ["sum", "int", "j", "e8", "sqrt", "e", "(", ")", "+", "*", "/", "@",
              ".", "^", "-", "2N", "V", "U", "r", "p", "7", "1/2"]
    return [" ".join(rng.choices(tokens, k=rng.randint(1, 25))) for _ in range(400)]


def test_parser_fuzz_terminates():
    for soup in _token_soup():
        try:
            parse(soup)
        except (ParseError, DomainMismatch):
            pass


def test_eval_basics(small):
    assert eval_expr(parse("e((0)/2N @V)"), small) == 1
    assert eval_expr(parse("2 * 3"), small) == 6
    assert eval_expr(parse("j"), small) == small.j
    two = eval_expr(parse("sqrt(2) * sqrt(2)"), small)
    assert two == 2 % small.p


def test_sqrt_atom_through_elimination(small):
    e = parse("sqrt(2) * sum r . e((-r^2 + 2*r*x)/2N @V)")
    nf = eliminate(e, small)
    for x in range(-2, 2):
        assert eval_normal_form(nf, small, {"x": x}) == eval_expr(e, small, {"x": x}), x


def test_parse_error_reports_the_line_and_column_of_a_later_line():
    with pytest.raises(ParseError) as exc:
        parse("sum r .\n  e((r^2)/2N @V) $")
    assert (exc.value.line, exc.value.col) == (2, 18)
    assert str(exc.value).startswith("2:18: ")


@pytest.mark.parametrize("ws, where", [
    *((ws, "1:9") for ws in ("\t", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u00a0", "\u2028", "\u3000")),
    ("\n", "3:1"), ("\r\n", "3:1"),
])
def test_only_newline_starts_a_line(ws, where):
    # whitespace is str.isspace(); each character but '\n' is one column
    with pytest.raises(ParseError) as exc:
        parse(f"j *{ws} e8{ws}$")
    assert str(exc.value) == f"{where}: unexpected character '$'"
    assert f"{exc.value.line}:{exc.value.col}" == where


@pytest.mark.parametrize("text, message", [
    ("sum r .\n  e((r^2)/2N @V) ) + 1", "2:18: trailing input ')'"),
    ("e((r^2)/2N @V) j", "1:16: trailing input 'j'"),
    ("sum r . (e((r^2)/2N @V)\n * j", "2:5: expected ')', found ''"),
    ("2 *\n 3/0 * j", "2:6: zero denominator"),  # at the token after the 0
    ("3/0", "1:4: zero denominator"),
    ("j * e((r^2)/4N @V)", "1:13: phase denominator must be 2N"),
    ("j *\n e((r^2)/2M @V)", "2:11: phase denominator must be 2N"),
    ("e((r^2)/2N\n @W)", "2:3: domain must be U or V"),
    ("sum x . int N . 1", "1:13: 'N' is reserved"),
    ("e((x*r^3)/2N @V)", "1:6: power exceeds 2"),
    ("e((x +\n  r^3)/2N @V)", "2:3: power exceeds 2"),
    ("e((r*x^2)/2N @V)", "1:6: phase polynomial exceeds degree 2"),
    ("e((r^0)/2N @V)", "1:4: power must be 1 or 2"),
    ("sqrt(-2/3)", "1:1: sqrt argument must be positive"),
])
def test_parse_error_messages_and_positions(text, message):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value) == message
    assert f"{exc.value.line}:{exc.value.col}: " == message[:message.index(" ") + 1]


_LONG = "9" * 5000  # past Python's 4,300-digit integer string conversion limit


@pytest.mark.parametrize("text, col", [
    (f"{_LONG} * j", 1),  # a coefficient
    (f"j * 1/{_LONG}", 7),  # a denominator
    (f"sum r . e(({_LONG}*r^2)/2N @V)", 12),  # a phase coefficient
])
def test_long_integer_literals_are_parse_errors_at_their_token(text, col):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (exc.value.line, exc.value.col) == (1, col)
    assert "5000 digits" in str(exc.value)


def _node_positions(e):
    children = getattr(e, "factors", ()) + getattr(e, "terms", ()) + ((e.body,) if isinstance(e, Quant) else ())
    return [(type(e).__name__, e.pos)] + [p for c in children for p in _node_positions(c)]


def test_every_node_carries_its_position():
    # a Plus or Prod sits at its first child, a parenthesised expression at its first atom
    e = parse("(sum r . j * e((r^2 + 2*r*x)/2N @V) + 3/2)\n  * int s . sqrt(2) * e8 * e((-s^2)/2N @V) + -1")
    assert _node_positions(e) == [
        ("Prod", (1, 2)), ("Quant", (1, 2)), ("Plus", (1, 10)), ("Prod", (1, 10)), ("Const", (1, 10)),
        ("PhaseAtom", (1, 14)), ("Const", (1, 39)), ("Quant", (2, 5)), ("Plus", (2, 13)), ("Prod", (2, 13)),
        ("Const", (2, 13)), ("Const", (2, 23)), ("PhaseAtom", (2, 28)), ("Const", (2, 46)),
    ]


@pytest.mark.parametrize("text, coeff", [
    ("-3/2", GaussCoeff.rational(Fraction(-3, 2))),
    ("j", GaussCoeff.j_power(1)),
    ("e8", GaussCoeff.e8_power(1)),
    ("sqrt(9/2)", GaussCoeff.sqrt(Fraction(9, 2))),
])
def test_a_phase_free_atom_is_one_const_holding_its_coefficient(small, wide, text, coeff):
    e = parse(text)
    assert type(e) is Const and e.coeff == coeff and e.text == format_expr(e) == text
    for params in (small, wide):
        want = to_fp(params, coeff)
        assert eval_expr(e, params) == eval_normal_form(eliminate(e, params), params) == want


def test_const_equality_is_by_coefficient_and_text(small):
    assert parse("4/2") == parse("2")
    assert parse("sqrt(4)") != parse("2") and format_expr(parse("sqrt(4)")) == "sqrt(4)"
    assert format_expr(parse("sqrt(2/3)")) == "sqrt(2/3)"
    e = parse("1/257")  # p = 257 divides the denominator: refused at evaluation, not at parse
    with pytest.raises(ValueError, match="base is not invertible for the given modulus"):
        eval_expr(e, small)


def test_evaluators_take_integer_values_only(small):
    # a float was truncated (1.9 read as 1) and a string multiplied out
    e = parse("sum r . e((-r^2 + 2*r*x)/2N @V)")
    nf = eliminate(e, small)
    for x, want in ((1, 2), (2, 8)):
        assert eval_expr(e, small, {"x": x}) == eval_normal_form(nf, small, {"x": x}) == want
    for bad in (1.9, "2", True, Fraction(2)):
        for evaluate, arg in ((eval_expr, e), (eval_normal_form, nf)):
            with pytest.raises(ArithError, match="'x' must be an integer"):
                evaluate(arg, small, {"x": bad})


@pytest.mark.parametrize("dom", ["V", "U"])
def test_eval_phase_atom_is_char_e(small, dom):
    # the literal evaluator reads a phase atom e(n/2N) as char_e(n/2N)
    e = parse(f"e((-3*r^2 + 2*r*p + 5)/2N @{dom})")
    N = small.N_v if dom == "V" else small.N_u
    for r in range(-N, N):
        for pv in (-2, 0, 7):
            n = -3 * r * r + 2 * r * pv + 5
            assert eval_expr(e, small, {"r": r, "p": pv}) == small.char_e(Fraction(n, 2 * N) % 1), (r, pv)
    # and e8 as char_e(1/8), bare and under a quantifier
    e8 = small.char_e(Fraction(1, 8))
    assert eval_expr(parse("e8"), small) == e8
    summed = parse(f"sum r . e8 * e((-3*r^2 + 5)/2N @{dom})")
    want = sum(e8 * small.char_e(Fraction(-3 * r * r + 5, 2 * N) % 1) for r in range(-N // 2, N // 2))
    assert eval_expr(summed, small) == want % small.p


def test_eval_unbound(small):
    from gausscalc.frontend import UnboundVariable

    with pytest.raises(UnboundVariable):
        eval_expr(parse("e((r)/2N @V)"), small)
    with pytest.raises(UnboundVariable, match="unbound variable 'r'"):
        eval_normal_form(eliminate(parse("e((r)/2N @V)"), small), small)


_TWO_GUARDS = "sum r . sum s . e((-2*r^2 + 2*r*y - 2*s^2 + 2*s*b + a)/2N @U)"  # [if 2 | (b) and if 4 | (2*y)]
_GUARDED_THEN_FREE = "sum r . e((-2*r^2 + 2*r*y + z)/2N @U) + e((w)/2N @U)"  # [if 2 | (y)] + 16 * e((w)/2N @U)


@pytest.mark.parametrize("text, assignment, name", [
    # within a phase, the first monomial in printed order that holds an
    # unbound name: a*c comes before b, and a monomial's names in order
    ("e((2*a*c + b)/2N @V)", {}, "a"),
    ("e((2*a*c + b)/2N @V)", {"a": 1}, "c"),
    ("e((x*y + z)/2N @V)", {"y": 1}, "x"),
    # a term's guards come before its phase, in order
    ("sum r . e((-2*r^2 + 2*r*y + x)/2N @U)", {}, "y"),
    ("sum r . e((-2*r^2 + 2*r*y + x)/2N @U)", {"y": 2}, "x"),
    ("sum r . e((-2*r^2 + 2*r*y + 4*r*w + z)/2N @U)", {}, "w"),
    (_TWO_GUARDS, {}, "b"),
    (_TWO_GUARDS, {"b": 0}, "y"),
    (_TWO_GUARDS, {"b": 0, "y": 2}, "a"),
    # a guard that fails skips its term's phase; the next term is read
    (_GUARDED_THEN_FREE, {"y": 1}, "w"),
    (_GUARDED_THEN_FREE, {"y": 0}, "z"),
])
def test_eval_normal_form_raises_the_first_unbound_name(small, text, assignment, name):
    with pytest.raises(UnboundVariable) as exc:
        eval_normal_form(eliminate(parse(text), small), small, assignment)
    assert str(exc.value) == f"unbound variable {name!r}"


def test_a_failing_guard_reads_nothing_further(small):
    # 2 | b fails: neither the second guard's y nor the phase's a is read
    assert eval_normal_form(eliminate(parse(_TWO_GUARDS), small), small, {"b": 1}) == 0


@pytest.mark.parametrize("tag, text, Q", [
    # positions in name order (r, x), the constant last
    ("V", "sum r . e((-r^2 + 2*r*x)/2N @V)", [[-1, 2, 0], [0, 0, 0], [0, 0, 0]]),
    ("U", "sum r . e((-2*r^2 + 2*r*x + 3)/2N @U)", [[-2, 2, 0], [0, 0, 0], [0, 0, 3]]),
], ids=["V", "U"])
def test_eliminate_returns_the_kernels_own_term(small, tag, text, Q):
    dom = domain_of(small, tag)
    nf = eliminate(parse(text), small)
    assert (nf.names, nf.domain) == (("r", "x"), dom)
    assert nf.terms == (gauss_sum(Term(GaussCoeff.one(), Q, dom.N, ()), 0, dom.N, tag, "extended", small),)


def test_eliminate_basic_form(small):
    # single quantifier over the basic Gaussian: closed form, empty guard
    nf = eliminate(parse("sum r . e((-r^2)/2N @V)"), small)
    assert len(nf.terms) == 1
    term = nf.terms[0]
    assert not term.guards
    assert eval_normal_form(nf, small) == eval_expr(parse("sum r . e((-r^2)/2N @V)"), small)


def test_eliminate_counting_quantifier(small):
    # variable absent from the body: multiplier N in extended mode
    e = parse("sum r . e((p^2)/2N @V)")
    nf = eliminate(e, small)
    for pval in range(-2, 2):
        assert eval_normal_form(nf, small, {"p": pval}) == eval_expr(e, small, {"p": pval})
    strict = eliminate(e, small, mode="strict")
    assert not strict.terms


def test_eliminate_emits_guard(small):
    # sum over r of e((-2r^2 + 2rp)/2N): guard 2 | p
    e = parse("sum r . e((-2*r^2 + 2*r*p)/2N @U)")
    nf = eliminate(e, small)
    assert any(t.guards for t in nf.terms)
    for pval in range(-8, 8):
        assert eval_normal_form(nf, small, {"p": pval}) == eval_expr(e, small, {"p": pval}), pval


def test_eliminate_no_quantifier_left(small):
    e = parse("sum a . sum b . e((-a^2 + 2*a*b - b^2)/2N @V)")
    nf = eliminate(e, small)
    assert nf.free_variables() == set()
    assert eval_normal_form(nf, small) == eval_expr(e, small)


def test_nested_two_quantifiers_vs_brute(small):
    e = parse("sum a . sum b . e((-a^2 + 2*a*b - 2*b^2 + 2*b*x)/2N @U)")
    nf = eliminate(e, small)
    for xval in range(-8, 8):
        assert eval_normal_form(nf, small, {"x": xval}) == eval_expr(e, small, {"x": xval}), xval


def test_pinned_window_vs_brute(small):
    # the z-sum leaves the guard N | y - x, a window of one y: the closed form
    # takes the term at y = x, valid only for a phase N-periodic in y
    e = parse("sum y . sum z . e((y^2 + 2*x*y + 2*z*y - 2*z*x)/2N @V)")
    nf = eliminate(e, small)
    for xval in range(-8, 8):
        assert eval_normal_form(nf, small, {"x": xval}) == eval_expr(e, small, {"x": xval}), xval
    from gausscalc.gauss import NonGaussianSum

    with pytest.raises(NonGaussianSum, match="N-periodic"):
        eliminate(parse("sum y . sum z . e((y^2 + x*y + 2*z*y - 2*z*x)/2N @V)"), small)


def test_product_of_eliminated_terms_vs_brute(small):
    # the r-sum leaves its residual phase over 2N*2, the s-sum over 2N: the
    # product brings e(x/2N), then the s-sum's phase, to the common denominator
    e = parse("e((x)/2N @U) * (sum r . e((-2*r^2 + 2*r*x)/2N @U)) * sum s . e((-s^2 + 2*s*x)/2N @U)")
    nf = eliminate(e, small)
    assert [t.M // nf.domain.N for t in nf.terms] == [2]
    for xval in range(-8, 8):
        assert eval_normal_form(nf, small, {"x": xval}) == eval_expr(e, small, {"x": xval}), xval


def test_a_name_free_in_one_factor_and_bound_in_another(small):
    # x has one position: the sum leaves it zero, the free factor fills it
    P = find_params(ParamSpec())
    e = parse("e(2*x/2N @V) * sum x . e((-x^2 + 2*x*y)/2N @V)")
    nf = eliminate(e, P)
    assert nf.render() == "12 * e8^7 * e((2*x + y^2)/2N @V)"
    for x, y in [(0, 0), (1, 0), (-3, 5), (71, -72)]:
        assert eval_normal_form(nf, P, {"x": x, "y": y}) == eval_expr(e, P, {"x": x, "y": y}), (x, y)


def test_int_quantifier_measure(small):
    e = parse("int r . e((-r^2)/2N @V)")
    nf = eliminate(e, small)
    assert eval_normal_form(nf, small) == eval_expr(e, small)


def test_render_guard_format(small):
    nf = eliminate(parse("sum r . e((-2*r^2 + 2*r*p)/2N @U)"), small)
    text = nf.render()
    assert "if" in text and "|" in text


def test_mixed_domain_product_raises(small):
    e = parse("sum r . e((-r^2)/2N @V) * e((2*r)/2N @U)")
    with pytest.raises(DomainMismatch):
        eliminate(e, small)


def test_scales_are_found_once_per_call(small, monkeypatch):
    import gausscalc.frontend as F

    calls = []
    real = F._domains
    monkeypatch.setattr(F, "_domains", lambda e: calls.append(e) or real(e))
    # the inner body has no phase and takes the expression's one scale, U
    # parse checks scoping with the same walk
    e = parse("sum x . e((-x^2)/2N @U) * sum y . e((2*x*y)/2N @U) * (sum z . 2)")
    assert len(calls) == 1
    nf = eliminate(e, small)
    assert len(calls) == 2
    assert eval_expr(e, small) == eval_normal_form(nf, small)
    assert len(calls) == 3
    # a quantifier body that mixes scales raises when it is evaluated
    with pytest.raises(DomainMismatch):
        eval_expr(parse("sum r . e((-r^2)/2N @V) * e((2*r)/2N @U)"), small)
    # a top-level expression that mixes scales raises too, as in eliminate;
    # each of its phases evaluates at its own scale
    mixed = parse("e((x)/2N @V) * e((x)/2N @U)")
    with pytest.raises(DomainMismatch):
        eval_expr(mixed, small, {"x": 1})
    with pytest.raises(DomainMismatch):
        eliminate(mixed, small)
    for tag, N in (("V", small.N_v), ("U", small.N_u)):
        assert eval_expr(parse(f"e((x)/2N @{tag})"), small, {"x": 1}) == small.char_e(Fraction(1, 2 * N))


@pytest.mark.parametrize("tag", ["U", "V"])
def test_every_term_carries_the_expression_scale(small, tag):
    # the phase-free term 2, the phase-free body 3 of a quantifier and the
    # term of the phase all take the scale of the one phase, and the
    # quantifier sums its whole body over that scale's N
    N = small.N_v if tag == "V" else small.N_u
    e = parse(f"2 + sum z . 3 + e((x)/2N @{tag})")
    nf = eliminate(e, small)
    assert len(nf.terms) == 3 and nf.domain.tag == tag and re.findall("@(.)", nf.render()) == [tag]
    for x in (-1, 0, 3):
        want = (2 + 3 * N + N * small.char_e(Fraction(x, 2 * N))) % small.p
        assert eval_expr(e, small, {"x": x}) == eval_normal_form(nf, small, {"x": x}) == want
    # a phase-free quantifier beside a phase: its count is that scale's N
    e = parse(f"(sum z . 3) * e((x)/2N @{tag})")
    nf = eliminate(e, small)
    assert len(nf.terms) == 1 and nf.domain.tag == tag and re.findall("@(.)", nf.render()) == [tag]
    want = 3 * N * small.char_e(Fraction(1, 2 * N)) % small.p
    assert eval_expr(e, small, {"x": 1}) == eval_normal_form(nf, small, {"x": 1}) == want


# -- the random well-formed generator lives in tests_support_qe (shared with
# the acceptance suite)

from tests_support_qe import random_expression


def test_random_expressions_round_trip_through_the_printer():
    rng = random.Random(0x7E57)
    for i in range(300):
        e = random_expression(rng, 1 + i % 3, "UV"[i % 2])
        assert parse(format_expr(e)) == e, format_expr(e)


@pytest.mark.parametrize("domain", ["V", "U"])
def test_qe_soundness_random(small, domain):
    from gausscalc.gauss import NonGaussianSum

    rng = random.Random(0xC0FFEE if domain == "V" else 0xBEEF)
    produced = 0
    attempts = 0
    while produced < 40 and attempts < 400:
        attempts += 1
        n_quant = rng.choice([1, 1, 2, 2, 3])
        e = random_expression(rng, n_quant, domain)
        try:
            nf = eliminate(e, small)
        except NonGaussianSum:
            continue
        assert nf.free_variables() <= {"x", "y"}
        for k, v in (g for t in nf.terms for g in t.guards):  # no guard that always holds
            assert any(c % k for c in v), nf.render()
        for _ in range(12):
            asg = {"x": rng.randrange(-8, 8), "y": rng.randrange(-8, 8)}
            assert eval_normal_form(nf, small, asg) == eval_expr(e, small, asg), (
                format_expr(e), asg,
            )
        produced += 1
    assert produced == 40, f"only {produced} of {attempts} attempts eliminated"


@pytest.mark.parametrize("domain", ["V", "U"])
def test_qe_soundness_whole_domain(small, domain):
    # the normal form against the literal sum at every (x, y) of the domain;
    # the first 3-quantifier U draws keep x free only, the last two both
    from gausscalc.gauss import NonGaussianSum

    rng = random.Random(0x5EED if domain == "V" else 0xD0E)
    N = small.N_v if domain == "V" else small.N_u
    grid = range(-N // 2, N // 2)
    plan = [(n, ("x",) if domain == "U" and n == 3 else ("x", "y"))
            for n in [1, 1, 2, 2, 3, 3] * (3 if domain == "V" else 1)]
    if domain == "U":
        plan += [(3, ("x", "y"))] * 2
    for n_quant, frees in plan:
        for _ in range(50):
            e = random_expression(rng, n_quant, domain, frees)
            try:
                nf = eliminate(e, small)
                break
            except NonGaussianSum:
                continue
        else:
            pytest.fail(f"no eliminable {n_quant}-quantifier expression in 50 draws")
        for x in grid:
            for y in grid if "y" in frees else (0,):
                asg = {"x": x, "y": y}
                assert eval_normal_form(nf, small, asg) == eval_expr(e, small, asg), (format_expr(e), asg)


@pytest.mark.parametrize("tower, text, points", [
    # N_u = 1024: the 1024^2-point grid exceeds BLOCK, so the outer sum loops
    ((4, 2), "sum r . sum s . e((-r^2 + 2*r*s + 2*r*x)/2N @U) * e((-2*s^2 + 2*s*y)/2N @U)",
     [(0, 0), (3, -5), (-7, 2)]),
    # N_v = 144: 144^2 points fit, 144^3 do not, so the outermost sum loops;
    # the normal form's guard 12 | (-8 + 4x - 8y) holds at the first three points
    ((12, 2), "sum r . sum s . sum t . e((-r^2 + 2*r*s + 2*r*x)/2N @V) * e((s^2 + 2*s*t + 2*s*y)/2N @V)"
              " * e((-t^2 + 2*t)/2N @V)",
     [(2, 0), (0, -1), (4, 1), (1, 0)]),
], ids=["mid-U", "default-V"])
def test_eval_expr_loops_the_quantifiers_outside_the_grid_cap(tower, text, points):
    params = find_params(ParamSpec(*tower))
    e = parse(text)
    nf = eliminate(e, params)
    values = set()
    for x, y in points:
        want = eval_normal_form(nf, params, {"x": x, "y": y})
        assert eval_expr(e, params, {"x": x, "y": y}) == want, (x, y)
        values.add(want)
    assert len(values) == len(points)  # nonzero at the guarded points, and distinct


def test_eval_expr_refuses_past_its_point_budget(small, monkeypatch):
    # one nest of x over two nests (y, z): 4 * (4 + 4) index points on V
    e = parse("sum x . (sum y . e((-y^2)/2N @V)) * (sum z . e((-z^2 + 2*x*z)/2N @V))")
    want = eval_normal_form(eliminate(e, small), small)
    monkeypatch.setattr("gausscalc.frontend.MAX_EVAL_POINTS", 32)
    assert eval_expr(e, small) == want
    monkeypatch.setattr("gausscalc.frontend.MAX_EVAL_POINTS", 31)
    with pytest.raises(PointBudgetExceeded, match=r"visit 32 index points, more than the bound 31"):
        eval_expr(e, small)
    monkeypatch.undo()
    # four V quantifiers on the default tower: 144^4 points
    deep = parse("sum a . sum b . sum c . sum d . e((-a^2 + 2*a*b - b^2 + 2*c*d)/2N @V)")
    with pytest.raises(PointBudgetExceeded, match=rf"visit {144 ** 4} index points, more than the bound {MAX_EVAL_POINTS}"):
        eval_expr(deep, find_params(ParamSpec()))


def test_rebinding_is_rejected_by_parse_eliminate_and_eval_expr(small):
    with pytest.raises(ParseError, match="bound twice") as exc:
        parse("sum r . sum r . e((-r^2)/2N @V)")
    assert (exc.value.line, exc.value.col) == (1, 9)
    # the same tree built by hand, with no parse to check its scoping
    inner = Quant("sum", "r", PhaseAtom(Poly.from_dict({("r", "r"): -1}), "V"), pos=(3, 7))
    e = Quant("sum", "r", Prod((inner, PhaseAtom(Poly.from_dict({("r",): 2}), "V"))))
    for run in (lambda: eliminate(e, small), lambda: eval_expr(e, small)):
        with pytest.raises(ParseError, match="variable 'r' bound twice") as exc:
            run()
        assert (exc.value.line, exc.value.col) == (3, 7)
    # sibling quantifiers may reuse a name
    ok = Plus((Quant("sum", "r", inner.body), Quant("sum", "r", inner.body)))
    assert eval_expr(ok, small) == eval_normal_form(eliminate(ok, small), small)
    # a quantifier may reuse the name of an assigned free variable, which keeps its value outside
    shadow = parse("(sum r . e((-r^2 + 2*r)/2N @V)) * e((r)/2N @V)")
    want = eval_normal_form(eliminate(shadow, small), small, {"r": 1})
    assert want and eval_expr(shadow, small, {"r": 1}) == want


def nf_digest() -> str:
    """One sha256 over a seeded random_expression corpus on the (2, 1) and
    default towers: each expression's refusal text, or its normal form's
    render(), free_variables() and eval_normal_form value or error text
    under a full, two partial and the empty assignment, and under the
    other tower's params.  Equal digests: an unchanged normal form."""
    towers = [find_params(ParamSpec(2, 1)), find_params(ParamSpec())]
    h = hashlib.sha256()
    for t, params in enumerate(towers):
        rng = random.Random(0x5D16E57 + t)
        for i in range(600):
            frees = ("x", "y") if i % 3 else ("b", "x", "z")
            e = random_expression(rng, 1 + i % 3, "VU"[i % 2], frees)
            try:
                nf = eliminate(e, params)
            except ArithError as exc:
                h.update(f"{type(exc).__name__}: {exc}\n".encode())
                continue
            h.update(f"{nf.render()}|{sorted(nf.free_variables())}\n".encode())
            full = {v: rng.randrange(-40, 40) for v in frees}
            runs = [(params, full), (params, dict(list(full.items())[1:])), (params, {frees[0]: full[frees[0]]}),
                    (params, {}), (towers[1 - t], full)]
            for at, asg in runs:
                try:
                    out = str(eval_normal_form(nf, at, asg))
                except ArithError as exc:
                    out = f"{type(exc).__name__}: {exc}"
                h.update(f"{out}\n".encode())
    return h.hexdigest()


def ast_digest() -> str:
    """One sha256 over a seeded corpus of texts on the (2, 1) tower: the
    format_expr texts of random_expression draws and atom-heavy sums of
    products, each with format_expr(parse(text)) and its eval_expr value or
    error text at three seeded assignments, then the parse outcome of each
    text of `_token_soup`.  Equal digests: an unchanged parser, printer and
    literal oracle."""
    params = find_params(ParamSpec(2, 1))
    rng = random.Random(0xA57D16E)
    atoms = ["0", "1", "-2", "3/4", "-3/2", "4/2", "1/257", "257", "j", "e8", "sqrt(2)", "sqrt(9/2)", "sqrt(4)",
             "sqrt(2/3)", "e((2*x - y^2)/2N @V)", "e((-r^2 + 2*r*x)/2N @V)", "e((x*y - r^2)/2N @U)"]
    texts = [format_expr(random_expression(rng, 1 + i % 3, "VU"[i % 2])) for i in range(300)]
    for _ in range(300):
        text = " + ".join(" * ".join(rng.choices(atoms, k=rng.randint(1, 4))) for _ in range(rng.randint(1, 3)))
        texts.append(f"{rng.choice(['sum', 'int'])} r . {text}" if rng.random() < 0.4 else text)
    h = hashlib.sha256()
    for text in texts + _token_soup():
        try:
            e = parse(text)
        except ArithError as exc:
            h.update(f"{type(exc).__name__}: {exc}\n".encode())
            continue
        h.update(f"{format_expr(e)}\n".encode())
        for _ in range(3):
            try:
                out = str(eval_expr(e, params, {"x": rng.randrange(-40, 40), "y": rng.randrange(-40, 40)}))
            except ValueError as exc:  # ArithError, or a denominator p divides
                out = f"{type(exc).__name__}: {exc}"
            h.update(f"{out}\n".encode())
    return h.hexdigest()


if __name__ == "__main__":
    # PYTHONPATH=src:tests python tests/test_frontend.py --nf-digest (or --ast-digest)
    import sys

    if "--nf-digest" in sys.argv:
        print(nf_digest())
    if "--ast-digest" in sys.argv:
        print(ast_digest())
