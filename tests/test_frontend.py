import json
import random
from fractions import Fraction

import pytest

from gausscalc import cli
from gausscalc.arith import DomainMismatch, ParamSpec, find_params
from gausscalc.frontend import (
    DegreeError,
    ParseError,
    PhaseAtom,
    Plus,
    Poly,
    Prod,
    Quant,
    eliminate,
    eval_expr,
    eval_normal_form,
    format_expr,
    free_variables,
    parse,
)


@pytest.fixture(scope="module")
def small():
    # tiny tower: N_v = 4, N_u = 16, p = 257
    return find_params(ParamSpec(2, 1))


def test_parse_phase_atom():
    e = parse("e((-r^2 + 2*r*p)/2N @V)")
    assert isinstance(e, PhaseAtom)
    assert e.domain == "V"
    assert free_variables(e) == {"r", "p"}
    d = e.poly.as_dict()
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
    assert e.poly.as_dict() == {("r", "r"): -1, ("r", "x"): 2, (): -3, ("x",): 1}
    # repeated monomials merge, and cancelled ones leave no entry
    e = parse("e((x + 2*x - r^2 + 3 + r*r + 4 - y*x + 2*x*y)/2N @V)")
    assert e.poly.as_dict() == {("x",): 3, (): 7, ("x", "y"): 1}


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


def test_parser_fuzz_terminates():
    rng = random.Random(8080)
    tokens = ["sum", "int", "j", "e8", "sqrt", "e", "(", ")", "+", "*", "/", "@",
              ".", "^", "-", "2N", "V", "U", "r", "p", "7", "1/2"]
    for _ in range(400):
        soup = " ".join(rng.choices(tokens, k=rng.randint(1, 25)))
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
    assert [t.den for t in nf.terms] == [2]
    for xval in range(-8, 8):
        assert eval_normal_form(nf, small, {"x": xval}) == eval_expr(e, small, {"x": xval}), xval


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
    # the inner body has no phase and takes its scale from the enclosing U body
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
    # with the scale given, phases of both scales outside any quantifier body still evaluate
    mixed = parse("e((x)/2N @V) * e((x)/2N @U)")
    want = small.char_e(Fraction(1, 2 * small.N_v)) * small.char_e(Fraction(1, 2 * small.N_u)) % small.p
    assert eval_expr(mixed, small, {"x": 1}, domain="V") == want
    with pytest.raises(DomainMismatch):
        eval_expr(mixed, small, {"x": 1})


# -- the random well-formed generator lives in tests_support_qe (shared with
# the acceptance suite)

from tests_support_qe import random_expression


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
    # a 3-quantifier U expression keeps x free only, because its literal sum
    # (16^3 terms) at each of the 16^2 points would take seconds
    from gausscalc.gauss import NonGaussianSum

    rng = random.Random(0x5EED if domain == "V" else 0xD0E)
    N = small.N_v if domain == "V" else small.N_u
    grid = range(-N // 2, N // 2)
    plan = [1, 1, 2, 2, 3, 3] * (3 if domain == "V" else 1)
    for n_quant in plan:
        frees = ("x",) if domain == "U" and n_quant == 3 else ("x", "y")
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
