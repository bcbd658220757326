"""Expression language with a quantifier-eliminating rewriter.

Grammar (whitespace insensitive):

    expr  := product ('+' product)*
    product := atom ('*' atom)*
    atom  := rational | 'j' | 'e8' | 'sqrt(' rational ')'
           | 'e(' poly '/2N' '@' ('U'|'V') ')'
           | ('sum'|'int') ident '.' expr
           | '(' expr ')'
    poly  := ['-'] pterm (('+'|'-') pterm)*
    pterm := integer ['*' factors] | factors
    factors := ident ['^' power] ('*' ident ['^' power])*

Phase polynomials have integer coefficients and total degree <= 2; a
quantifier body extends maximally to the right.  'sum' is the domain
summation quantifier; 'int' is the same summation weighted by the lattice
measure 1/sqrt(N) (the x = r/sqrt(N) scaling).

Elimination rewrites each quantifier innermost-first by the Gauss
summation formula, evaluated by the summation kernel ``gauss.gauss_sum``
on the term lowered to positional form: a variable y entering as
(A y^2 + 2 L(frees) y + R(frees))/2N contributes the closed-form
coefficient and the residual phase (R - L^2/A)/2N, guarded by the
congruence A | L(frees); guards are first-class data in the normal form,
and guards on y itself first restrict it to a coset (merged by CRT when
their moduli are coprime).  Quantified variables must carry
even linear coefficients (the 2L structure of the summation formula);
odd ones leave the Gaussian fragment and raise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .arith import ArithError, DomainMismatch, Params
from .coeffring import GaussCoeff, to_fp, unit_normalization
from .gauss import gauss_sum


class ParseError(ArithError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class DegreeError(ParseError):
    pass


class UnboundVariable(ArithError):
    pass


# -- polynomials ----------------------------------------------------------------

Monomial = tuple[str, ...]


@dataclass(frozen=True)
class Poly:
    """Integer-coefficient polynomial of total degree <= 2; monomial keys
    are sorted variable tuples, () the constant."""

    coeffs: tuple[tuple[Monomial, int], ...]

    @classmethod
    def from_dict(cls, d: dict[Monomial, int]) -> "Poly":
        return cls(tuple(sorted((m, c) for m, c in d.items() if c)))

    @classmethod
    def const(cls, c: int) -> "Poly":
        return cls.from_dict({(): c})

    @classmethod
    def var(cls, name: str) -> "Poly":
        return cls.from_dict({(name,): 1})

    def as_dict(self) -> dict[Monomial, int]:
        return dict(self.coeffs)

    def __add__(self, other: "Poly") -> "Poly":
        d = self.as_dict()
        for m, c in other.coeffs:
            d[m] = d.get(m, 0) + c
        return Poly.from_dict(d)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, int):
            return Poly.from_dict({m: c * other for m, c in self.coeffs})
        d: dict[Monomial, int] = {}
        for m1, c1 in self.coeffs:
            for m2, c2 in other.coeffs:
                m = tuple(sorted(m1 + m2))
                if len(m) > 2:
                    raise DegreeError("phase polynomial exceeds degree 2", 0, 0)
                d[m] = d.get(m, 0) + c1 * c2
        return Poly.from_dict(d)

    __rmul__ = __mul__

    def variables(self) -> set[str]:
        return {v for m, _ in self.coeffs for v in m}

    def is_zero(self) -> bool:
        return not self.coeffs

    def eval(self, assignment: dict[str, int]) -> int:
        total = 0
        for m, c in self.coeffs:
            term = c
            for v in m:
                if v not in assignment:
                    raise UnboundVariable(f"unbound variable {v!r}")
                term *= assignment[v]
            total += term
        return total

    def exact_div(self, k: int) -> "Poly":
        return Poly.from_dict({m: c // k for m, c in self.coeffs})

    def render(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for m, c in self.coeffs:
            names: list[str] = []
            seen: dict[str, int] = {}
            for v in m:
                seen[v] = seen.get(v, 0) + 1
            for v in sorted(seen):
                names.append(v if seen[v] == 1 else f"{v}^{seen[v]}")
            if not names:
                body = str(abs(c))
            elif abs(c) == 1:
                body = "*".join(names)
            else:
                body = "*".join([str(abs(c))] + names)
            parts.append(("- " if c < 0 else "+ ") + body)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]


# -- AST --------------------------------------------------------------------------


@dataclass(frozen=True)
class Expr:
    pos: tuple[int, int] | None = field(default=None, compare=False, kw_only=True)


@dataclass(frozen=True)
class Rat(Expr):
    value: Fraction = Fraction(0)


@dataclass(frozen=True)
class JAtom(Expr):
    pass


@dataclass(frozen=True)
class E8Atom(Expr):
    pass


@dataclass(frozen=True)
class SqrtAtom(Expr):
    value: Fraction = Fraction(1)


@dataclass(frozen=True)
class PhaseAtom(Expr):
    poly: Poly = Poly.const(0)
    domain: str = "V"


@dataclass(frozen=True)
class Prod(Expr):
    factors: tuple = ()


@dataclass(frozen=True)
class Plus(Expr):
    terms: tuple = ()


@dataclass(frozen=True)
class Quant(Expr):
    kind: str = "sum"  # 'sum' or 'int'
    var: str = "r"
    body: Expr = Rat(Fraction(0))


_KEYWORDS = {"sum", "int", "j", "e8", "sqrt", "e", "N", "U", "V"}


# -- lexer ------------------------------------------------------------------------


@dataclass(slots=True)
class Token:
    kind: str  # NUM IDENT SYM EOF
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[Token]:
    out = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            out.append(Token("NUM", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(Token("IDENT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in "+-*/^@().":
            out.append(Token("SYM", ch, line, col))
            col += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    out.append(Token("EOF", "", line, col))
    return out


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.next()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            raise ParseError(f"expected {want!r}, found {tok.text!r}", tok.line, tok.col)
        return tok

    def fail(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col)

    # expr := product ('+' product)*
    def parse_expr(self) -> Expr:
        first = self.parse_product()
        terms = [first]
        while self.peek().kind == "SYM" and self.peek().text == "+":
            self.next()
            terms.append(self.parse_product())
        if len(terms) == 1:
            return first
        return Plus(tuple(terms), pos=(terms[0].pos or (0, 0)))

    def parse_product(self) -> Expr:
        first = self.parse_atom()
        factors = [first]
        while self.peek().kind == "SYM" and self.peek().text == "*":
            self.next()
            factors.append(self.parse_atom())
        if len(factors) == 1:
            return first
        return Prod(tuple(factors), pos=(factors[0].pos or (0, 0)))

    def parse_atom(self) -> Expr:
        tok = self.peek()
        at = (tok.line, tok.col)
        if tok.kind == "NUM" or (tok.kind == "SYM" and tok.text == "-"):
            return self.parse_rational()
        if tok.kind == "SYM" and tok.text == "(":
            self.next()
            inner = self.parse_expr()
            self.expect("SYM", ")")
            return inner
        if tok.kind == "IDENT":
            if tok.text == "j":
                self.next()
                return JAtom(pos=at)
            if tok.text == "e8":
                self.next()
                return E8Atom(pos=at)
            if tok.text == "sqrt":
                self.next()
                self.expect("SYM", "(")
                value = self.parse_rational_value()
                self.expect("SYM", ")")
                if value <= 0:
                    raise ParseError("sqrt argument must be positive", *at)
                return SqrtAtom(value, pos=at)
            if tok.text == "e":
                self.next()
                self.expect("SYM", "(")
                wrapped = self.peek().kind == "SYM" and self.peek().text == "("
                if wrapped:
                    self.next()
                poly = self.parse_poly()
                if wrapped:
                    self.expect("SYM", ")")
                self.expect("SYM", "/")
                two = self.expect("NUM")
                if two.text != "2":
                    raise ParseError("phase denominator must be 2N", two.line, two.col)
                nn = self.expect("IDENT")
                if nn.text != "N":
                    raise ParseError("phase denominator must be 2N", nn.line, nn.col)
                self.expect("SYM", "@")
                dom = self.expect("IDENT")
                if dom.text not in ("U", "V"):
                    raise ParseError("domain must be U or V", dom.line, dom.col)
                self.expect("SYM", ")")
                return PhaseAtom(poly, dom.text, pos=at)
            if tok.text in ("sum", "int"):
                self.next()
                var = self.expect("IDENT")
                if var.text in _KEYWORDS:
                    raise ParseError(f"{var.text!r} is reserved", var.line, var.col)
                self.expect("SYM", ".")
                body = self.parse_expr()
                return Quant(tok.text, var.text, body, pos=at)
        self.fail(f"unexpected token {tok.text!r}")

    def parse_rational(self) -> Rat:
        tok = self.peek()
        at = (tok.line, tok.col)
        return Rat(self.parse_rational_value(), pos=at)

    def parse_rational_value(self) -> Fraction:
        sign = 1
        if self.peek().kind == "SYM" and self.peek().text == "-":
            self.next()
            sign = -1
        num = int(self.expect("NUM").text)
        if self.peek().kind == "SYM" and self.peek().text == "/":
            save = self.pos
            self.next()
            if self.peek().kind == "NUM":
                den = int(self.next().text)
                if den == 0:
                    self.fail("zero denominator")
                return Fraction(sign * num, den)
            self.pos = save
        return Fraction(sign * num)

    # poly := ['-'] pterm (('+'|'-') pterm)*
    def parse_poly(self) -> Poly:
        total = Poly.const(0)
        sign = 1
        if self.peek().kind == "SYM" and self.peek().text == "-":
            self.next()
            sign = -1
        total = total + self.parse_pterm() * sign
        while self.peek().kind == "SYM" and self.peek().text in "+-":
            op = self.next().text
            total = total + self.parse_pterm() * (1 if op == "+" else -1)
        return total

    def parse_pterm(self) -> Poly:
        tok = self.peek()
        coeff = 1
        parts: list[Poly] = []
        if tok.kind == "NUM":
            coeff = int(self.next().text)
            if not (self.peek().kind == "SYM" and self.peek().text == "*"):
                return Poly.const(coeff)
            self.next()
        while True:
            ident = self.expect("IDENT")
            if ident.text in _KEYWORDS:
                raise ParseError(
                    f"{ident.text!r} is reserved and cannot name a variable",
                    ident.line,
                    ident.col,
                )
            power = 1
            if self.peek().kind == "SYM" and self.peek().text == "^":
                self.next()
                power = int(self.expect("NUM").text)
                if power > 2:
                    raise DegreeError("power exceeds 2", ident.line, ident.col)
                if power < 1:
                    raise ParseError("power must be 1 or 2", ident.line, ident.col)
            parts.append(
                Poly.var(ident.text) if power == 1 else Poly.var(ident.text) * Poly.var(ident.text)
            )
            if self.peek().kind == "SYM" and self.peek().text == "*":
                save = self.pos
                self.next()
                if self.peek().kind == "IDENT" and self.peek().text not in _KEYWORDS:
                    continue
                self.pos = save
            break
        out = Poly.const(coeff)
        for part in parts:
            out = out * part
        return out


def parse(text: str) -> Expr:
    parser = _Parser(text)
    expr = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "EOF":
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)
    _check_scoping(expr, set())
    return expr


def _check_scoping(e: Expr, bound: set[str]) -> set[str]:
    """Returns free variables; rejects rebinding a bound variable."""
    if isinstance(e, PhaseAtom):
        return e.poly.variables() - bound
    if isinstance(e, (Prod, Plus)):
        out: set[str] = set()
        for child in e.factors if isinstance(e, Prod) else e.terms:
            out |= _check_scoping(child, bound)
        return out
    if isinstance(e, Quant):
        if e.var in bound:
            raise ParseError(f"variable {e.var!r} bound twice", *(e.pos or (0, 0)))
        return _check_scoping(e.body, bound | {e.var}) - {e.var}
    return set()


def free_variables(e: Expr) -> set[str]:
    return _check_scoping(e, set())


# -- printer ----------------------------------------------------------------------


def format_expr(e: Expr) -> str:
    if isinstance(e, Rat):
        return str(e.value)
    if isinstance(e, JAtom):
        return "j"
    if isinstance(e, E8Atom):
        return "e8"
    if isinstance(e, SqrtAtom):
        return f"sqrt({e.value})"
    if isinstance(e, PhaseAtom):
        return f"e(({e.poly.render()})/2N @{e.domain})"
    if isinstance(e, Prod):
        return " * ".join(_fmt_child(f) for f in e.factors)
    if isinstance(e, Plus):
        return " + ".join(_fmt_child(t, in_sum=True) for t in e.terms)
    if isinstance(e, Quant):
        return f"{e.kind} {e.var} . {format_expr(e.body)}"
    raise ArithError(f"unknown node {type(e).__name__}")


def _fmt_child(e: Expr, in_sum: bool = False) -> str:
    if isinstance(e, Quant) or (isinstance(e, Plus) and not in_sum):
        return f"({format_expr(e)})"
    if isinstance(e, Plus):
        return f"({format_expr(e)})"
    return format_expr(e)


# -- direct evaluation (the oracle) -------------------------------------------------


def _expr_domain(e: Expr) -> str | None:
    if isinstance(e, PhaseAtom):
        return e.domain
    doms = set()
    children = ()
    if isinstance(e, Prod):
        children = e.factors
    elif isinstance(e, Plus):
        children = e.terms
    elif isinstance(e, Quant):
        children = (e.body,)
    for child in children:
        d = _expr_domain(child)
        if d:
            doms.add(d)
    if len(doms) > 1:
        raise DomainMismatch("expression mixes U and V phases")
    return doms.pop() if doms else None


def _domain_size(params: Params, domain: str) -> int:
    return params.N_v if domain == "V" else params.N_u


def eval_expr(
    e: Expr,
    params: Params,
    assignment: dict[str, int] | None = None,
    domain: str | None = None,
) -> int:
    """Literal recursive evaluation in F_p; quantifiers are evaluated by
    explicit summation over the domain index range.  The QE correctness
    oracle."""
    assignment = dict(assignment or {})
    return _eval_fp(e, params, assignment, domain or _expr_domain(e) or "V")


def _eval_fp(e: Expr, params: Params, asg: dict[str, int], dom: str) -> int:
    p = params.p
    if isinstance(e, Rat):
        return e.value.numerator % p * pow(e.value.denominator, -1, p) % p
    if isinstance(e, JAtom):
        return params.j % p
    if isinstance(e, E8Atom):
        return params.xi(8)
    if isinstance(e, SqrtAtom):
        return to_fp(params, GaussCoeff.sqrt(e.value))
    if isinstance(e, PhaseAtom):
        two_n = 2 * _domain_size(params, e.domain)
        return pow(params.xi(two_n), e.poly.eval(asg) % two_n, p)
    if isinstance(e, Prod):
        out = 1
        for f in e.factors:
            out = out * _eval_fp(f, params, asg, dom) % p
        return out
    if isinstance(e, Plus):
        return sum(_eval_fp(t, params, asg, dom) for t in e.terms) % p
    if isinstance(e, Quant):
        sub_dom = _expr_domain(e.body) or dom
        N = _domain_size(params, sub_dom)
        total = 0
        for r in range(-N // 2, N // 2):
            asg[e.var] = r
            total = (total + _eval_fp(e.body, params, asg, sub_dom)) % p
        del asg[e.var]
        if e.kind == "int":
            total = total * to_fp(params, unit_normalization(params.m, sub_dom)) % p
        return total
    raise ArithError(f"cannot evaluate {type(e).__name__}")


# -- normal form and elimination -----------------------------------------------------


@dataclass(frozen=True)
class Guard:
    """Congruence condition k | poly(frees)."""

    modulus: int
    poly: Poly

    def holds(self, assignment: dict[str, int]) -> bool:
        return self.poly.eval(assignment) % self.modulus == 0

    def render(self) -> str:
        return f"if {self.modulus} | ({self.poly.render()})"


@dataclass(frozen=True)
class GaussTerm:
    coeff: GaussCoeff  # phase-free scalar part (j, e8, sqrt, rational)
    poly: Poly
    domain: str
    den: int = 1
    guards: tuple[Guard, ...] = ()

    def render(self) -> str:
        parts = [str(self.coeff)]
        if not self.poly.is_zero():
            den = "" if self.den == 1 else f"*{self.den}"
            parts.append(f"e(({self.poly.render()})/2N{den} @{self.domain})")
        text = " * ".join(parts)
        if self.guards:
            text += " [" + " and ".join(g.render() for g in self.guards) + "]"
        return text


@dataclass(frozen=True)
class NormalForm:
    terms: tuple[GaussTerm, ...]

    def render(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(t.render() for t in self.terms)

    def free_variables(self) -> set[str]:
        out: set[str] = set()
        for t in self.terms:
            out |= t.poly.variables()
            for g in t.guards:
                out |= g.poly.variables()
        return out


def eval_normal_form(
    nf: NormalForm,
    params: Params,
    assignment: dict[str, int] | None = None,
) -> int:
    """The normal form's value in F_p: its terms whose guards hold."""
    assignment = assignment or {}
    total = 0
    for t in nf.terms:
        if not all(g.holds(assignment) for g in t.guards):
            continue
        n = t.poly.eval(assignment)
        N = _domain_size(params, t.domain)
        val = to_fp(params, t.coeff) * params.char_e(Fraction(n, 2 * N * t.den) % 1)
        total = (total + val) % params.p
    return total


def _mul_terms(a: GaussTerm, b: GaussTerm) -> GaussTerm:
    if a.poly.is_zero():
        domain = b.domain
    elif b.poly.is_zero():
        domain = a.domain
    elif a.domain != b.domain:
        raise DomainMismatch("cannot multiply U-scale and V-scale phases")
    else:
        domain = a.domain
    den = math.lcm(a.den, b.den)
    poly = a.poly * (den // a.den) + b.poly * (den // b.den)
    return GaussTerm(a.coeff * b.coeff, poly, domain, den, a.guards + b.guards)


def _expand(e: Expr, params: Params, mode: str, dom: str) -> list[GaussTerm]:
    one = GaussTerm(GaussCoeff.one(), Poly.const(0), dom)
    if isinstance(e, Rat):
        return [GaussTerm(GaussCoeff.rational(e.value), Poly.const(0), dom)]
    if isinstance(e, JAtom):
        return [GaussTerm(GaussCoeff.j_power(1), Poly.const(0), dom)]
    if isinstance(e, E8Atom):
        return [GaussTerm(GaussCoeff.e8_power(1), Poly.const(0), dom)]
    if isinstance(e, SqrtAtom):
        return [GaussTerm(GaussCoeff.sqrt(e.value), Poly.const(0), dom)]
    if isinstance(e, PhaseAtom):
        return [GaussTerm(GaussCoeff.one(), e.poly, e.domain)]
    if isinstance(e, Plus):
        out: list[GaussTerm] = []
        for t in e.terms:
            out.extend(_expand(t, params, mode, dom))
        return out
    if isinstance(e, Prod):
        terms = [one]
        for f in e.factors:
            expanded = _expand(f, params, mode, dom)
            terms = [_mul_terms(t, u) for t in terms for u in expanded]
        return terms
    if isinstance(e, Quant):
        sub_dom = _expr_domain(e.body) or dom
        inner = _expand(e.body, params, mode, sub_dom)
        out = []
        for term in inner:
            result = _eliminate_var(term, e.var, params, mode)
            if result is not None:
                if e.kind == "int":
                    result = GaussTerm(
                        result.coeff * unit_normalization(params.m, result.domain),
                        result.poly,
                        result.domain,
                        result.den,
                        result.guards,
                    )
                out.append(result)
        return out
    raise ArithError(f"cannot eliminate {type(e).__name__}")


def _eliminate_var(term: GaussTerm, y: str, params: Params, mode: str) -> GaussTerm | None:
    """One Gauss-summation step over y in the full domain window: the
    term's phase and guards are lowered to positional form (variables in
    name order, the constant last) for the summation kernel `gauss_sum`,
    and its result is read back.  Returns None for a structurally-zero
    result (a declared zero, or a sum that telescopes to zero)."""
    names = sorted(term.poly.variables().union({y}, *(g.poly.variables() for g in term.guards)))
    pos = {v: i for i, v in enumerate(names)}
    n = len(names)
    Q = [[0] * (n + 1) for _ in range(n + 1)]
    for m, c in term.poly.coeffs:
        i, j = ([pos[v] for v in m] + [n, n])[:2]
        Q[i][j] += c
    guards = [(g.modulus, _vector(g.poly, pos, n)) for g in term.guards]
    N = _domain_size(params, term.domain)
    res = gauss_sum(Q, pos[y], guards, N, N * term.den, term.domain, mode, params)
    if res.coeff.is_zero():
        return None
    new_guards = [Guard(k, _linear_poly(v, names)) for k, v in res.guards + ((res.guard,) if res.guard else ())]
    poly = Poly.from_dict({
        tuple(names[t] for t in (i, j) if t < n): c
        for i, row in enumerate(res.Q) for j, c in enumerate(row) if c
    })
    den = res.M // N
    if Q[pos[y]][pos[y]]:
        # residual phase (R - L^2/A)/2M, held over the boosted denominator
        g = math.gcd(*(c for _, c in poly.coeffs), den)
        poly, den = poly.exact_div(g), den // g
    return GaussTerm(term.coeff * res.coeff, poly, term.domain, den, tuple(new_guards))


def _vector(poly: Poly, pos: dict[str, int], n: int) -> list[int]:
    v = [0] * (n + 1)
    for m, c in poly.coeffs:
        v[pos[m[0]] if m else n] += c
    return v


def _linear_poly(v: list[int], names: list[str]) -> Poly:
    n = len(names)
    return Poly.from_dict({((names[i],) if i < n else ()): c for i, c in enumerate(v) if c})


def eliminate(e: Expr, params: Params, mode: str = "extended") -> NormalForm:
    """Innermost-first quantifier elimination to a guarded, quantifier-free
    sum of Gaussian terms; eval-equivalent to the source expression."""
    free_variables(e)  # validates scoping
    dom = _expr_domain(e) or "V"
    terms = [t for t in _expand(e, params, mode, dom) if not t.coeff.is_zero()]
    return NormalForm(tuple(terms))
