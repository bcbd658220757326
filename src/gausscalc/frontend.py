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
summation formula, evaluated by the summation kernel ``gauss.gauss_sum``:
a variable y entering as (A y^2 + 2 L(frees) y + R(frees))/2N contributes
the closed-form coefficient and the residual phase (R - L^2/A)/2N, guarded
by the congruence A | L(frees); guards are first-class data in the normal
form, and guards on y itself first restrict it to a coset (merged by CRT
when their moduli are coprime).  Quantified variables must carry even
linear coefficients (the 2L structure of the summation formula); odd ones
leave the Gaussian fragment and raise.

``Poly`` is the polynomial of the two ends only: a parsed phase atom
(``PhaseAtom``) and the returned normal form (``GaussTerm``, ``Guard``).
The parser adds its terms into a monomial -> coefficient dict and builds
one ``Poly`` per phase atom; expansion and elimination work on such dicts,
laid out positionally for the kernel at each summation step, and
``eliminate`` builds each normal-form term's ``Poly`` once.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

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
    are sorted variable tuples, () the constant.  Immutable and without
    arithmetic: built once from a monomial -> coefficient dict."""

    coeffs: tuple[tuple[Monomial, int], ...]

    @classmethod
    def from_dict(cls, d: dict[Monomial, int]) -> "Poly":
        return cls(tuple(sorted((m, c) for m, c in d.items() if c)))

    def as_dict(self) -> dict[Monomial, int]:
        return dict(self.coeffs)

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
    poly: Poly = Poly(())
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


# identifiers are ASCII: a letter or '_', then letters, digits and '_'
_IDENT_START = frozenset(string.ascii_letters + "_")
_IDENT_CHARS = frozenset(string.ascii_letters + string.digits + "_")


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
        if "0" <= ch <= "9":
            j = i
            while j < len(text) and "0" <= text[j] <= "9":
                j += 1
            out.append(Token("NUM", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _IDENT_START:
            j = i
            while j < len(text) and text[j] in _IDENT_CHARS:
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

    # poly := ['-'] pterm (('+'|'-') pterm)*; the leading sign is the first term's
    def parse_poly(self) -> Poly:
        d: dict[Monomial, int] = {}
        sign = 1
        if self.peek().kind == "SYM" and self.peek().text == "-":
            self.next()
            sign = -1
        while True:
            m, c = self.parse_pterm()
            d[m] = d.get(m, 0) + sign * c
            tok = self.peek()
            if tok.kind != "SYM" or tok.text not in "+-":
                return Poly.from_dict(d)
            self.next()
            sign = 1 if tok.text == "+" else -1

    def parse_pterm(self) -> tuple[Monomial, int]:
        """One term as (sorted monomial, coefficient)."""
        coeff = 1
        if self.peek().kind == "NUM":
            coeff = int(self.next().text)
            if not (self.peek().kind == "SYM" and self.peek().text == "*"):
                return (), coeff
            self.next()
        names: list[str] = []
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
            if len(names) + power > 2:
                raise DegreeError("phase polynomial exceeds degree 2", ident.line, ident.col)
            names += [ident.text] * power
            if self.peek().kind == "SYM" and self.peek().text == "*":
                save = self.pos
                self.next()
                if self.peek().kind == "IDENT" and self.peek().text not in _KEYWORDS:
                    continue
                self.pos = save
            return tuple(sorted(names)), coeff


def parse(text: str) -> Expr:
    parser = _Parser(text)
    expr = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "EOF":
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)
    _domains(expr)  # rejects rebinding a bound variable
    return expr


def free_variables(e: Expr) -> set[str]:
    """The variables of `e` that no quantifier binds."""
    if isinstance(e, PhaseAtom):
        return e.poly.variables()
    if isinstance(e, (Prod, Plus)):
        return set().union(*map(free_variables, e.factors if isinstance(e, Prod) else e.terms))
    if isinstance(e, Quant):
        return free_variables(e.body) - {e.var}
    return set()


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
        return " + ".join(_fmt_child(t) for t in e.terms)
    if isinstance(e, Quant):
        return f"{e.kind} {e.var} . {format_expr(e.body)}"
    raise ArithError(f"unknown node {type(e).__name__}")


def _fmt_child(e: Expr) -> str:
    if isinstance(e, (Quant, Plus)):
        return f"({format_expr(e)})"
    return format_expr(e)


# -- direct evaluation (the oracle) -------------------------------------------------


_MIXED = "mixed"  # a subtree with both U and V phases


def _domains(e: Expr) -> dict[int, str | None]:
    """The scale of `e` and of every quantifier body in it -- 'U', 'V',
    None for no phase, or _MIXED -- keyed by the id of `e` and of each
    Quant node, in one bottom-up pass that also rejects rebinding a bound
    variable (the scoping rule `parse` applies)."""
    out: dict[int, str | None] = {}

    def walk(node: Expr, bound: frozenset[str]) -> str | None:
        if isinstance(node, PhaseAtom):
            return node.domain
        if isinstance(node, Prod):
            children = node.factors
        elif isinstance(node, Plus):
            children = node.terms
        elif isinstance(node, Quant):
            if node.var in bound:
                raise ParseError(f"variable {node.var!r} bound twice", *(node.pos or (0, 0)))
            children = (node.body,)
            bound = bound | {node.var}
        else:
            return None
        dom = None
        for child in children:
            d = walk(child, bound)
            if d is not None and d != dom:
                dom = d if dom is None else _MIXED
        if isinstance(node, Quant):
            out[id(node)] = dom
        return dom

    out[id(e)] = walk(e, frozenset())
    return out


def _scale(domains: dict[int, str | None], e: Expr) -> str | None:
    """The scale of `e` (the whole expression or a quantifier) from
    `_domains`; raises DomainMismatch where it mixes U and V phases."""
    dom = domains[id(e)]
    if dom == _MIXED:
        raise DomainMismatch("expression mixes U and V phases")
    return dom


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
    domains = _domains(e)
    return _eval_fp(e, params, assignment, domain or _scale(domains, e) or "V", domains)


def _eval_fp(e: Expr, params: Params, asg: dict[str, int], dom: str, domains: dict) -> int:
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
            out = out * _eval_fp(f, params, asg, dom, domains) % p
        return out
    if isinstance(e, Plus):
        return sum(_eval_fp(t, params, asg, dom, domains) for t in e.terms) % p
    if isinstance(e, Quant):
        sub_dom = _scale(domains, e) or dom
        N = _domain_size(params, sub_dom)
        total = 0
        for r in range(-N // 2, N // 2):
            asg[e.var] = r
            total = (total + _eval_fp(e.body, params, asg, sub_dom, domains)) % p
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


class _Term(NamedTuple):
    """A term during elimination: coeff * e(phase / 2N*den), where the
    guards hold.  The phase and each guard's linear form are monomial ->
    coefficient dicts without zero entries, never mutated once built."""

    coeff: GaussCoeff
    phase: dict
    domain: str
    den: int = 1
    guards: tuple = ()


def _mul_terms(a: _Term, b: _Term) -> _Term:
    if not a.phase:
        domain = b.domain
    elif not b.phase:
        domain = a.domain
    elif a.domain != b.domain:
        raise DomainMismatch("cannot multiply U-scale and V-scale phases")
    else:
        domain = a.domain
    den = math.lcm(a.den, b.den)
    ka, kb = den // a.den, den // b.den
    phase = a.phase if ka == 1 else {m: c * ka for m, c in a.phase.items()}
    if b.phase:
        phase = dict(phase)
        for m, c in b.phase.items():
            c = phase.get(m, 0) + kb * c
            if c:
                phase[m] = c
            else:
                del phase[m]
    return _Term(a.coeff * b.coeff, phase, domain, den, a.guards + b.guards)


def _expand(e: Expr, params: Params, mode: str, dom: str, domains: dict) -> list[_Term]:
    if isinstance(e, Rat):
        return [_Term(GaussCoeff.rational(e.value), {}, dom)]
    if isinstance(e, JAtom):
        return [_Term(GaussCoeff.j_power(1), {}, dom)]
    if isinstance(e, E8Atom):
        return [_Term(GaussCoeff.e8_power(1), {}, dom)]
    if isinstance(e, SqrtAtom):
        return [_Term(GaussCoeff.sqrt(e.value), {}, dom)]
    if isinstance(e, PhaseAtom):
        return [_Term(GaussCoeff.one(), e.poly.as_dict(), e.domain)]
    if isinstance(e, Plus):
        out: list[_Term] = []
        for t in e.terms:
            out.extend(_expand(t, params, mode, dom, domains))
        return out
    if isinstance(e, Prod):
        terms = [_Term(GaussCoeff.one(), {}, dom)]
        for f in e.factors:
            expanded = _expand(f, params, mode, dom, domains)
            terms = [_mul_terms(t, u) for t in terms for u in expanded]
        return terms
    if isinstance(e, Quant):
        sub_dom = _scale(domains, e) or dom
        out = []
        for term in _expand(e.body, params, mode, sub_dom, domains):
            result = _eliminate_var(term, e.var, params, mode)
            if result is not None:
                if e.kind == "int":
                    result = result._replace(coeff=result.coeff * unit_normalization(params.m, result.domain))
                out.append(result)
        return out
    raise ArithError(f"cannot eliminate {type(e).__name__}")


def _eliminate_var(term: _Term, y: str, params: Params, mode: str) -> _Term | None:
    """One Gauss-summation step over y in the full domain window: the
    term's phase and guards are laid out positionally (variables in name
    order, the constant last) for the summation kernel `gauss_sum`, and its
    result is read back into dicts.  Returns None for a structurally-zero
    result (a declared zero, or a sum that telescopes to zero)."""
    names = sorted({y}.union(*term.phase, *(m for _, g in term.guards for m in g)))
    n = len(names)
    pos = {v: i for i, v in enumerate(names)}
    keys = [(v,) for v in names] + [()]
    Q = [[0] * (n + 1) for _ in range(n + 1)]
    for m, c in term.phase.items():
        i, j = (*(pos[v] for v in m), n, n)[:2]
        Q[i][j] += c
    guards = [(k, [g.get(key, 0) for key in keys]) for k, g in term.guards]
    N = _domain_size(params, term.domain)
    res = gauss_sum(Q, pos[y], guards, N, N * term.den, term.domain, mode, params)
    if res.coeff.is_zero():
        return None
    new_guards = tuple(
        (k, {keys[i]: c for i, c in enumerate(v) if c})
        for k, v in res.guards + ((res.guard,) if res.guard else ())
    )
    phase = {keys[i] + keys[j]: c for i, row in enumerate(res.Q) for j, c in enumerate(row) if c}
    den = res.M // N
    if Q[pos[y]][pos[y]]:
        # residual phase (R - L^2/A)/2M, held over the boosted denominator
        g = math.gcd(*phase.values(), den)
        if g > 1:
            phase, den = {m: c // g for m, c in phase.items()}, den // g
    return _Term(term.coeff * res.coeff, phase, term.domain, den, new_guards)


def eliminate(e: Expr, params: Params, mode: str = "extended") -> NormalForm:
    """Innermost-first quantifier elimination to a guarded, quantifier-free
    sum of Gaussian terms; eval-equivalent to the source expression."""
    domains = _domains(e)  # also validates scoping
    dom = _scale(domains, e) or "V"
    return NormalForm(tuple(
        GaussTerm(t.coeff, Poly.from_dict(t.phase), t.domain, t.den,
                  tuple(Guard(k, Poly.from_dict(g)) for k, g in t.guards))
        for t in _expand(e, params, mode, dom, domains) if not t.coeff.is_zero()
    ))
