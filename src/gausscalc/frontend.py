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

Tokens are numbers (ASCII digits), names (an ASCII letter or '_', then
letters, digits and '_') and the one-character symbols + - * / ^ @ ( ) .;
whitespace is any character for which str.isspace() holds.  A number
with more digits than Python converts to an int is a ParseError at its
token.  The lexer finds the first other character with one search, which
is then the ParseError raised, and splits the text with one compiled
pattern into two flat lists, the token texts and their offsets; the
parser walks them by index.  A (line, col) is computed from an offset
only where a node's pos or a ParseError needs it: only '\\n' starts a
line, and every other character is one column.

Phase polynomials have integer coefficients and total degree <= 2; a
quantifier body extends maximally to the right.  Parentheses and
quantifiers nest at most MAX_DEPTH = 64 deep (one inside another, the
parentheses of 'e(' and 'sqrt(' not counted); a deeper one is a
ParseError at its own position, so no recursive pass over a parsed
expression nests deeper than that.  'sum' is the domain
summation quantifier; 'int' is the same summation weighted by the lattice
measure 1/sqrt(N) (the x = r/sqrt(N) scaling).

Elimination rewrites each quantifier innermost-first by the Gauss
summation formula, evaluated by the summation kernel ``gauss.gauss_sum``:
a variable y entering as (A y^2 + 2 L(frees) y + R(frees))/2N contributes
the closed-form coefficient and the residual phase (R - L^2/A)/2N, guarded
by the congruence A | L(frees); guards are first-class data in the normal
form, and guards on y itself first restrict it to one coset (merged by
`gauss.merge_cosets`, whatever their moduli).  Quantified variables must carry even
linear coefficients (the 2L structure of the summation formula); odd ones
leave the Gaussian fragment and raise.

``Poly`` is the polynomial of the two ends only: a parsed phase atom
(``PhaseAtom``) and the returned normal form (``GaussTerm``, ``Guard``).
The parser adds its terms into a monomial -> coefficient dict and builds
one ``Poly`` per phase atom; expansion and elimination work on such dicts,
laid out positionally for the kernel at each summation step, and
``eliminate`` builds each normal-form term's ``Poly`` once.

``eval_expr``, the literal oracle elimination is checked against, sums
each quantifier nest's body over the numpy index grid of its bound
variables, up to ``arith.BLOCK`` elements; outer quantifiers beyond that
cap loop over their values.  It refuses, before any summation, an
expression whose nests visit more than MAX_EVAL_POINTS index points.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .arith import BLOCK, ArithError, DomainMismatch, Params, poly_mod, ratio_phase, require_int
from .coeffring import GaussCoeff, to_fp, unit_normalization
from .gauss import gauss_sum
from .hilbert import Domain, domain_of


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
        items = sorted(d.items())
        return cls(tuple(items) if 0 not in d.values() else tuple(item for item in items if item[1]))

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
            # m is sorted and of degree <= 2: a square is one name twice
            names = f"{m[0]}^2" if len(m) == 2 and m[0] == m[1] else "*".join(m)
            body = str(abs(c)) if not m else names if abs(c) == 1 else f"{abs(c)}*{names}"
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

# tokens: NUM [0-9]+, IDENT an ASCII letter or '_' then letters, digits and
# '_', SYM one of + - * / ^ @ ( ) .; between them only whitespace
_TOKEN = re.compile(r"([0-9]+|[A-Za-z_][A-Za-z0-9_]*|[-+*/^@().])")
_BAD = re.compile(r"[^0-9A-Za-z_+\-*/^@().\s]")


def _where(text: str, offset: int) -> tuple[int, int]:
    """(line, col) of `offset` in `text`, both from 1; only '\\n' starts a line."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _scan(text: str) -> tuple[list[str], list[int]]:
    """The token texts of `text` and their offsets, with '' at len(text)
    for the end; ParseError at the first character no token takes."""
    bad = _BAD.search(text)
    if bad:
        raise ParseError(f"unexpected character {bad.group()!r}", *_where(text, bad.start()))
    parts = _TOKEN.split(text)  # whitespace, token, whitespace, ..., whitespace
    return parts[1::2] + [""], list(accumulate(map(len, parts)))[::2]


MAX_DEPTH = 64


class _Parser:
    """Recursive descent over `_scan`'s lists by index.  A token's kind is
    its first character's (a digit: NUM, a letter or '_': IDENT, none: the
    end), so a symbol is tested by its text alone."""

    def __init__(self, text: str):
        self.text = text
        self.toks, self.offs = _scan(text)
        self.i = 0
        self.depth = 0

    def pos(self, i: int) -> tuple[int, int]:
        return _where(self.text, self.offs[i])

    def error(self, message: str, i: int, cls=ParseError) -> ParseError:
        return cls(message, *self.pos(i))

    def expect(self, want: str) -> str:
        """The next token's text, which must be the symbol `want`, or any
        number or name for want 'NUM' or 'IDENT'."""
        tok = self.toks[self.i]
        ok = tok == want if len(want) == 1 else tok.isdigit() if want == "NUM" else tok.isidentifier()
        if not ok:
            raise self.error(f"expected {want!r}, found {tok!r}", self.i)
        self.i += 1
        return tok

    def integer(self, i: int) -> int:
        """The NUM token at index i as an int; ParseError at that token
        when it has more digits than Python converts."""
        tok = self.toks[i]
        try:
            return int(tok)
        except ValueError:
            raise self.error(f"integer literal of {len(tok)} digits is too long", i) from None

    def parse_nested(self, at: int) -> Expr:
        """parse_expr for the body of the '(' or quantifier at token `at`,
        one level deeper."""
        if self.depth == MAX_DEPTH:
            raise self.error(f"nesting deeper than {MAX_DEPTH} levels", at)
        self.depth += 1
        body = self.parse_expr()
        self.depth -= 1
        return body

    # expr := product ('+' product)*
    def parse_expr(self) -> Expr:
        terms = [self.parse_product()]
        while self.toks[self.i] == "+":
            self.i += 1
            terms.append(self.parse_product())
        return terms[0] if len(terms) == 1 else Plus(tuple(terms), pos=terms[0].pos)

    def parse_product(self) -> Expr:
        factors = [self.parse_atom()]
        while self.toks[self.i] == "*":
            self.i += 1
            factors.append(self.parse_atom())
        return factors[0] if len(factors) == 1 else Prod(tuple(factors), pos=factors[0].pos)

    def parse_atom(self) -> Expr:
        i = self.i
        tok = self.toks[i]
        if tok == "-" or tok.isdigit():
            value = self.parse_rational_value()
            return Rat(value, pos=self.pos(i))
        self.i = i + 1
        if tok == "(":
            inner = self.parse_nested(i)
            self.expect(")")
            return inner
        if tok == "j":
            return JAtom(pos=self.pos(i))
        if tok == "e8":
            return E8Atom(pos=self.pos(i))
        if tok == "sqrt":
            self.expect("(")
            value = self.parse_rational_value()
            self.expect(")")
            if value <= 0:
                raise self.error("sqrt argument must be positive", i)
            return SqrtAtom(value, pos=self.pos(i))
        if tok == "e":
            self.expect("(")
            wrapped = self.toks[self.i] == "("
            self.i += wrapped
            poly = self.parse_poly()
            if wrapped:
                self.expect(")")
            self.expect("/")
            if self.expect("NUM") != "2" or self.expect("IDENT") != "N":
                raise self.error("phase denominator must be 2N", self.i - 1)
            self.expect("@")
            dom = self.expect("IDENT")
            if dom != "U" and dom != "V":
                raise self.error("domain must be U or V", self.i - 1)
            self.expect(")")
            return PhaseAtom(poly, dom, pos=self.pos(i))
        if tok == "sum" or tok == "int":
            var = self.expect("IDENT")
            if var in _KEYWORDS:
                raise self.error(f"{var!r} is reserved", self.i - 1)
            self.expect(".")
            body = self.parse_nested(i)
            return Quant(tok, var, body, pos=self.pos(i))
        raise self.error(f"unexpected token {tok!r}", i)

    def parse_rational_value(self) -> Fraction:
        sign = 1
        if self.toks[self.i] == "-":
            self.i += 1
            sign = -1
        self.expect("NUM")
        num = self.integer(self.i - 1)
        toks, i = self.toks, self.i
        if toks[i] == "/" and toks[i + 1].isdigit():
            den = self.integer(i + 1)
            self.i = i + 2
            if den == 0:
                raise self.error("zero denominator", i + 2)
            return Fraction(sign * num, den)
        return Fraction(sign * num)

    # poly := ['-'] pterm (('+'|'-') pterm)*; the leading sign is the first term's
    def parse_poly(self) -> Poly:
        d: dict[Monomial, int] = {}
        sign = 1
        if self.toks[self.i] == "-":
            self.i += 1
            sign = -1
        while True:
            m, c = self.parse_pterm()
            d[m] = d.get(m, 0) + sign * c
            tok = self.toks[self.i]
            if tok != "+" and tok != "-":
                return Poly.from_dict(d)
            self.i += 1
            sign = 1 if tok == "+" else -1

    def parse_pterm(self) -> tuple[Monomial, int]:
        """One term as (sorted monomial, coefficient)."""
        toks, i = self.toks, self.i
        coeff = 1
        if toks[i].isdigit():
            coeff = self.integer(i)
            if toks[i + 1] != "*":
                self.i = i + 1
                return (), coeff
            i += 2
        names: list[str] = []
        while True:
            ident = toks[i]
            if not ident.isidentifier():
                raise self.error(f"expected 'IDENT', found {ident!r}", i)
            if ident in _KEYWORDS:
                raise self.error(f"{ident!r} is reserved and cannot name a variable", i)
            at, power = i, 1
            if toks[i + 1] == "^":
                self.i = i + 2
                self.expect("NUM")
                power = self.integer(i + 2)
                if power > 2:
                    raise self.error("power exceeds 2", at, DegreeError)
                if power < 1:
                    raise self.error("power must be 1 or 2", at)
                i += 2
            if len(names) + power > 2:
                raise self.error("phase polynomial exceeds degree 2", at, DegreeError)
            names += [ident] * power
            if toks[i + 1] == "*" and toks[i + 2].isidentifier() and toks[i + 2] not in _KEYWORDS:
                i += 2
                continue
            self.i = i + 1
            return tuple(sorted(names)), coeff


def parse(text: str) -> Expr:
    parser = _Parser(text)
    expr = parser.parse_expr()
    tok = parser.toks[parser.i]
    if tok:
        raise parser.error(f"trailing input {tok!r}", parser.i)
    _domains(expr)  # rejects rebinding a bound variable
    return expr


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


def _domains(e: Expr) -> set[str]:
    """The domain tags ('U', 'V') of the phases in `e`, in one pass that
    also rejects rebinding a bound variable (the scoping rule `parse`
    applies)."""
    tags: set[str] = set()

    def walk(node: Expr, bound: frozenset[str]) -> None:
        kind = type(node)
        if kind is PhaseAtom:
            tags.add(node.domain)
        elif kind is Prod or kind is Plus:
            for child in node.factors if kind is Prod else node.terms:
                walk(child, bound)
        elif kind is Quant:
            if node.var in bound:
                raise ParseError(f"variable {node.var!r} bound twice", *(node.pos or (0, 0)))
            walk(node.body, bound | {node.var})

    walk(e, frozenset())
    return tags


def _scale(e: Expr) -> str:
    """The one scale of `e` -- its phases' domain tag, 'V' where it has
    none; DomainMismatch where it mixes U and V phases.  Every quantifier
    body in `e` then has this scale or no phase."""
    tags = _domains(e)
    if len(tags) > 1:
        raise DomainMismatch("expression mixes U and V phases")
    return tags.pop() if tags else "V"


MAX_EVAL_POINTS = 1 << 26  # index points one eval_expr call may visit


class PointBudgetExceeded(ArithError):
    """A literal evaluation would visit more than MAX_EVAL_POINTS index points."""


def eval_expr(
    e: Expr,
    params: Params,
    assignment: dict[str, int] | None = None,
) -> int:
    """Literal evaluation in F_p, the QE correctness oracle: each quantifier
    sums its body over the whole domain index range.  The scale comes from
    the expression, as in `eliminate`: DomainMismatch where it mixes U and
    V phases.  A quantifier nest's body is evaluated at once over the numpy
    index grid of its bound variables, one axis each, joined from the
    innermost quantifier outward while the grid stays within
    ``arith.BLOCK`` elements (the innermost always joins); a quantifier
    that does not fit loops over its values.  PointBudgetExceeded, before
    any summation, where the evaluation would visit more than
    MAX_EVAL_POINTS index points."""
    run, _, _, points = _compile(e, params, domain_of(params, _scale(e)))
    if points > MAX_EVAL_POINTS:
        raise PointBudgetExceeded(
            f"literal evaluation would visit {points} index points, more than the bound {MAX_EVAL_POINTS}"
        )
    return run(_int_assignment(assignment))


def _int_assignment(assignment: dict | None) -> dict[str, int]:
    """A copy of the evaluators' assignment; ArithError naming the first
    variable whose value is not an integer."""
    return {v: require_int(x, f"the value of {v!r}") for v, x in (assignment or {}).items()}


def _compile(e: Expr, params: Params, dom: Domain):
    """`e` on the domain `dom` as a function from its variables' values
    (ints, or index arrays on grid axes) to residues, with the number of
    grid axes its arrays span, its largest grid's size (inf once a
    quantifier in it loops) and the index points its quantifiers visit:
    the product of N along each nest, summed over the nests."""
    p = params.p
    if isinstance(e, (Rat, JAtom, E8Atom, SqrtAtom)):
        if isinstance(e, Rat):
            c = e.value.numerator % p * pow(e.value.denominator, -1, p) % p
        elif isinstance(e, SqrtAtom):
            c = to_fp(params, GaussCoeff.sqrt(e.value))
        else:
            c = params.j % p if isinstance(e, JAtom) else params.xi(8)
        return (lambda env: c), 0, 1, 0
    if isinstance(e, PhaseAtom):
        two_n = 2 * dom.N
        table = params.power_table(two_n)

        def phase(env):
            try:
                k = poly_mod(two_n, [(c, *(env[v] for v in m)) for m, c in e.poly.coeffs])
            except KeyError as exc:
                raise UnboundVariable(f"unbound variable {exc.args[0]!r}") from None
            return table[k] if isinstance(k, np.ndarray) else int(table[k])

        return phase, 0, 1, 0
    if isinstance(e, (Prod, Plus)):
        parts = [_compile(c, params, dom) for c in (e.factors if isinstance(e, Prod) else e.terms)]
        fns = [f for f, _, _, _ in parts]
        axes = max((a for _, a, _, _ in parts), default=0)
        size = max((s for _, _, s, _ in parts), default=1)
        points = sum(n for _, _, _, n in parts)
        if isinstance(e, Plus):
            return (lambda env: sum(f(env) for f in fns) % p), axes, size, points
        return (lambda env: functools.reduce(lambda out, f: out * f(env) % p, fns, 1)), axes, size, points
    if isinstance(e, Quant):
        N = dom.N
        body, axes, size, points = _compile(e.body, params, dom)
        points = N * (points or 1)
        unit = to_fp(params, unit_normalization(params.m, dom.tag)) if e.kind == "int" else 1
        if size == 1 or N * size <= BLOCK:
            index = dom.index_vector().reshape((N,) + (1,) * axes)

            def grid_sum(env):
                x = body({**env, e.var: index})
                on_axis = isinstance(x, np.ndarray) and x.ndim > axes and x.shape[-1 - axes] == N
                x = (x.sum(axis=-1 - axes, keepdims=True) if on_axis else x * N) % p * unit % p
                return x.item() if isinstance(x, np.ndarray) and x.size == 1 else x

            return grid_sum, axes + 1, N * size, points

        def loop_sum(env):
            total = sum(body({**env, e.var: r}) for r in dom.index_range())
            return total % p * unit % p

        return loop_sum, 0, math.inf, points
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
    assignment = _int_assignment(assignment)
    total = 0
    for t in nf.terms:
        if t.guards and not all(g.holds(assignment) for g in t.guards):
            continue
        n = t.poly.eval(assignment)
        N = domain_of(params, t.domain).N
        val = to_fp(params, t.coeff) * params.char_e(ratio_phase(n, 2 * N * t.den))
        total = (total + val) % params.p
    return total


class _Term(NamedTuple):
    """A term during elimination: coeff * e(phase / 2N*den), where the
    guards hold.  The phase and each guard's linear form are monomial ->
    coefficient dicts without zero entries, never mutated once built."""

    coeff: GaussCoeff
    phase: dict
    den: int = 1
    guards: tuple = ()


_ONE = GaussCoeff.one()
# the phase-free atoms' coefficients, shared (coefficients are immutable)
_ATOM_COEFF = {JAtom: GaussCoeff.j_power(1), E8Atom: GaussCoeff.e8_power(1)}


def _times(a: GaussCoeff, b: GaussCoeff) -> GaussCoeff:
    """a * b, passing one factor through when the other is the shared one."""
    return b if a is _ONE else a if b is _ONE else a * b


def _mul_terms(a: _Term, b: _Term) -> _Term:
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
    return _Term(_times(a.coeff, b.coeff), phase, den, a.guards + b.guards)


def _expand(e: Expr, params: Params, mode: str, dom: Domain) -> list[_Term]:
    kind = type(e)
    if kind is PhaseAtom:
        return [_Term(_ONE, e.poly.as_dict())]
    if kind is Prod:
        terms = _expand(e.factors[0], params, mode, dom) if e.factors else [_Term(_ONE, {})]
        for f in e.factors[1:]:
            expanded = _expand(f, params, mode, dom)
            terms = [_mul_terms(t, u) for t in terms for u in expanded]
        return terms
    if kind is Quant:
        out = []
        for term in _expand(e.body, params, mode, dom):
            result = _eliminate_var(term, e.var, params, mode, dom)
            if result is not None:
                if e.kind == "int":
                    result = result._replace(coeff=_times(result.coeff, unit_normalization(params.m, dom.tag)))
                out.append(result)
        return out
    if kind is Plus:
        return [t for term in e.terms for t in _expand(term, params, mode, dom)]
    if kind in _ATOM_COEFF:
        return [_Term(_ATOM_COEFF[kind], {})]
    if kind is Rat:
        return [_Term(GaussCoeff.rational(e.value), {})]
    if kind is SqrtAtom:
        return [_Term(GaussCoeff.sqrt(e.value), {})]
    raise ArithError(f"cannot eliminate {kind.__name__}")


def _eliminate_var(term: _Term, y: str, params: Params, mode: str, dom: Domain) -> _Term | None:
    """One Gauss-summation step over y in the window of `dom`: the
    term's phase and guards are laid out positionally (variables in name
    order, the constant last) for the summation kernel `gauss_sum`, and its
    result is read back into dicts.  Returns None for a structurally-zero
    result (a declared zero, or a sum that telescopes to zero)."""
    used = {y}.union(*term.phase)
    for _, g in term.guards:
        used.update(*g)
    names = sorted(used)
    n = len(names)
    pos = dict(zip(names, range(n)))
    keys = [*zip(names), ()]  # the monomial of each position
    Q = [[0] * (n + 1) for _ in range(n + 1)]
    for m, c in term.phase.items():  # monomials are sorted: Q is upper triangular
        if len(m) == 2:
            Q[pos[m[0]]][pos[m[1]]] = c
        else:
            Q[pos[m[0]] if m else n][n] = c
    guards = [(k, [g.get(key, 0) for key in keys]) for k, g in term.guards]
    N = dom.N
    res = gauss_sum(Q, pos[y], guards, N, N * term.den, dom.tag, mode, params)
    if res.coeff.is_zero():
        return None
    new_guards = tuple((k, {keys[i]: c for i, c in enumerate(v) if c}) for k, v in res.guards)
    phase = {}
    for i, row in enumerate(res.Q):  # upper triangular too
        for j in range(i, n + 1):
            if row[j]:
                phase[keys[i] + keys[j]] = row[j]
    den = res.M // N
    if Q[pos[y]][pos[y]]:
        # residual phase (R - L^2/A)/2M, held over the boosted denominator
        g = math.gcd(*phase.values(), den)
        if g > 1:
            phase, den = {m: c // g for m, c in phase.items()}, den // g
    return _Term(_times(term.coeff, res.coeff), phase, den, new_guards)


def eliminate(e: Expr, params: Params, mode: str = "extended") -> NormalForm:
    """Innermost-first quantifier elimination to a guarded, quantifier-free
    sum of Gaussian terms; eval-equivalent to the source expression."""
    dom = domain_of(params, _scale(e))  # _scale also validates scoping
    return NormalForm(tuple(
        GaussTerm(t.coeff, Poly.from_dict(t.phase), dom.tag, t.den,
                  tuple(Guard(k, Poly.from_dict(g)) for k, g in t.guards))
        for t in _expand(e, params, mode, dom) if not t.coeff.is_zero()
    ))
