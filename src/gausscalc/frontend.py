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
token, and so is a 'sqrt(' of n/d with n*d above coeffring.MAX_SQRT_ARG
(it would be factored by trial division).  The lexer finds the first
other character with one search, which is then the ParseError raised,
and splits the text with one compiled pattern into two flat lists, the
token texts and their offsets; the parser walks them by index.  A (line,
col) is computed from an offset only where a node's pos or a ParseError
needs it: only '\\n' starts a line, and every other character is one
column.

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

``Poly`` is the polynomial of a parsed phase atom (``PhaseAtom``): the
parser adds its terms into a monomial -> coefficient dict and builds one
``Poly`` per atom.  A phase-free atom (a rational, 'j', 'e8', 'sqrt(...)')
is one ``Const``: its ``GaussCoeff`` and the text it prints as.
Expansion and elimination work on the kernel's own ``gauss.Term``:
``eliminate`` gives each variable name one position for the whole
expression (names in order, the constant last), a ``Const`` is a term
with no matrix, and each quantifier is one ``gauss_sum`` call per term.  The ``NormalForm`` holds those terms with the position names
and the expression's ``hilbert.Domain``; ``render`` reads a term's Q and
guard vectors into ``Poly`` only to print them, and ``eval_normal_form``
evaluates them at the assignment directly.  The expansion refuses,
before it is built, a product or a sum of more than MAX_TERMS terms.

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
from itertools import accumulate, chain
from operator import add

import numpy as np

from .arith import BLOCK, ArithError, DomainMismatch, Params, poly_mod, ratio_phase, require_int
from .coeffring import MAX_SQRT_ARG, GaussCoeff, to_fp, unit_normalization
from .gauss import Term, _times, gauss_sum
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

    def variables(self) -> set[str]:
        return {v for m, _ in self.coeffs for v in m}

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
class Const(Expr):
    """A phase-free atom: its coefficient, and its text (sqrt(2/3) prints
    so, not as 1/3 * sqrt(6), and sqrt(4) is not the atom 2)."""

    coeff: GaussCoeff = GaussCoeff.zero()
    text: str = "0"


_NAMED_COEFF = {"j": GaussCoeff.j_power(1), "e8": GaussCoeff.e8_power(1)}  # shared: coefficients are immutable


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
    body: Expr = Const()


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
            return Const(GaussCoeff.rational(value), str(value), pos=self.pos(i))
        self.i = i + 1
        if tok == "(":
            inner = self.parse_nested(i)
            self.expect(")")
            return inner
        if tok == "j" or tok == "e8":
            return Const(_NAMED_COEFF[tok], tok, pos=self.pos(i))
        if tok == "sqrt":
            self.expect("(")
            value = self.parse_rational_value()
            self.expect(")")
            if value <= 0:
                raise self.error("sqrt argument must be positive", i)
            if value.numerator * value.denominator > MAX_SQRT_ARG:
                raise self.error(f"sqrt argument exceeds {MAX_SQRT_ARG}", i)
            return Const(GaussCoeff.sqrt(value), f"sqrt({value})", pos=self.pos(i))
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
    if isinstance(e, Const):
        return e.text
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


def _domains(e: Expr) -> tuple[set[str], set[str]]:
    """The domain tags ('U', 'V') of the phases in `e` and its variable
    names, free and bound, in one pass that also rejects rebinding a bound
    variable (the scoping rule `parse` applies)."""
    tags: set[str] = set()
    names: set[str] = set()

    def walk(node: Expr, bound: frozenset[str]) -> None:
        kind = type(node)
        if kind is PhaseAtom:
            tags.add(node.domain)
            names.update(node.poly.variables())
        elif kind is Prod or kind is Plus:
            for child in node.factors if kind is Prod else node.terms:
                walk(child, bound)
        elif kind is Quant:
            if node.var in bound:
                raise ParseError(f"variable {node.var!r} bound twice", *(node.pos or (0, 0)))
            names.add(node.var)
            walk(node.body, bound | {node.var})

    walk(e, frozenset())
    return tags, names


def _scale(e: Expr) -> tuple[str, set[str]]:
    """The one scale of `e` -- its phases' domain tag, 'V' where it has
    none -- and its variable names; DomainMismatch where it mixes U and V
    phases.  Every quantifier body in `e` then has this scale or no phase."""
    tags, names = _domains(e)
    if len(tags) > 1:
        raise DomainMismatch("expression mixes U and V phases")
    return tags.pop() if tags else "V", names


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
    run, _, _, points = _compile(e, params, domain_of(params, _scale(e)[0]))
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
    if isinstance(e, Const):
        c = to_fp(params, e.coeff)
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
class NormalForm:
    """A guarded, quantifier-free sum of the kernel's own terms on
    `domain`: coeff * e(x^T Q x / 2M) where every guard (k, v), k | v . x,
    holds, over the positions of `names` (sorted) and the constant last;
    a term with Q None has no phase."""

    terms: tuple[Term, ...]
    names: tuple[str, ...]
    domain: Domain

    def render(self) -> str:
        keys = [*zip(self.names), ()]  # the monomial of each position
        N, parts = self.domain.N, []
        for t in self.terms:
            # Q is upper triangular: keys[i] + keys[j] is a sorted monomial
            phase = Poly.from_dict({keys[i] + keys[j]: c for i, row in enumerate(t.Q or ()) if any(row)
                                    for j, c in enumerate(row) if c})
            den = "" if t.M == N else f"*{t.M // N}"
            text = f"{t.coeff} * e(({phase.render()})/2N{den} @{self.domain.tag})" if phase.coeffs else str(t.coeff)
            guards = [f"if {k} | ({Poly.from_dict({keys[i]: c for i, c in enumerate(v) if c}).render()})"
                      for k, v in t.guards]
            parts.append(text + (" [" + " and ".join(guards) + "]" if guards else ""))
        return " + ".join(parts) or "0"

    def free_variables(self) -> set[str]:
        # a name is free where a row or a column of some Q, or a guard, is nonzero at its position
        vectors = (v for t in self.terms for v in chain(t.Q or (), zip(*t.Q or ()), (v for _, v in t.guards)))
        return {name for v in vectors for name, c in zip(self.names, v) if c}


def eval_normal_form(
    nf: NormalForm,
    params: Params,
    assignment: dict[str, int] | None = None,
) -> int:
    """The normal form's value in F_p: its terms whose guards hold, each
    phase over 2N of `params` times the term's M // N at elimination.
    UnboundVariable for the first unbound name met, term by term: the
    guards in order up to the first that fails, then the phase, each in
    the order of its rendered monomials."""
    assignment = _int_assignment(assignment)
    names, x = nf.names, [assignment.get(v) for v in nf.names] + [1]
    two_n, N = 2 * domain_of(params, nf.domain.tag).N, nf.domain.N
    total = 0
    for t in nf.terms:
        if t.guards and any(_dot(v, x, names) % k for k, v in t.guards):
            continue
        n = 0  # x^T Q x over the nonzero entries of the upper triangle, row by row
        for i, row in enumerate(t.Q or ()):
            if any(row):
                n += _bound(x, names, i) * _dot(row, x, names, i)
        val = to_fp(params, t.coeff) * params.char_e(ratio_phase(n, two_n * (t.M // N)))
        total = (total + val) % params.p
    return total


def _bound(x: list, names, i: int) -> int:
    """x[i], or UnboundVariable naming position i where it is None."""
    if x[i] is None:
        raise UnboundVariable(f"unbound variable {names[i]!r}")
    return x[i]


def _dot(v, x: list, names, start: int = 0) -> int:
    """sum of v[i] * x[i] over the nonzero v[i] with i >= start, checked in
    order by `_bound`."""
    total = 0
    for i in range(start, len(v)):
        if v[i]:
            total += v[i] * _bound(x, names, i)
    return total


_ONE = GaussCoeff.one()

MAX_TERMS = 1 << 12  # terms the expansion of one eliminate call may hold


class TermBudgetExceeded(ArithError):
    """Expanding an expression's products or sums would give more than MAX_TERMS terms."""


def _budget(count: int) -> None:
    if count > MAX_TERMS:
        raise TermBudgetExceeded(f"expansion would give {count} terms, more than the bound {MAX_TERMS}")


def _mul_terms(a: Term, b: Term) -> Term:
    """The product of two terms over the same positions; a phase-free
    factor (Q None) takes the other's phase."""
    coeff, guards = _times(a.coeff, b.coeff), a.guards + b.guards
    if a.Q is None or b.Q is None:
        t = b if a.Q is None else a
        return Term(coeff, t.Q, t.M, guards)
    if a.M == b.M:
        return Term(coeff, [list(map(add, u, v)) for u, v in zip(a.Q, b.Q)], a.M, guards)
    M = math.lcm(a.M, b.M)
    ka, kb = M // a.M, M // b.M
    return Term(coeff, [[ka * c + kb * d for c, d in zip(u, v)] for u, v in zip(a.Q, b.Q)], M, guards)


def _expand(e: Expr, params: Params, mode: str, dom: Domain, pos: dict[str, int]) -> list[Term]:
    """`e` as a sum of terms over the positions `pos` (a name's index, the
    constant last), each quantifier summed out by `gauss_sum`; a term of a
    structurally-zero sum (a declared zero, or a sum that telescopes to
    zero) is dropped."""
    kind = type(e)
    if kind is PhaseAtom:
        n = len(pos)
        Q = [[0] * (n + 1) for _ in range(n + 1)]
        for m, c in e.poly.coeffs:  # monomials are sorted: Q is upper triangular
            if len(m) == 2:
                Q[pos[m[0]]][pos[m[1]]] = c
            else:
                Q[pos[m[0]] if m else n][n] = c
        return [Term(_ONE, Q, dom.N, ())]
    if kind is Prod:
        terms = _expand(e.factors[0], params, mode, dom, pos) if e.factors else [Term(_ONE, None, dom.N, ())]
        for f in e.factors[1:]:
            expanded = _expand(f, params, mode, dom, pos)
            _budget(len(terms) * len(expanded))
            terms = [_mul_terms(t, u) for t in terms for u in expanded]
        return terms
    if kind is Quant:
        y, N, n1 = pos[e.var], dom.N, len(pos) + 1
        out = []
        for t in _expand(e.body, params, mode, dom, pos):
            if t.Q is None:
                t = t._replace(Q=[[0] * n1 for _ in range(n1)])
            res = gauss_sum(t, y, N, dom.tag, mode, params)
            if res.coeff.is_zero():
                continue
            if t.Q[y][y]:
                # residual phase (R - L^2/A)/2M, held over the boosted denominator
                g = math.gcd(res.M // N, *chain.from_iterable(res.Q))
                if g > 1:
                    res = res._replace(Q=[[c // g for c in row] for row in res.Q], M=res.M // g)
            if e.kind == "int":
                res = res._replace(coeff=_times(res.coeff, unit_normalization(params.m, dom.tag)))
            out.append(res)
        return out
    if kind is Plus:
        terms = []
        for term in e.terms:
            expanded = _expand(term, params, mode, dom, pos)
            _budget(len(terms) + len(expanded))
            terms += expanded
        return terms
    if kind is Const:
        return [Term(e.coeff, None, dom.N, ())]
    raise ArithError(f"cannot eliminate {kind.__name__}")


def eliminate(e: Expr, params: Params, mode: str = "extended") -> NormalForm:
    """Innermost-first quantifier elimination to a guarded, quantifier-free
    sum of Gaussian terms; eval-equivalent to the source expression.  Each
    name has one position for the whole expression (names in order, the
    constant last): a name free in one factor and bound in another shares
    it, since a summed position is zero in the sum's result."""
    tag, names = _scale(e)  # _scale also validates scoping
    dom = domain_of(params, tag)
    names = tuple(sorted(names))
    terms = _expand(e, params, mode, dom, {name: i for i, name in enumerate(names)})
    return NormalForm(tuple(t for t in terms if not t.coeff.is_zero()), names, dom)
