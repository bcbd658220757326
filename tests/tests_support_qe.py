"""Shared random-expression generator for the quantifier-elimination checks.

Expressions stay inside the eliminable fragment by construction: quadratic
coefficients of bound variables drawn so the summation period divides the
domain (and is a multiple of 4), couplings to other variables even, one
quadratic atom per bound variable."""

import random
from fractions import Fraction

from gausscalc.frontend import E8Atom, JAtom, PhaseAtom, Plus, Poly, Prod, Quant, Rat


def random_expression(rng: random.Random, n_quant: int, domain: str, frees=("x", "y")):
    bound = [f"q{i}" for i in range(n_quant)]
    quadratic_pool = (-1, 1) if domain == "V" else (-1, -2, 1, 2, 4)
    atoms = []
    for i, v in enumerate(bound):
        terms = {(v, v): rng.choice(quadratic_pool)}
        partners = list(frees) + bound[i + 1:]
        for w in rng.sample(partners, k=rng.randint(0, min(2, len(partners)))):
            terms[tuple(sorted((v, w)))] = 2 * rng.randint(-2, 2)
        terms[()] = rng.randint(-2, 2)
        atoms.append(PhaseAtom(Poly.from_dict(terms), domain))
    extra = []
    for w in frees:
        if rng.random() < 0.5:
            extra.append(PhaseAtom(Poly.from_dict({(w,): rng.randint(-2, 2)}), domain))
    coeffs = []
    if rng.random() < 0.4:
        coeffs.append(Rat(Fraction(rng.randint(1, 3), rng.randint(1, 2))))
    if rng.random() < 0.3:
        coeffs.append(JAtom())
    if rng.random() < 0.3:
        coeffs.append(E8Atom())
    parts = coeffs + extra + atoms
    body = parts[0] if len(parts) == 1 else Prod(tuple(parts))
    expr = body
    for v in reversed(bound):
        expr = Quant(rng.choice(["sum", "int"]), v, expr)
    if rng.random() < 0.3:
        expr = Plus((expr, Rat(Fraction(rng.randint(0, 2)))))
    return expr
