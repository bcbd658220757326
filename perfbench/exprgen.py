"""Random DSL expressions as text, for the `derive` and `verify` workloads.

The benchmark hands the program only the text; the program parses it.
Every expression stays inside the eliminable fragment by construction:

* each bound variable gets one quadratic phase atom whose coefficient
  keeps the summation period a multiple of 4 on both towers;
* couplings to the free variables x, y are even (the 2L structure);
* on the default tower's V domain, only the first two bound variables may
  be coupled, with coefficient +-2; elsewhere bound variables are not
  coupled to each other (other couplings can leave the fragment).

`refused_text` builds the out-of-fragment counterpart: a quadratic
coefficient of 5, whose period M/5 is not an integer on either tower
(5 does not divide p - 1, so no closed form exists in F_p).
"""

from __future__ import annotations

BOUND = ("r", "s", "w")
FREE = ("x", "y")


def poly_text(terms: list[tuple[str, int]]) -> str:
    """Render [(monomial, coefficient)] in the DSL's polynomial syntax."""
    parts = []
    for mono, c in terms:
        if c == 0:
            continue
        if mono:
            body = mono if abs(c) == 1 else f"{abs(c)}*{mono}"
        else:
            body = str(abs(c))
        parts.append(("- " if c < 0 else "+ ") + body)
    if not parts:
        return "0"
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def phase_atom(terms, domain: str) -> str:
    return f"e(({poly_text(terms)})/2N @{domain})"


def expr_text(rng, n_quant: int, domain: str, couple_bound: bool) -> str:
    bound = BOUND[:n_quant]
    pool = (-1, 1) if domain == "V" else (-1, -2, 1, 2, 4)
    atoms = []
    for i, v in enumerate(bound):
        terms = [(f"{v}^2", rng.choice(pool))]
        for w in FREE:
            if rng.random() < 0.5:
                terms.append((f"{v}*{w}", 2 * rng.randint(-2, 2)))
        if couple_bound and i == 0 and n_quant > 1 and rng.random() < 0.6:
            terms.append((f"{v}*{bound[1]}", 2 * rng.choice((-1, 1))))
        terms.append(("", rng.randint(-2, 2)))
        atoms.append(phase_atom(terms, domain))
    extra = []
    for w in FREE:
        if rng.random() < 0.5:
            extra.append(phase_atom([(w, rng.randint(-2, 2))], domain))
    coeffs = []
    if rng.random() < 0.4:
        coeffs.append(f"{rng.randint(1, 3)}/{rng.randint(1, 2)}")
    if rng.random() < 0.3:
        coeffs.append("j")
    if rng.random() < 0.3:
        coeffs.append("e8")
    text = " * ".join(coeffs + extra + atoms)
    for v in reversed(bound):
        text = f"{rng.choice(('sum', 'int'))} {v} . {text}"
    if rng.random() < 0.3:
        text = f"({text}) + {rng.randint(0, 2)}"
    return text


def refused_text(rng, domain: str) -> str:
    a = rng.choice((-5, 5))
    terms = [("r^2", a), ("r*x", 2 * rng.randint(-2, 2)), ("", rng.randint(-2, 2))]
    return f"sum r . {phase_atom(terms, domain)}"


def fixed_text(rng, n_quant: int, domain: str) -> str:
    """Fixed-shape expression (same atom count for every seed), so that the
    literal evaluation's cost does not depend on the seed."""
    bound = BOUND[:n_quant]
    pool = (-1, 1) if domain == "V" else (-1, -2, 1, 2, 4)
    atoms = []
    for v in bound:
        terms = [
            (f"{v}^2", rng.choice(pool)),
            (f"{v}*x", 2 * rng.choice((-2, -1, 1, 2))),
            (f"{v}*y", 2 * rng.choice((-2, -1, 1, 2))),
            ("", rng.randint(-2, 2)),
        ]
        atoms.append(phase_atom(terms, domain))
    text = " * ".join([f"{rng.randint(1, 3)}/2", phase_atom([("x", rng.randint(1, 2))], domain)] + atoms)
    for v in reversed(bound):
        text = f"sum {v} . {text}"
    return text
