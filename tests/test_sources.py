"""Checks on the source text of src/gausscalc.

pyproject.toml declares Python >= 3.10, so every module must parse under
the 3.10 grammar whatever interpreter runs the suite.  No module may touch
the private attributes of fractions.Fraction: they differ between Python
versions (3.12 dropped the `_normalize` argument of `Fraction.__new__` and
added `Fraction._from_coprime_ints`), so the integer-pair coefficients and
phases read `numerator`/`denominator` only.  Imports sit at module level:
none inside a function body.  `hilbert` turns guards into a state's coset
by one route: one function calls `gauss._guard_coset`, and
`gauss.merge_cosets` is not imported.  `frontend`, `dynamics`, `wick`
and `climit` read no `N_v` or `N_u` attribute: they take a domain's size
from `hilbert.Domain` (`domain_v`, `domain_u`, `domain_of`).  No numpy
`take` passes a `mode`: `mode="wrap"` reads like a free `% 2M`, but numpy
wraps each index in a loop of its own, far slower than one `%` on the
whole vector.  Every backticked `<module>.<name>`
in README.md and in the modules (with or without a `gausscalc.` prefix)
names an attribute the module has, so a deleted name leaves no stale
reference behind.  Every public top-level function or class of the
package, and every public method of a public class, is referenced from
the package or from the benchmark in perfbench, tests aside, but for a
short allow-list of names kept for work still to come.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gausscalc"
MODULES = sorted(SRC.glob("*.py"))
README = SRC.parent.parent / "README.md"
PERFBENCH = sorted((SRC.parent.parent / "perfbench").glob("*.py"))
FRACTION_INTERNALS = {"_numerator", "_denominator", "_from_coprime_ints", "_normalize"}


def test_the_package_has_modules():
    assert {p.name for p in MODULES} >= {"__init__.py", "arith.py", "coeffring.py", "gauss.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_parses_under_the_python_3_10_grammar(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_touches_no_fraction_internals(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)  # getattr(x, "_numerator")
    assert not names & FRACTION_INTERNALS


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_nothing_inside_a_function(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    functions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    nested = sorted({node.lineno for fn in ast.walk(tree) if isinstance(fn, functions)
                     for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))})
    assert not nested


def test_hilbert_has_one_route_from_guards_to_a_coset():
    tree = ast.parse((SRC / "hilbert.py").read_text(encoding="utf-8"))
    callers = {fn.name for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
               for node in ast.walk(fn) if isinstance(node, ast.Call)
               and isinstance(node.func, ast.Name) and node.func.id == "_guard_coset"}
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert len(callers) == 1, callers
    assert "merge_cosets" not in imported


@pytest.mark.parametrize("name", ["frontend", "dynamics", "wick", "climit"])
def test_domain_sizes_come_from_hilbert_domain(name):
    tree = ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
    reads = sorted(node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and node.attr in ("N_v", "N_u"))
    assert not reads


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_take_passes_a_mode(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    # mode is np.take's fifth positional argument and ndarray.take's fourth
    calls = sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
                   and isinstance(node.func, (ast.Attribute, ast.Name))
                   and getattr(node.func, "attr", getattr(node.func, "id", None)) == "take"
                   and (any(kw.arg == "mode" for kw in node.keywords)
                        or len(node.args) >= (5 if _is_numpy_function(node.func) else 4)))
    assert not calls


def _is_numpy_function(func) -> bool:
    """Whether func is `take` itself or `np.take` / `numpy.take`, not a method."""
    return isinstance(func, ast.Name) or (isinstance(func.value, ast.Name) and func.value.id in ("np", "numpy"))


def test_backticked_module_names_resolve():
    names = "|".join(p.stem for p in MODULES if p.stem != "__init__")
    ref = re.compile(rf"`+(?:gausscalc\.)?({names})\.(\w+)")
    refs = [(path.name, *m.groups()) for path in [README, *MODULES] for m in ref.finditer(path.read_text(encoding="utf-8"))]
    stale = [r for r in refs if not hasattr(importlib.import_module(f"gausscalc.{r[1]}"), r[2])]
    assert refs and not stale, stale


# public names that no caller outside the tests uses yet, each kept for the
# ROADMAP work that needs it
AWAITING_CALLERS = {
    "climit.lm_state": "item 10: the limit map through which lm(P(t) s) meets the continuum evolution",
    "climit.ho_compose_closed": "acceptance criterion 10 checks the oscillator composition law against it",
    "dynamics.quadratic_phase_operator": "items 10 and 11: the kick Q of Q(a)P(t)Q(a), the quarter-period oscillator",
    "hilbert.identity_operator": "items 5 and 11: the targets wick(I_U) = I_V and P(t)P(-t) = I",
}


def test_every_public_name_has_a_caller_outside_tests():
    # a public method counts as called where its name is referenced at all
    refs, public = set(), []
    for path in MODULES + PERFBENCH:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
        if path in MODULES:
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                    public.append((f"{path.stem}.{node.name}", node.name))
                    methods = node.body if isinstance(node, ast.ClassDef) else ()
                    public += [(f"{path.stem}.{node.name}.{fn.name}", fn.name) for fn in methods
                               if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")]
    # an allow-listed name that gains a caller leaves the list
    uncalled = sorted(qual for qual, name in public if name not in refs)
    assert uncalled == sorted(AWAITING_CALLERS), uncalled
