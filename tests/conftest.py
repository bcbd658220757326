"""Hypothesis runs derandomized and without an example database, so each
property test draws the same examples on every run and the suite is
deterministic.  Per-test settings (max_examples, deadline) still apply."""

import pytest
from hypothesis import settings

from gausscalc.arith import Params, _p1_factorization, is_probable_prime, smallest_primitive_root

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def wide():
    """The m=2, k=1 tower over the smallest admissible prime above 2^31,
    where residues no longer fit int64 products."""
    modulus = 8 * 16
    c = (1 << 31) // modulus + 1
    while not is_probable_prime(modulus * c + 1):
        c += 1
    p = modulus * c + 1
    return Params(2, 1, p, smallest_primitive_root(p, _p1_factorization(p, modulus)))
