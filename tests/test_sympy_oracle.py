"""Independent cross-check of the primality proofs against sympy.

Test-only: skipped when sympy is not installed; gmforms never imports it.
"""

import pytest

from gmforms.arith import lucas_lehmer
from gmforms.gm import gm_norm

sympy = pytest.importorskip("sympy")

#: OEIS A057429 (Gaussian Mersenne prime exponents) in [3, 2000].
A057429 = (3, 5, 7, 11, 19, 29, 47, 73, 79, 113, 151, 157, 163, 167, 239, 241,
           283, 353, 367, 379, 457, 997, 1367)
#: Exponents with composite G_p, small and large.
COMPOSITE_G = (13, 17, 23, 31, 37, 101, 499, 1009, 1361, 1999)


@pytest.mark.parametrize("p", A057429 + COMPOSITE_G)
def test_gm_norm_agrees_with_sympy(p):
    norm = gm_norm(p)
    assert (norm.primality != "composite") == sympy.isprime(norm.value)
    assert (p in A057429) == sympy.isprime(norm.value)


@pytest.mark.parametrize("p", (607, 1279, 2203))
def test_lucas_lehmer_agrees_with_sympy(p):
    assert lucas_lehmer(p) == sympy.isprime((1 << p) - 1)
