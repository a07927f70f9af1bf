"""Independent cross-check of the primality proofs and square roots against
sympy.

Test-only: skipped when sympy is not installed; gmforms never imports it.
"""

import random

import pytest

from gmforms.arith import is_probable_prime, lucas_lehmer, sqrt_mod_prime
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


@pytest.mark.parametrize("p", [p for p in A057429 if p <= 457])
def test_sqrt_mod_agrees_with_sympy(p):
    g = gm_norm(p).value
    for d in (7, 31, 55, 79, 103, 127):
        r = sympy.sqrt_mod(-d, g)
        assert sqrt_mod_prime(-d, g) == (None if r is None else min(r, g - r)), d


def test_is_probable_prime_agrees_with_sympy_below_2_81():
    # Odd n from 20 to 81 bits, log-uniform, so every size past the
    # trial-division shortcut gets its share, up to the last bit length
    # wholly below psi_13 (~2^81.5), where Miller-Rabin stops being exact.
    rng = random.Random(2014)
    sample = []
    while len(sample) < 2000:
        n = rng.getrandbits(rng.randint(20, 81)) | 1
        if n >= 10**6:
            sample.append(n)
    assert sum(map(sympy.isprime, sample)) > 100
    for n in sample:
        assert is_probable_prime(n) == sympy.isprime(n), n
