import random

import pytest

from gmforms.arith import jacobi, primes_up_to
from gmforms.represent import (
    BRUTEFORCE_CAP,
    Representation,
    cornacchia,
    represent_bruteforce,
)

G_47 = 140737471578113

SQUAREFREE_50 = [d for d in range(1, 51) if all(d % (k * k) for k in range(2, 8))]


class TestRepresentation:
    def test_validates_identity(self):
        with pytest.raises(ValueError):
            Representation(n=113, d=7, x=1, y=5)

    def test_rejects_zero_coordinates(self):
        with pytest.raises(ValueError):
            Representation(n=7, d=7, x=0, y=1)
        with pytest.raises(ValueError):
            Representation(n=9, d=7, x=3, y=0)


class TestCornacchia:
    def test_paper_rows(self):
        assert cornacchia(113, 7) == Representation(113, 7, 1, 4)
        assert cornacchia(G_47, 7) == Representation(G_47, 7, 5732351, 3925696)
        # d vs 2d: G_7 = 113 disagrees, G_47 agrees.
        assert cornacchia(113, 14) is None
        assert cornacchia(G_47, 14) is not None

    def test_no_solution(self):
        # 113 - 5y^2 for y in 1..4 is never a square.
        assert cornacchia(113, 5) is None
        # x, y >= 1 force n >= 1 + d, so n <= d has no representation.
        assert cornacchia(113, 113) is None
        assert cornacchia(113, 127) is None

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            cornacchia(112, 7)
        assert cornacchia(7, 7) is None
        with pytest.raises(ValueError):
            cornacchia(113, 0)

    def test_nonresidue_implies_absent(self):
        for n in primes_up_to(2000):
            if n <= 7 or n % 2 == 0:
                continue
            if cornacchia(n, 7) is not None:
                assert jacobi(-7, n) != -1


class TestBruteforce:
    def test_examples(self):
        assert represent_bruteforce(113, 7) == Representation(113, 7, 1, 4)
        assert represent_bruteforce(127, 7) == Representation(127, 7, 8, 3)
        # 7 = 0^2 + 7*1^2 has x = 0, which the positivity rule excludes.
        assert represent_bruteforce(7, 7) is None
        assert represent_bruteforce(2, 1) == Representation(2, 1, 1, 1)
        # Composite n: 8 = 1 + 7; 12 - 7 = 5 is no square.
        assert represent_bruteforce(8, 7) == Representation(8, 7, 1, 1)
        assert represent_bruteforce(12, 7) is None
        # G_13 = 8321 = 53 * 157
        assert represent_bruteforce(8321, 13) == Representation(8321, 13, 38, 23)
        assert represent_bruteforce(8321, 7) is None

    def test_cap(self):
        with pytest.raises(ValueError, match="brute-force cap"):
            represent_bruteforce(BRUTEFORCE_CAP + 1, 7)  # 73 * 137 * 99990001

    def test_invalid(self):
        with pytest.raises(ValueError):
            represent_bruteforce(0, 7)
        with pytest.raises(ValueError):
            represent_bruteforce(113, 0)

    def test_smallest_y_convention(self):
        # 65 = 1 + 64 = 49 + 16: brute force must return y = 1 first.
        assert represent_bruteforce(65, 1) == Representation(65, 1, 8, 1)

    def test_uniqueness_for_primes(self):
        # For prime n and d >= 2 there is at most one positive pair.
        for n in primes_up_to(2000):
            for d in (2, 3, 7, 10):
                count = 0
                y = 1
                while d * y * y < n:
                    x2 = n - d * y * y
                    x = int(x2**0.5)
                    while x * x < x2:
                        x += 1
                    if x * x == x2 and x > 0:
                        count += 1
                    y += 1
                assert count <= 1, (n, d)


class TestAgreement:
    def test_cornacchia_matches_bruteforce_sampled(self):
        # Full sweep to 10^5 lives in the acceptance suite.
        for n in primes_up_to(10**4):
            if n % 2 == 0:
                continue
            for d in SQUAREFREE_50:
                assert cornacchia(n, d) == represent_bruteforce(n, d), (n, d)

    def test_random_large_primes(self):
        rng = random.Random(7)
        primes = [n for n in range(10**5, 2 * 10**5) if all(n % p for p in primes_up_to(450))]
        for n in rng.sample(primes, 50):
            for d in (7, 14, 31):
                assert cornacchia(n, d) == represent_bruteforce(n, d), (n, d)

