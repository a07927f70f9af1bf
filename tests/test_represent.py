import random

import pytest

from gmforms import represent
from gmforms.arith import jacobi, primes_up_to
from gmforms.represent import (
    BRUTEFORCE_CAP,
    Representation,
    cornacchia,
    represent_bruteforce,
    solve,
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

    def test_no_solution(self):
        # 113 - 5y^2 for y in 1..4 is never a square.
        assert cornacchia(113, 5) is None

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            cornacchia(112, 7)
        with pytest.raises(ValueError):
            cornacchia(7, 7)
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

    def test_cap(self):
        with pytest.raises(ValueError):
            represent_bruteforce(BRUTEFORCE_CAP + 1, 7)

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
                if n <= d:
                    continue
                assert cornacchia(n, d) == represent_bruteforce(n, d), (n, d)

    def test_random_large_primes(self):
        rng = random.Random(7)
        primes = [n for n in range(10**5, 2 * 10**5) if all(n % p for p in primes_up_to(450))]
        for n in rng.sample(primes, 50):
            for d in (7, 14, 31):
                assert cornacchia(n, d) == represent_bruteforce(n, d), (n, d)


class TestSolve:
    @pytest.fixture
    def route(self, monkeypatch):
        """The names of the solvers that solve calls, in call order."""
        taken = []
        for name in ("cornacchia", "represent_bruteforce"):
            def spy(n, d, name=name, solver=getattr(represent, name)):
                taken.append(name)
                return solver(n, d)
            monkeypatch.setattr(represent, name, spy)
        return taken

    def test_prime_above_d_uses_cornacchia(self, route):
        assert solve(G_47, 7, True) == Representation(G_47, 7, 5732351, 3925696)
        assert route == ["cornacchia"]

    def test_composite_uses_bruteforce(self, route):
        # G_13 = 8321 = 53 * 157
        assert solve(8321, 13, False) == Representation(8321, 13, 38, 23)
        assert solve(8321, 7, False) is None
        assert route == ["represent_bruteforce"] * 2

    def test_prime_not_above_d_uses_bruteforce(self, route):
        assert solve(7, 7, True) is None
        assert solve(2, 1, True) == Representation(2, 1, 1, 1)
        assert route == ["represent_bruteforce"] * 2

    def test_composite_above_cap_rejected(self):
        with pytest.raises(ValueError, match="brute-force cap"):
            solve(BRUTEFORCE_CAP + 1, 7, False)  # 10^12 + 1 = 73 * 137 * 99990001


class TestRepresentable:
    def test_examples(self):
        assert solve(113, 7, True) is not None
        assert solve(113, 14, True) is None
        assert solve(G_47, 14, True) is not None

    def test_composite_routes_to_bruteforce(self):
        assert solve(8, 7, False) is not None  # 1 + 7
        assert solve(12, 7, False) is None

    def test_invalid(self):
        with pytest.raises(ValueError):
            solve(0, 7, False)
        with pytest.raises(ValueError):
            solve(113, 0, True)
