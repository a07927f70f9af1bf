import random

import pytest

from gmforms.arith import (
    gcd,
    integer_sqrt,
    is_probable_prime,
    jacobi,
    lucas_lehmer,
    mod_pow,
    primes_up_to,
    proth_test,
    sqrt_mod_prime,
)

G_47 = 140737471578113


def slow_pow(base, exp, modulus):
    # Repeated-squaring oracle, written independently of mod_pow.
    result = 1 % modulus
    base %= modulus
    for bit in bin(exp)[2:]:
        result = result * result % modulus
        if bit == "1":
            result = result * base % modulus
    return result


class TestModPow:
    def test_examples(self):
        assert mod_pow(2, 7, 113) == 15
        assert mod_pow(2, 47, 7) == 4
        assert mod_pow(2, 47, 7) == slow_pow(2, 47, 7)

    def test_zero_exponent(self):
        for x in (0, 1, 5, 12345):
            assert mod_pow(x, 0, 7) == 1
        assert mod_pow(3, 0, 1) == 0

    def test_zero_modulus_rejected(self):
        with pytest.raises(ValueError):
            mod_pow(2, 3, 0)

    def test_fermat_little_theorem(self):
        rng = random.Random(1)
        for p in primes_up_to(10**4):
            a = rng.randrange(1, 10**6)
            if a % p:
                assert mod_pow(a, p - 1, p) == 1

    def test_matches_slow_oracle_random(self):
        rng = random.Random(2)
        for _ in range(200):
            b = rng.randrange(0, 1 << 64)
            e = rng.randrange(0, 1 << 20)
            m = rng.randrange(1, 1 << 40)
            assert mod_pow(b, e, m) == slow_pow(b, e, m)


class TestJacobi:
    def test_examples(self):
        assert jacobi(2, 7) == 1
        assert jacobi(-7, G_47) == 1
        assert jacobi(6, 9) == 0
        assert jacobi(15, 35) == 0

    def test_even_or_zero_n_rejected(self):
        with pytest.raises(ValueError):
            jacobi(3, 8)
        with pytest.raises(ValueError):
            jacobi(3, 0)

    def test_multiplicativity(self):
        rng = random.Random(3)
        for _ in range(500):
            n = rng.randrange(1, 10**6) * 2 + 1
            a = rng.randrange(-10**6, 10**6)
            b = rng.randrange(-10**6, 10**6)
            assert jacobi(a * b, n) == jacobi(a, n) * jacobi(b, n)

    def test_euler_criterion(self):
        rng = random.Random(4)
        for p in primes_up_to(10**4):
            if p == 2:
                continue
            for a in (2, -1, rng.randrange(0, p), rng.randrange(0, 10**9)):
                euler = pow(a, (p - 1) // 2, p)
                assert jacobi(a, p) == (euler if euler <= 1 else -1)

    def test_second_supplement(self):
        for n in range(1, 500, 2):
            expected = 1 if n % 8 in (1, 7) else -1
            if gcd(2, n) == 1:
                assert jacobi(2, n) == expected


class TestSqrtModPrime:
    def test_examples(self):
        assert sqrt_mod_prime(0, 113) == 0
        r = sqrt_mod_prime(106, 113)
        assert r is not None and r <= 56 and r * r % 113 == 106
        # 106 = -7 mod 113 is a residue: 113 = 1^2 + 7*4^2
        assert sqrt_mod_prime(3, 7) is None

    def test_even_p_rejected(self):
        with pytest.raises(ValueError):
            sqrt_mod_prime(1, 8)

    def test_exhaustive_small_primes(self):
        for p in primes_up_to(500):
            if p == 2:
                continue
            squares = {a * a % p for a in range(p)}
            for a in range(p):
                r = sqrt_mod_prime(a, p)
                if a in squares:
                    assert r is not None and r * r % p == a
                    assert r <= (p - 1) // 2
                else:
                    assert r is None
                    assert jacobi(a, p) == -1

    def test_big_prime(self):
        r = sqrt_mod_prime((-7) % G_47, G_47)
        assert r is not None and r * r % G_47 == (-7) % G_47


class TestIntegerSqrt:
    def test_examples(self):
        assert integer_sqrt(16) == (4, True)
        assert integer_sqrt(15) == (3, False)
        assert integer_sqrt(3925696**2) == (3925696, True)
        assert integer_sqrt(0) == (0, True)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            integer_sqrt(-1)

    def test_floor_property(self):
        rng = random.Random(5)
        for _ in range(1000):
            n = rng.randrange(0, 1 << 128)
            r, exact = integer_sqrt(n)
            assert r * r <= n < (r + 1) * (r + 1)
            assert exact == (r * r == n)


class TestGcd:
    def test_examples(self):
        assert gcd(8, 12) == 4
        assert gcd(17, 0) == 17
        assert gcd(0, 0) == 0
        assert gcd(G_47, 14) == 1


class TestIsProbablePrime:
    def test_examples(self):
        assert is_probable_prime(113)
        assert is_probable_prime(G_47)
        assert is_probable_prime(2113)  # G_11
        assert not is_probable_prime(2047)  # 2^11 - 1 = 23 * 89

    def test_agrees_with_sieve(self):
        primes = set(primes_up_to(10**6))
        for n in range(10**6):
            assert is_probable_prime(n) == (n in primes), n

    def test_large_values(self):
        g_113 = 10384593717069655112945804582584321
        assert is_probable_prime(g_113)
        assert not is_probable_prime(g_113 * 113)
        assert not is_probable_prime((1 << 128) - 1)
        # Perfect squares above 2^64 exercise the Lucas pre-screen.
        assert not is_probable_prime(((1 << 40) + 15) ** 2)


def is_proth_form(n):
    # Independent of proth_test's bit tricks: strip factors of 2 one by one.
    if n < 3:
        return False
    k, m = n - 1, 0
    while k % 2 == 0:
        k //= 2
        m += 1
    return k < 2**m


class TestProthTest:
    def test_examples(self):
        assert proth_test(3) and proth_test(13) and proth_test(113)
        assert proth_test(G_47)
        assert not proth_test(9)  # (3/9) = 0
        assert not proth_test(8321)  # G_13 = 53 * 157

    def test_agrees_with_sieve(self):
        primes = set(primes_up_to(10**5))
        proth = [n for n in range(10**5) if is_proth_form(n)]
        assert len(proth) > 400
        for n in proth:
            assert proth_test(n) == (n in primes), n

    def test_non_proth_rejected(self):
        for n in range(-2, 2000):
            if not is_proth_form(n):
                with pytest.raises(ValueError):
                    proth_test(n)
        with pytest.raises(ValueError):
            proth_test((1 << 128) - 1)


class TestLucasLehmer:
    def test_examples(self):
        assert lucas_lehmer(3) and lucas_lehmer(7) and lucas_lehmer(127)
        assert not lucas_lehmer(11)  # 2047 = 23 * 89
        assert not lucas_lehmer(9)  # composite exponent

    def test_even_or_small_p_rejected(self):
        for bad in (-1, 0, 1, 2, 4):
            with pytest.raises(ValueError):
                lucas_lehmer(bad)

    def test_agrees_with_bpsw_oracle(self):
        for p in primes_up_to(1300)[1:]:
            assert lucas_lehmer(p) == is_probable_prime((1 << p) - 1), p
