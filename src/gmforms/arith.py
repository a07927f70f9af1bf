"""Arbitrary-precision number-theoretic kernel.

Everything here is exact integer arithmetic on Python ints; all functions are
pure and thread-safe.
"""

from __future__ import annotations

import math
from typing import Optional


def primes_up_to(limit: int) -> list[int]:
    """All primes <= limit by a plain sieve of Eratosthenes."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i, flag in enumerate(sieve) if flag]


_SMALL_PRIMES = primes_up_to(1000)
_SMALL_PRIME_SET = set(_SMALL_PRIMES)

# Deterministic Miller-Rabin witnesses for n < 3.3 * 10^24 (covers 2^64).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def mod_pow(base: int, exp: int, modulus: int) -> int:
    """base**exp mod modulus for modulus >= 1."""
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    if exp < 0:
        raise ValueError("exponent must be >= 0")
    return pow(base, exp, modulus)


def gcd(a: int, b: int) -> int:
    return math.gcd(a, b)


def integer_sqrt(n: int) -> tuple[int, bool]:
    """(floor(sqrt(n)), whether n is a perfect square)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    r = math.isqrt(n)
    return r, r * r == n


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 1; a may be negative.

    Equals the Legendre symbol when n is prime; 0 iff gcd(a, n) > 1.
    """
    if n < 1 or n % 2 == 0:
        raise ValueError("n must be odd and >= 1")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def sqrt_mod_prime(a: int, p: int) -> Optional[int]:
    """Square root of a modulo an odd prime p, or None when a is a non-residue.

    Returns the canonical representative r with 0 <= r <= (p - 1) // 2.
    p is caller-asserted prime; an even p is rejected.
    """
    if p < 3 or p % 2 == 0:
        raise ValueError("p must be an odd prime")
    a %= p
    if a == 0:
        return 0
    if jacobi(a, p) != 1:
        return None
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
    else:
        # Tonelli-Shanks.
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = 2
        while jacobi(z, p) != -1:
            z += 1
        m = s
        c = pow(z, q, p)
        t = pow(a, q, p)
        r = pow(a, (q + 1) // 2, p)
        while t != 1:
            t2 = t
            i = 0
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            b = pow(c, 1 << (m - i - 1), p)
            m = i
            c = b * b % p
            t = t * c % p
            r = r * b % p
    return min(r, p - r)


def _strong_probable_prime(n: int, base: int) -> bool:
    # n odd, n > 2, base reduced mod n.
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(base, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _selfridge_d(n: int) -> Optional[int]:
    # First D in 5, -7, 9, -11, ... with (D/n) = -1; None signals composite.
    d = 5
    while True:
        j = jacobi(d, n)
        if j == -1:
            return d
        if j == 0 and abs(d) != n:
            return None
        d = -d - 2 if d > 0 else -d + 2
        if abs(d) > 1000:
            # Unreachable for non-squares; squares are screened by the caller.
            raise ArithmeticError(f"no Lucas discriminant found for {n}")


def _strong_lucas_probable_prime(n: int) -> bool:
    # Strong Lucas test with Selfridge parameters (P = 1, Q = (1 - D) / 4).
    _, exact = integer_sqrt(n)
    if exact:
        return False
    d = _selfridge_d(n)
    if d is None:
        return False
    p_par, q_par = 1, (1 - d) // 4
    k, s = n + 1, 0
    while k % 2 == 0:
        k //= 2
        s += 1
    inv2 = (n + 1) // 2
    u, v, qk = 1, p_par, q_par % n
    for bit in bin(k)[3:]:
        u, v = u * v % n, (v * v - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            u, v = (p_par * u + v) * inv2 % n, (d * u + p_par * v) * inv2 % n
            qk = qk * q_par % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v = (v * v - 2 * qk) % n
        if v == 0:
            return True
        qk = qk * qk % n
    return False


def is_probable_prime(n: int) -> bool:
    """Primality test for arbitrary n: deterministic below 2^64, Baillie-PSW
    style above.

    Below 2^64 a fixed Miller-Rabin witness set gives a proven answer.  Above,
    a strong base-2 test plus a strong Lucas test; no composite is known to
    pass both.  The structured families have proofs instead: proth_test for
    Gaussian Mersenne norms, lucas_lehmer for Mersenne numbers.
    """
    if n < 2:
        return False
    if n <= _SMALL_PRIMES[-1]:
        return n in _SMALL_PRIME_SET
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return False
    if n < (_SMALL_PRIMES[-1] + 1) ** 2:
        return True
    if n < 1 << 64:
        return all(_strong_probable_prime(n, b) for b in _MR_BASES)
    return _strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n)


def proth_test(n: int) -> bool:
    """Prove or disprove primality of a Proth number n = k*2^m + 1, k odd,
    k < 2^m (Proth, 1878).

    With a the first base having Jacobi symbol (a/n) = -1, n is prime iff
    a^((n-1)/2) = -1 (mod n): Proth's theorem gives "if", Euler's criterion
    "only if".  Meeting (a/n) = 0 first means a shares a factor with n.
    Raises ValueError when n is not of Proth form.
    """
    m = ((n - 1) & (1 - n)).bit_length() - 1
    if n < 3 or (n - 1) >> m >= 1 << m:
        raise ValueError(f"{n} is not k*2^m + 1 with odd k < 2^m")
    a = 2
    while True:
        j = jacobi(a, n)
        if j == 0:
            return n == a
        if j == -1:
            return pow(a, (n - 1) // 2, n) == n - 1
        a += 1


def lucas_lehmer(p: int) -> bool:
    """Whether the Mersenne number 2^p - 1 is prime, for odd p >= 3
    (Lucas-Lehmer; Lehmer, 1930).

    s_0 = 4, s_{i+1} = s_i^2 - 2, and 2^p - 1 is prime iff s_{p-2} = 0 mod
    2^p - 1.  A zero residue proves primality for any odd p >= 3, and 2^p - 1
    is composite when p is, so the answer is exact for composite p as well.
    Reduction uses 2^p = 1: fold the high bits onto the low ones.
    """
    if p < 3 or p % 2 == 0:
        raise ValueError("p must be odd and >= 3")
    m = (1 << p) - 1
    s = 4
    for _ in range(p - 2):
        s = s * s + m - 2  # + m keeps s >= 0 when s < 2
        while s > m:
            s = (s & m) + (s >> p)
    return s in (0, m)
