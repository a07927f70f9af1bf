"""Arbitrary-precision number-theoretic kernel.

Everything here is exact integer arithmetic on Python ints; all functions are
pure and thread-safe.
"""

from __future__ import annotations

import math
from typing import Callable, Optional


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

# Moduli shorter than this keep builtin pow and %: below it one interpreted
# fold costs more than the long division it replaces.
_FOLD_MIN_BITS = 700


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


def _fold_mod(n: int) -> Optional[Callable[[int], int]]:
    """A shift-and-add reduction for n = 2^k - eps*2^h + 1, eps = +-1,
    1 <= h <= k/2 + 1; None for any other n and below _FOLD_MIN_BITS.

    Gaussian Mersenne norms (k = p, h = (p+1)/2, eps = (2/p)) and Mersenne
    numbers (k = p, h = 1, eps = 1) have this shape.  The shape is read off
    n - 1 = 2^h * r: r + 1 a power of two gives eps = 1, r - 1 one gives
    eps = -1.  The returned map takes any int x to a y = x (mod n) with
    |y| < 2^(k+1), possibly negative, using 2^k = eps*2^h - 1 (mod n); apply
    it after every product so that operands stay that short.
    """
    if n.bit_length() < _FOLD_MIN_BITS:
        return None
    h = ((n - 1) & (1 - n)).bit_length() - 1
    r = (n - 1) >> h
    for eps, s in ((1, r + 1), (-1, r - 1)):
        k = h + s.bit_length() - 1
        if s > 0 and s & (s - 1) == 0 and 1 <= h <= k // 2 + 1:
            break
    else:
        return None
    mask = (1 << k) - 1

    def fold(x: int) -> int:
        # Test the length, not x >> k, which stays -1 for negative x.
        while x.bit_length() > k + 1:
            hi = x >> k
            if eps > 0:
                x = (x & mask) - hi + (hi << h)
            else:
                x = (x & mask) - hi - (hi << h)
        return x

    return fold


def _powmod(a: int, e: int, n: int) -> int:
    """pow(a, e, n) for e >= 0, n > 1, by square-and-multiply with _fold_mod
    when n has its shape; builtin pow otherwise."""
    fold = _fold_mod(n)
    if fold is None:
        return pow(a, e, n)
    a %= n
    x = a if e else 1
    for bit in bin(e)[3:]:
        x = fold(x * x)
        if bit == "1":
            x = fold(x * a)
    return x % n


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
    p is caller-asserted prime.  ValueError for an even p, and for a p shown
    composite: an odd square, or a computed root failing r^2 = a (mod p).

    p = 3 (mod 4) takes a^((p+1)/4).  Otherwise Cipolla (1903; Cohen, A
    Course in Computational Algebraic Number Theory, 1.5): with the first
    t >= 1 making w = t^2 - a a non-residue, (t + sqrt(w))^((p+1)/2) in
    F_p[sqrt(w)] is a root of a.  Its cost is O(log p) multiplications
    whatever the 2-adic valuation of p - 1, which is (p+1)/2 bits for a
    Gaussian Mersenne norm G_p and makes Tonelli-Shanks quadratic there.
    """
    if p < 3 or p % 2 == 0:
        raise ValueError("p must be an odd prime")
    a %= p
    if a == 0:
        return 0
    if jacobi(a, p) != 1:
        return None
    if p % 4 == 3:
        r = _powmod(a, (p + 1) // 4, p)
    else:
        if math.isqrt(p) ** 2 == p:
            # Every unit has Jacobi symbol 1: the search for t would not end.
            raise ValueError(f"{p} is not prime")
        t = 1
        while jacobi(t * t - a, p) != -1:
            t += 1
        w = (t * t - a) % p
        fold = _fold_mod(p) or (lambda v: v % p)
        x, y = t, 1  # x + y*sqrt(w), left-to-right powering
        for bit in bin((p + 1) // 2)[3:]:
            x, y = fold(x * x + w * y * y), fold(2 * x * y)
            if bit == "1":
                x, y = fold(t * x + w * y), fold(x + t * y)
        r = x % p
    if r * r % p != a:
        raise ValueError(f"{p} is not prime")
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
            return _powmod(a, (n - 1) // 2, n) == n - 1
        a += 1


def lucas_lehmer(p: int) -> bool:
    """Whether the Mersenne number 2^p - 1 is prime, for odd p >= 3
    (Lucas-Lehmer; Lehmer, 1930).

    s_0 = 4, s_{i+1} = s_i^2 - 2, and 2^p - 1 is prime iff s_{p-2} = 0 mod
    2^p - 1.  A zero residue proves primality for any odd p >= 3, and 2^p - 1
    is composite when p is, so the answer is exact for composite p as well.
    Large p reduce by _fold_mod, which folds the high bits onto the low ones.
    """
    if p < 3 or p % 2 == 0:
        raise ValueError("p must be odd and >= 3")
    m = (1 << p) - 1
    fold = _fold_mod(m) or (lambda v: v % m)
    s = 4
    for _ in range(p - 2):
        s = fold(s * s - 2)
    return s % m == 0
