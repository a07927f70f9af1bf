"""Arbitrary-precision number-theoretic kernel.

Everything here is exact integer arithmetic on Python ints; all functions are
pure and thread-safe.  Every primality verdict is a proof: proth_test for
Gaussian Mersenne norms G_p, lucas_lehmer for Mersenne numbers M_p, and for
any other n below psi_13 = 3317044064679887385961981 is_probable_prime,
trial division then Miller-Rabin on the first 13 prime bases, which raises
ValueError at or above psi_13.
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

# Moduli shorter than this keep builtin pow and %: below it one interpreted
# fold costs more than the long division it replaces.
_FOLD_MIN_BITS = 500


def _fold_mod(n: int) -> Optional[Callable[[int], int]]:
    """A shift-and-add reduction for the two moduli the audit builds, or None.

    They are Mersenne numbers M_k = 2^k - 1 (k >= 70) and Gaussian Mersenne
    norms n = 2^k - eps*2^h + 1, 2h = k + 1, eps = +-1 (h >= 70); any other
    n, and any n under _FOLD_MIN_BITS, gets None.  The map takes an x with
    |x| < 2^(2k+70), such as a product of two folded values, to a y = x
    (mod n), possibly negative, with |y| < 2^(k+2); apply it after every
    product.

    M_k: 2^k = 1, so x <- (x mod 2^k) + (x >> k), twice.  The first pass
    leaves -2^(k+70) <= x < 2^(k+71), the second -2^70 <= y < 2^k + 2^71.
    G_p: n * (2^k + eps*2^h + 1) = 2^(2k) + 1, so 2^(2k) = -1 and
    2^(k+h) = 2^h - 2*eps (mod n).  With x = x0 + x1*2^k + x2*2^(k+h) +
    x3*2^(2k), where 0 <= x0 < 2^k, 0 <= x1 < 2^h, 0 <= x2 < 2^(h-1) and
    |x3| <= 2^70, x = y = x0 - x1 - x3 + (eps*x1 + x2)*2^h - 2*eps*x2.  As
    -2^h < eps*x1 + x2 <= 2^h + 2^(h-1) - 2,
    -2^(k+1) - 2^h - 2^70 < y <= 2^(k+2) - 2^h + 2^70 - 3, inside 2^(k+2).
    """
    k = n.bit_length()
    if k < _FOLD_MIN_BITS:
        return None
    if n & (n + 1) == 0 and k >= 70:

        def fold_mersenne(x: int) -> int:
            x = (x & n) + (x >> k)
            return (x & n) + (x >> k)

        return fold_mersenne
    h = ((n - 1) & (1 - n)).bit_length() - 1
    k = 2 * h - 1
    if h < 70 or n not in ((1 << k) - (1 << h) + 1, (1 << k) + (1 << h) + 1):
        return None
    k2, kh = 2 * k, k + h
    mask, mask_h, mask_l = (1 << k) - 1, (1 << h) - 1, (1 << (h - 1)) - 1

    def fold_plus(x: int) -> int:
        x1, x2 = (x >> k) & mask_h, (x >> kh) & mask_l
        return (x & mask) - x1 - (x >> k2) + ((x1 + x2) << h) - (x2 << 1)

    def fold_minus(x: int) -> int:
        x1, x2 = (x >> k) & mask_h, (x >> kh) & mask_l
        return (x & mask) - x1 - (x >> k2) + ((x2 - x1) << h) + (x2 << 1)

    return fold_plus if n < 1 << k else fold_minus


def _squarings(x: int, j: int, fold: Callable[[int], int]) -> int:
    """x^(2^j) for j >= 0 and |x| < n, up to a multiple of n, by j squares
    each reduced by fold = _fold_mod(n), which must not be None."""
    for _ in range(j):
        x = fold(x * x)
    return x


def _lucas_v(c: int, m: int, n: int) -> int:
    """V_m of V(c, 1) for m >= 1 and |c| < n, up to a multiple of n.

    V_0 = 2, V_1 = c, V_{i+1} = c*V_i - V_{i-1}.  A ladder over the odd
    part of m keeps (V_i, V_{i+1}) by V_2i = V_i^2 - 2 and V_{2i+1} =
    V_i*V_{i+1} - c, one square and one product per bit; then V <- V^2 - 2
    once per factor 2 of m.  Products reduce by _fold_mod(n) when n has its
    shape.
    """
    fold = _fold_mod(n) or (lambda x: x % n)
    z = (m & -m).bit_length() - 1
    v, w = c, fold(c * c - 2)  # V_j, V_{j+1} for j = 1
    for bit in bin(m >> z)[3:]:
        if bit == "1":
            v, w = fold(v * w - c), fold(w * w - 2)
        else:
            v, w = fold(v * v - 2), fold(v * w - c)
    for _ in range(z):
        v = fold(v * v - 2)
    return v


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
    p is caller-asserted prime.  ValueError for an even p, and ArithmeticError
    (a failed proof, not bad input) for a p shown composite: an odd square, a
    t below sharing a factor with p, or a computed root failing r^2 = a (mod p).

    p = 3 (mod 4) takes a^((p+1)/4).  Otherwise Mueller's Lucas-sequence root
    (S. Mueller, "On the computation of square roots in finite fields",
    Des. Codes Cryptogr. 31, 2004): with the first t >= 1 making
    (a*t^2 - 4 / p) = -1 and c = a*t^2 - 2, V_{(p-1)/4}(c, 1) = t*sqrt(a).
    Why: for alpha a root of X^2 - cX + 1, c^2 - 4 = a*t^2*(a*t^2 - 4) is a
    non-residue, so alpha lies outside F_p and alpha^p = 1/alpha.  Raising
    (alpha + 1)^2 = a*t^2*alpha to the power (p+1)/2, with
    (alpha + 1)^(p+1) = (alpha + 1)(1/alpha + 1) = a*t^2 a residue, gives
    alpha^((p+1)/2) = 1.  So V_{(p-1)/2} = 1/alpha + alpha = c and
    V_{(p-1)/4}^2 = V_{(p-1)/2} + 2 = a*t^2.  _lucas_v pays one square per
    factor 2 of (p-1)/4, and for a Gaussian Mersenne norm G_p those are half
    the bits, where powering in F_p[sqrt(w)] pays two squares and a product
    on every bit, and Tonelli-Shanks is quadratic in their number.
    """
    if p < 3 or p % 2 == 0:
        raise ValueError("p must be an odd prime")
    a %= p
    if a == 0:
        return 0
    if jacobi(a, p) != 1:
        return None
    if p % 4 == 3:
        # The one folded shape = 3 (mod 4) is M_k, where (p+1)/4 = 2^(k-2).
        fold = _fold_mod(p)
        if fold is None:
            r = pow(a, (p + 1) // 4, p)
        else:
            r = _squarings(a, p.bit_length() - 2, fold) % p
    else:
        if math.isqrt(p) ** 2 == p:
            # Every unit has Jacobi symbol 1: the search for t would not end.
            raise ArithmeticError(f"{p} is not prime")
        t = 1
        while jacobi(a * t * t - 4, p) != -1:
            t += 1
        v = _lucas_v((a * t * t - 2) % p, (p - 1) >> 2, p)
        try:
            r = v * pow(t, -1, p) % p
        except ValueError:
            raise ArithmeticError(f"{p} is not prime") from None
    if r * r % p != a:
        raise ArithmeticError(f"{p} is not prime")
    return min(r, p - r)


#: The first 13 prime bases, and psi_13, the least odd composite that is a
#: strong probable prime to all of them (Sorenson and Webster, "Strong
#: pseudoprimes to twelve prime bases", Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981


def is_probable_prime(n: int) -> bool:
    """Exact primality for n < psi_13 = 3317044064679887385961981.

    Trial division by the primes below 1000 decides every n < 998^2 and any
    n with a factor below 1000; past it, n is prime iff it is a strong
    probable prime to each of the first 13 prime bases, 2 to 41
    (deterministic Miller-Rabin), as no composite below psi_13 passes all 13
    (Sorenson and Webster, 2017).  Any other n >= psi_13 raises ValueError:
    psi_13 itself passes every base.  The audited families have their own
    proofs: proth_test for Gaussian Mersenne norms, lucas_lehmer for
    Mersenne numbers.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < (_SMALL_PRIMES[-1] + 1) ** 2:
        return True
    if n >= _PSI_13:
        raise ValueError(f"{n} is not below psi_13 = {_PSI_13}, "
                         "the bound of the exact primality test")
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


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
    if math.isqrt(n) ** 2 == n:
        # Every unit has (a/n) = 1: the search for a runs to n's least prime.
        return False
    a = 2
    while True:
        j = jacobi(a, n)
        if j == 0:
            return n == a
        if j == -1:
            fold = _fold_mod(n)
            if fold is None:
                return pow(a, (n - 1) // 2, n) == n - 1
            # The folded Proth shape is n = 2^(2m-1) - eps*2^m + 1, where
            # (n-1)/2 = 2^(2m-2) - eps*2^(m-1), and a is a unit.
            y = _squarings(a, m - 1, fold)
            z = _squarings(y, m - 1, fold)
            return (z + y if n < 1 << (2 * m - 1) else z * y + 1) % n == 0
        a += 1


def lucas_lehmer(p: int) -> bool:
    """Whether the Mersenne number 2^p - 1 is prime, for odd p >= 3
    (Lucas-Lehmer; Lehmer, 1930).

    s_0 = 4, s_{i+1} = s_i^2 - 2, and 2^p - 1 is prime iff s_{p-2} = 0 mod
    2^p - 1.  A zero residue proves primality for any odd p >= 3, and 2^p - 1
    is composite when p is, so the answer is exact for composite p as well.
    s_i = V_{2^i}(4, 1), as V_2j = V_j^2 - 2.
    """
    if p < 3 or p % 2 == 0:
        raise ValueError("p must be odd and >= 3")
    m = (1 << p) - 1
    return _lucas_v(4, 1 << (p - 2), m) % m == 0
