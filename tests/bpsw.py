"""Baillie-PSW, the test-only oracle for the library's primality verdicts.

Trial division by the primes below 1000, then a strong base-2 test and a
strong Lucas test with Selfridge's parameters.  No composite below 2^64
passes both (the Feitsma-Galway table of base-2 pseudoprimes, each run
through the strong Lucas test), and none is known above, but none is ruled
out.  It has no size limit, so it checks the library's proofs (Proth on G_p,
Lucas-Lehmer on M_p) and its Miller-Rabin on the same inputs, from a second
line of argument.
"""

from __future__ import annotations

import math
from typing import Optional

from gmforms.arith import _fold_mod, jacobi, primes_up_to

_SMALL_PRIMES = primes_up_to(1000)


def lucas_v_pair(c: int, m: int, n: int) -> tuple[int, int]:
    """(V_m, V_{j+1}) of V(c, 1) for m >= 1 with odd part j and |c| < n, up
    to multiples of n; for odd m that is (V_m, V_{m+1}).

    The same ladder as gmforms.arith._lucas_v, which returns V_m alone.
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
    return v, w


def strong_probable_prime(n: int) -> bool:
    # Strong base-2 test; n odd, n > 2.
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(2, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def selfridge_d(n: int) -> Optional[int]:
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


def strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge's (P, Q) = (1, (1 - D)/4), run on V(c, 1).

    With n + 1 = k*2^s, k odd, n passes iff U_k = 0 or V_{k*2^r} = 0 (mod n)
    for some 0 <= r < s.  For alpha, alpha' the roots of X^2 - X + Q and
    gcd(n, 2QD) = 1, that is beta^k = +-1 or beta^(k*2^r) = -1 for r >= 1,
    where beta = alpha/alpha' is a root of X^2 - cX + 1 with c = 1/Q - 2, so
    V_2i(1, Q) = Q^i * V_i(c, 1).  beta^k = +-1 iff V_k(c, 1) = +-2 and
    2*V_{k+1} = c*V_k, as 2*V_{k+1} - c*V_k = (c^2 - 4)*U_k(c, 1) and
    c^2 - 4 = D/Q^2 is a unit; beta^(k*2^r) = -1 iff V_{k*2^(r-1)}(c, 1) = 0.
    selfridge_d gives gcd(n, D) = 1, and gcd(n, Q) = 1 as well: an odd
    prime p dividing n and Q is below |D|, so D' = +-p (or 9 for p = 3) came
    first with (D'/n) = 0, and p = n would make (D/n) = (1/n) = 1.
    """
    if math.isqrt(n) ** 2 == n:
        return False
    d = selfridge_d(n)
    if d is None:
        return False
    c = (pow((1 - d) // 4, -1, n) - 2) % n
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    v, w = lucas_v_pair(c, (n + 1) >> s, n)
    if v % n in (2, n - 2) and (2 * w - c * v) % n == 0:
        return True
    fold = _fold_mod(n) or (lambda x: x % n)
    for _ in range(s - 1):
        if v % n == 0:
            return True
        v = fold(v * v - 2)
    return False


def baillie_psw(n: int) -> bool:
    """Whether n passes trial division below 1000 and both strong tests."""
    if n < 2:
        return False
    if n <= _SMALL_PRIMES[-1]:
        return n in _SMALL_PRIMES
    if any(n % p == 0 for p in _SMALL_PRIMES):
        return False
    if n < (_SMALL_PRIMES[-1] + 1) ** 2:
        return True
    return strong_probable_prime(n) and strong_lucas_probable_prime(n)
