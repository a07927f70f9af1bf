"""Solving n = x^2 + d*y^2 with positive x, y.

Cornacchia descent for prime n, plus an exhaustive brute-force oracle for
small n; solve picks between them.  Representations require x > 0 AND y > 0;
solutions touching zero are rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .arith import sqrt_mod_prime

#: Brute-force search is refused above this (documented desk-scale cap).
BRUTEFORCE_CAP = 10**12


@dataclass(frozen=True)
class Representation:
    n: int
    d: int
    x: int
    y: int

    def __post_init__(self) -> None:
        if self.x <= 0 or self.y <= 0:
            raise ValueError("representation requires x > 0 and y > 0")
        if self.x * self.x + self.d * self.y * self.y != self.n:
            raise ValueError("x^2 + d*y^2 != n")


def cornacchia(n: int, d: int) -> Optional[Representation]:
    """Solve n = x^2 + d*y^2 for an odd prime n and 1 <= d < n.

    Euclidean descent seeded by a square root of -d mod n; returns None when
    -d is a non-residue or the descent yields no exact solution.  n must be
    a (probable) prime: the descent's completeness argument is prime-specific.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if n % 2 == 0 or n <= d:
        raise ValueError("need odd n > d")
    # Never 0: 1 <= d < n keeps -d nonzero mod n, and only 0 has root 0.
    r0 = sqrt_mod_prime((-d) % n, n)
    if r0 is None:
        return None
    # The root in (n/2, n): sqrt_mod_prime returns the one in [1, (n-1)/2].
    r0 = n - r0
    a, b = n, r0
    limit = math.isqrt(n)
    while b > limit:
        a, b = b, a % b
    if b == 0:
        return None
    rem = n - b * b
    if rem % d:
        return None
    rem //= d
    y = math.isqrt(rem)
    if y * y != rem or y == 0:
        return None
    return Representation(n=n, d=d, x=b, y=y)


def represent_bruteforce(n: int, d: int) -> Optional[Representation]:
    """Exhaustive solver: loop y upward, test n - d*y^2 for a positive square.

    Returns the solution with smallest y, or None.  Oracle-grade and
    deliberately independent of cornacchia.
    """
    if d < 1 or n < 1:
        raise ValueError("need n >= 1 and d >= 1")
    if n > BRUTEFORCE_CAP:
        raise ValueError(f"n exceeds brute-force cap {BRUTEFORCE_CAP}")
    y = 1
    while d * y * y < n:
        rem = n - d * y * y
        x = math.isqrt(rem)
        if x * x == rem and x > 0:
            return Representation(n=n, d=d, x=x, y=y)
        y += 1
    return None


def solve(n: int, d: int, prime: bool) -> Optional[Representation]:
    """Solve n = x^2 + d*y^2, given whether n is prime.

    An odd prime n > d goes through Cornacchia; any other n through the
    brute-force oracle, which raises ValueError above BRUTEFORCE_CAP.
    Callers holding a primality proof pass it, so it is not re-decided.
    """
    if prime and n > d and n % 2 == 1:
        return cornacchia(n, d)
    return represent_bruteforce(n, d)
